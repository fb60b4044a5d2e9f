"""Property-based checks of the theorem on random partition-of-unity bases
paired with random nonnegative discrete-measure functionals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (assert_norm_estimate_near_oracle, clamped_knots, dense_product_form,
                     dirac, in_order, local_sum_bound, norm_estimate_bound, one,
                     positivity_bound, quadrature, random_breakpoints)

from pouspec.bases import (DEFAULT_GRID_POINTS, LOCAL_CROSSOVER, TOL_POU,
                           check_partition_of_unity, make_bspline_basis, make_hat_basis)
from pouspec.functions import grid
from pouspec.operators import (WITNESS_RESIDUAL_TOL, OperatorSpec, bernstein_operator,
                               coefficient_vector, kantorovich_operator, kernel_witness_report,
                               verify_constant_reproduction, verify_norm_bound,
                               verify_positivity)
from pouspec.spectra import (CLASSIFICATION_VIOLATES, MAX_DIMENSION, TOL_PERIPHERAL,
                             build_collocation_matrix, classify_spectrum, closed_classes,
                             eigenvalues, gershgorin_disks, iterate_limit)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

GRID = grid(DEFAULT_GRID_POINTS)


@st.composite
def breakpoints(draw) -> np.ndarray:
    """Strictly increasing points from 0 to 1, no gap below 1e-3."""
    gaps = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                  min_size=1, max_size=8)))
    pts = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    pts[-1] = 1.0
    return pts


@st.composite
def functional(draw):
    """A Dirac, or a rule on up to four nodes with Dirichlet-like weights."""
    if draw(st.booleans()):
        return dirac(draw(unit))
    size = draw(st.integers(min_value=1, max_value=4))
    nodes = draw(st.lists(unit, min_size=size, max_size=size))
    raw = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                 min_size=size, max_size=size)))
    return quadrature(nodes, raw / raw.sum())


@st.composite
def operators(draw) -> OperatorSpec:
    points = draw(breakpoints())
    if draw(st.booleans()):
        basis = make_hat_basis(points)
    else:
        degree = draw(st.integers(min_value=0, max_value=3))
        basis = make_bspline_basis(clamped_knots(points, degree), degree)
    funcs = draw(st.lists(functional(), min_size=basis.n, max_size=basis.n))
    return OperatorSpec(basis, in_order(*funcs), name="random")


@st.composite
def permuted_diracs(draw) -> OperatorSpec:
    """Hat ``k`` read at node ``image[k]`` of a drawn permutation, so that
    every cycle of length d is a closed class of period d; some rows are
    then redrawn as random functionals, which joins or opens classes."""
    nodes = draw(breakpoints())
    image = draw(st.permutations(range(nodes.size)))
    funcs = [dirac(nodes[j]) for j in image]
    for k in draw(st.sets(st.integers(min_value=0, max_value=nodes.size - 1), max_size=2)):
        funcs[k] = draw(functional())
    return OperatorSpec(make_hat_basis(nodes), in_order(*funcs), name="permuted")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.one_of(operators(), permuted_diracs()))
def test_limit_exists_or_a_period_is_named(op):
    matrix = build_collocation_matrix(op).entries
    result = iterate_limit(matrix)
    periods = closed_classes(matrix)[1]
    if result.converged:
        limit = result.limit
        assert periods.max() == 1
        assert limit.min() >= -1e-12
        assert np.max(np.abs(limit.sum(axis=1) - 1.0)) <= 1e-12
        for product in (limit @ limit, limit @ matrix, matrix @ limit):
            assert np.max(np.abs(product - limit)) <= 1e-12
    else:
        assert periods.max() > 1
        assert result.message.startswith("no limit: closed class(es) of period ")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(operators())
def test_random_operator_obeys_theorem(op):
    matrix = build_collocation_matrix(op)
    assert matrix.entries.min() >= -1e-12
    assert np.max(np.abs(matrix.entries.sum(axis=1) - 1.0)) <= 1e-12
    eigs = eigenvalues(matrix)
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-8
    assert np.min(np.abs(eigs - 1.0)) <= 1e-8
    if np.diag(matrix.entries).min() > TOL_PERIPHERAL:
        spectrum = classify_spectrum(eigs, gershgorin_disks(matrix))
        assert spectrum.classification != CLASSIFICATION_VIOLATES, spectrum.diagnostics


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(operators(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_norm_estimate_is_the_oracle_up_to_rounding(op, seed):
    # The block check and the one-at-a-time oracle differ only in rounding,
    # within the derived bound, and give the same verdict.
    assert_norm_estimate_near_oracle(op, GRID, seed=seed)


@st.composite
def operators_across_the_crossover(draw) -> OperatorSpec:
    """A hat basis or a clamped B-spline basis of degree 1 to 3 on random
    breakpoints, with ``n / width`` from half to twice ``LOCAL_CROSSOVER``,
    read by a random functional per function."""
    degree = draw(st.integers(min_value=0, max_value=3))
    width = degree + 1 if degree else 2
    ratio = draw(st.floats(min_value=0.5, max_value=2.0)) * LOCAL_CROSSOVER
    n = max(width + 1, round(ratio * width))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if degree:
        # n = breakpoints + degree - 1.
        points = random_breakpoints(rng, interior=n - degree - 1)
        basis = make_bspline_basis(clamped_knots(points, degree), degree)
    else:
        basis = make_hat_basis(random_breakpoints(rng, interior=n - 2))
    assert (basis.n, basis.width) == (n, width)
    return OperatorSpec(basis, in_order(*(_random_functional(rng) for _ in range(n))),
                        name="random")


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(operators_across_the_crossover(), st.sampled_from([97, DEFAULT_GRID_POINTS]))
def test_local_checks_are_the_dense_product_up_to_rounding(op, points):
    # Every check on the basis' local form against the same check taking
    # the dense product: equal below LOCAL_CROSSOVER, where the form keeps
    # the dense values; from there on each value within the rounding bound
    # of a width-term sum (helpers.local_sum_bound) over the coefficients
    # the check combines, positivity and the norm estimate within twice
    # their bounds from the one-at-a-time oracles, and each flag the same
    # unless the dense value lies within that bound of the flag's
    # threshold. On either form positivity lies within its bound of the
    # oracle, a bound below 1e-12 * max(1, |value|).
    xs = grid(points)
    form, dense = op.basis.on(xs), dense_product_form(op.basis, xs)
    checks = {
        "partition_of_unity": check_partition_of_unity,
        "positivity": lambda f: verify_positivity(op, f),
        "constant_reproduction": lambda f: verify_constant_reproduction(op, f),
        "norm_estimate": lambda f: verify_norm_bound(op, f, seed=43),
        "kernel_residual": lambda f: kernel_witness_report(op, f),
    }
    results = {name: (check(form), check(dense)) for name, check in checks.items()}
    oracle, positivity = positivity_bound(op, xs, op.basis.values(xs))
    assert positivity <= 1e-12 * max(1.0, abs(oracle.value)), (positivity, oracle)
    for check in results["positivity"]:
        assert abs(check.value - oracle.value) <= positivity, (check, oracle, positivity)
    if op.n < LOCAL_CROSSOVER * op.basis.width:
        assert form.dense is not None
        assert all(local == on_dense for local, on_dense in results.values())
        return
    assert form.dense is None
    bounds = {
        "partition_of_unity": local_sum_bound(op, xs, [np.ones(op.n)]),
        "positivity": 2.0 * positivity,
        "constant_reproduction": local_sum_bound(op, xs, [coefficient_vector(op, one)]),
        "norm_estimate": 2.0 * norm_estimate_bound(op, xs, op.basis.values(xs), seed=43)[1],
        "kernel_residual": 0.0,
    }
    # The values where each flag turns.
    edges = {"partition_of_unity": [TOL_POU], "positivity": [-WITNESS_RESIDUAL_TOL],
             "constant_reproduction": [WITNESS_RESIDUAL_TOL],
             "norm_estimate": [1.0 - 1e-12, 1.0 + WITNESS_RESIDUAL_TOL],
             "kernel_residual": [WITNESS_RESIDUAL_TOL]}
    for name, (local, on_dense) in results.items():
        if on_dense.value is None:
            assert local == on_dense, name
            continue
        assert abs(local.value - on_dense.value) <= bounds[name], (name, local, on_dense)
        if all(abs(on_dense.value - edge) > bounds[name] for edge in edges[name]):
            assert local.passed == on_dense.passed, (name, local, on_dense)


@pytest.mark.parametrize("points", [11, 97, DEFAULT_GRID_POINTS, 20001])
@pytest.mark.parametrize("op", [bernstein_operator(n) for n in (1, 5, 30, 31, 150)]
                         + [kantorovich_operator(n) for n in (1, 7, 31)],
                         ids=lambda o: o.name)
def test_bernstein_checks_are_the_dense_product_bit_for_bit(op, points):
    # A Bernstein basis has every function nonzero (width == n): its form
    # keeps the dense values, each Tf has the bits of the product with them,
    # and every check equals the same check on those values.
    xs = grid(points)
    form, dense = op.basis.on(xs), dense_product_form(op.basis, xs)
    assert form.dense is form.values
    coeffs = np.random.default_rng(points).uniform(-1.0, 1.0, (3, op.n))
    assert form.combine(coeffs).tobytes() == (coeffs @ op.basis.values(xs)).tobytes()
    for check in (check_partition_of_unity,
                  lambda f: verify_positivity(op, f),
                  lambda f: verify_constant_reproduction(op, f),
                  lambda f: verify_norm_bound(op, f, seed=43),
                  lambda f: kernel_witness_report(op, f)):
        local, on_dense = check(form), check(dense)
        assert local == on_dense
        assert (local.value is None or
                np.float64(local.value).tobytes() == np.float64(on_dense.value).tobytes())


#: Dimensions of the operators at scale, up to the largest the program
#: analyses; the first is the one examples shrink towards.
LADDER = (MAX_DIMENSION, 250, 100, 30, 10)


def _random_functional(rng: np.random.Generator):
    """A Dirac at a uniform point, or a rule on up to four uniform nodes
    with weights uniform on the simplex."""
    if rng.integers(0, 2):
        return dirac(rng.uniform())
    size = int(rng.integers(1, 5))
    return quadrature(rng.uniform(size=size), rng.dirichlet(np.ones(size)))


@st.composite
def operators_at_scale(draw) -> OperatorSpec:
    """A hat basis on ``n`` random nodes, ``n`` from ``LADDER``, read by one
    of three families of functionals. ``permuted``: hat ``k`` read at node
    ``image[k]`` of a random permutation, so each cycle of length d is a
    closed class of period d, then up to three rows redrawn as random
    functionals, which joins or opens classes. ``lazy``: the same cycles
    with weight on node ``k`` too, so every class is aperiodic. ``random``:
    a random functional in every row."""
    n = draw(st.sampled_from(LADDER))
    kind = draw(st.sampled_from(("permuted", "lazy", "random")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    nodes = random_breakpoints(rng, interior=n - 2)
    image = rng.permutation(n)
    if kind == "permuted":
        funcs = [dirac(nodes[j]) for j in image]
        for k in rng.choice(n, size=int(rng.integers(0, 4)), replace=False):
            funcs[k] = _random_functional(rng)
    elif kind == "lazy":
        stay = rng.uniform(0.1, 0.9, size=n)
        funcs = [quadrature([nodes[k], nodes[j]], [stay[k], 1.0 - stay[k]])
                 for k, j in enumerate(image)]
    else:
        funcs = [_random_functional(rng) for _ in range(n)]
    return OperatorSpec(make_hat_basis(nodes), in_order(*funcs), name=kind)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(operators_at_scale())
def test_closed_class_periods_count_the_peripheral_eigenvalues(op):
    # Each closed class of period d puts the d-th roots of unity on the
    # unit circle, and every other eigenvalue lies strictly inside.
    matrix = build_collocation_matrix(op)
    periods = closed_classes(matrix)[1]
    eigs = eigenvalues(matrix)
    assert periods.sum() == np.count_nonzero(np.abs(eigs) >= 1.0 - TOL_PERIPHERAL)
    if periods.max() == 1:
        spectrum = classify_spectrum(eigs, gershgorin_disks(matrix))
        assert spectrum.classification != CLASSIFICATION_VIOLATES, spectrum.diagnostics


@pytest.mark.parametrize("n", [*range(1, 41), 100, MAX_DIMENSION - 1])
@pytest.mark.parametrize("build", [bernstein_operator, kantorovich_operator])
def test_closed_class_periods_count_the_catalog_peripheral_eigenvalues(build, n):
    # Bernstein's end rows are its two closed classes; Kantorovich's cell
    # averages of a positive basis make one. Each is aperiodic, and the
    # count holds up to the largest dimension, where the next eigenvalue is
    # 1 - 1 / n (Bernstein) or 1 - 1 / (n + 1) (Kantorovich).
    matrix = build_collocation_matrix(build(n))
    periods = closed_classes(matrix)[1]
    assert periods.max() == 1
    assert periods.sum() == np.count_nonzero(np.abs(eigenvalues(matrix)) >= 1.0 - TOL_PERIPHERAL)
