"""Property-based checks of the theorem on random partition-of-unity bases
paired with random nonnegative discrete-measure functionals."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import clamped_knots, dirac, in_order, quadrature, random_breakpoints

from pouspec.bases import make_bspline_basis, make_hat_basis
from pouspec.operators import OperatorSpec
from pouspec.spectra import (CLASSIFICATION_VIOLATES, MAX_DIMENSION, TOL_PERIPHERAL,
                             build_collocation_matrix, classify_spectrum, closed_classes,
                             eigenvalues, gershgorin_disks, iterate_limit)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


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
    assert np.max(np.abs(matrix.row_sums() - 1.0)) <= 1e-12
    eigs = eigenvalues(matrix)
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-8
    assert np.min(np.abs(eigs - 1.0)) <= 1e-8
    if matrix.diagonal_min() > TOL_PERIPHERAL:
        spectrum = classify_spectrum(eigs, gershgorin_disks(matrix))
        assert spectrum.classification != CLASSIFICATION_VIOLATES, spectrum.diagnostics


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
