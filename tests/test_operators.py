"""Operators: assembly, application, lemma checks, kernel witnesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec import operators
from pouspec.bases import (DEFAULT_GRID_POINTS, LOCAL_CROSSOVER, LocalForm,
                           make_bernstein_basis, make_bspline_basis, make_hat_basis)
from pouspec.errors import ConfigError, DomainError
from pouspec.functionals import (AVERAGE, check_functional_normalization, dirac_functionals,
                                 first_unnormalized, interval_average_functionals,
                                 make_kantorovich_functionals, quadrature_functionals)
from pouspec.functions import (PIECEWISE_LINEAR, DrawnTestFunctions, dictionary,
                               draw_test_functions, grid)
from pouspec.operators import (WITNESS_RESIDUAL_TOL, OperatorSpec, bernstein_operator,
                               coefficient_vector, estimate_operator_norm,
                               greville_abscissae, hat_dirac_operator,
                               kantorovich_operator, kernel_witness_report,
                               schoenberg_operator, verify_constant_reproduction,
                               verify_norm_bound, verify_positivity)
from pouspec.report import build_operator, parse_config
from pouspec.spectra import build_collocation_matrix

from helpers import (adjoint_pairing, assert_norm_estimate_near_oracle, average, bump,
                     bump_breakpoints, bump_peaks, cell_integrals, clamped_knots,
                     dense_basis, dirac, greville_loop, image, in_order, one,
                     output_diff_tool, pairing, assert_positivity_near_oracle, quadrature,
                     random_breakpoints,
                     random_function_oracle, rules, trial_gaps, unchecked_operator,
                     validate_functionals_one_by_one, verify_adjoint_identity,
                     well_formed_configs, widest_gap)

GRID = np.linspace(0.0, 1.0, 1001)
SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def catalog_operators():
    return [
        bernstein_operator(2),
        bernstein_operator(8),
        kantorovich_operator(1),
        kantorovich_operator(5),
        schoenberg_operator(clamped_knots([0.0, 0.25, 0.6, 1.0], 2), 2),
        schoenberg_operator(clamped_knots([0.0, 0.3, 0.7, 1.0], 3), 3),
        hat_dirac_operator([0.0, 0.4, 1.0]),
    ]


class TestConstruction:
    def test_count_mismatch_rejected(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        with pytest.raises(ConfigError):
            OperatorSpec(basis, dirac(0.0), name="short")

    def test_validation_rejects_scaled_basis(self):
        base = bernstein_operator(2)
        shrunk = dense_basis(lambda xs: 0.9 * base.basis.values(xs), base.basis.n,
                             name="shrunk")
        with pytest.raises(ConfigError):
            OperatorSpec(shrunk, base.functionals)

    def test_validation_rejects_denormalized_functional(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = quadrature([0.3], [0.9])
        with pytest.raises(ConfigError):
            OperatorSpec(basis, in_order(dirac(0.0), bad))

    def test_validation_names_first_functional_outside_domain(self):
        funcs = in_order(dirac(0.0), dirac(1.5), dirac(-0.5))
        with pytest.raises(DomainError) as err:
            OperatorSpec(make_hat_basis([0.0, 0.5, 1.0]), funcs, name="far")
        assert str(err.value) == "far: functional 1 (dirac(1.5)): x=1.5 outside domain [0.0, 1.0]"

    @pytest.mark.parametrize("bad_first, error", [
        ("mass", ConfigError), ("domain", DomainError),
    ])
    def test_validation_checks_functionals_in_order(self, bad_first, error):
        # Functional k's nodes, then its mass, in order of k: the first
        # faulty functional decides which error is raised.
        denormalized = quadrature([0.3], [0.9])
        outside = dirac(1.5)
        funcs = (in_order(denormalized, outside) if bad_first == "mass"
                 else in_order(outside, denormalized))
        with pytest.raises(error, match="functional 0 "):
            OperatorSpec(make_hat_basis([0.0, 1.0]), funcs)

    @pytest.mark.parametrize("funcs, message", [
        (in_order(dirac(0.0), dirac(1.5), dirac(-2.0)),
         "functional 1 (dirac(1.5)): x=1.5"),
        (in_order(dirac(0.0), dirac(0.5), dirac(1.5)),
         "functional 2 (dirac(1.5)): x=1.5"),
        (in_order(dirac(0.0),
          quadrature([0.5, 1.25, -0.5], [0.25, 0.25, 0.5]),
          dirac(1.0)),
         "functional 1 (quad(3 nodes)): x=1.25"),
        (in_order(dirac(0.0),
          quadrature([0.5, 1.25, 1.5], [0.2, 0.4, 0.4]),
          dirac(1.5)),
         "functional 1 (quad(3 nodes)): x=1.25"),
    ], ids=["second-dirac", "last-dirac", "quadrature-both-sides", "quadrature-then-dirac"])
    def test_node_outside_domain_rejected(self, funcs, message):
        # The nodes lie in [0, 1] for every operator built, so no check and
        # no collocation assembly has to test them again.
        with pytest.raises(DomainError) as err:
            OperatorSpec(make_hat_basis([0.0, 0.5, 1.0]), funcs, name="doctored")
        assert str(err.value) == f"doctored: {message} outside domain [0.0, 1.0]"

    @pytest.mark.parametrize("funcs", [
        in_order(dirac(0.0), dirac(0.3),
         quadrature([0.4, 0.6], [1.25, -0.25]), dirac(1.0)),
        in_order(dirac(0.0), quadrature([0.4, 0.6], [0.5, 0.5 + 2e-12]),
         dirac(0.7), dirac(1.0)),
        in_order(dirac(0.0), quadrature([0.4, 0.6], [0.5, 0.5 + 5e-13]),
         dirac(0.7), dirac(1.0)),
        in_order(average(0.0, 0.3), dirac(0.4),
         quadrature([0.5, 0.6, 0.7], [0.2, 0.3, 0.4]),
         average(0.7, 1.0)),
        in_order(dirac(0.0), quadrature([0.2, 0.3], [0.6, 0.6]),
         dirac(1.5), quadrature([0.8], [-1.0])),
        in_order(dirac(0.0), dirac(1.5),
         quadrature([0.2, 0.3], [0.6, 0.6]), dirac(1.0)),
        in_order(dirac(0.0), average(0.1, 0.5),
         quadrature([0.6, 0.7, 0.8], [0.5, 0.5, -2e-12]),
         dirac(1.0)),
    ], ids=["negative-weight", "mass-off-by-2e-12", "mass-off-by-5e-13",
            "mixed-rule-sizes", "mass-before-domain", "domain-before-mass",
            "tiny-negative-weight"])
    def test_validation_matches_one_functional_at_a_time(self, funcs):
        # One pass checks every functional; the error, its text and which
        # functional it names are those of checking them one at a time.
        basis = make_hat_basis([0.0, 0.3, 0.6, 1.0])
        try:
            validate_functionals_one_by_one("doctored", funcs)
            expected = None
        except (ConfigError, DomainError) as exc:
            expected = (type(exc), str(exc))
        try:
            OperatorSpec(basis, funcs, name="doctored")
            found = None
        except (ConfigError, DomainError) as exc:
            found = (type(exc), str(exc))
        assert found == expected

    def test_one_pass_finds_the_first_unnormalized_rule(self):
        # Masses within a rounding of the tolerance, over rule sizes 1 to
        # 1000: the one pass agrees with each rule's own check.
        rng = np.random.default_rng(11)
        for _ in range(20):
            members = []
            for size in rng.integers(1, 1001, size=12):
                weights = rng.dirichlet(np.ones(size))
                weights[rng.integers(size)] += rng.choice([0.0, 0.99e-12, 1.01e-12, -1e-12])
                members.append(quadrature(np.full(size, 0.5), weights))
            expected = next((k for k, rule in enumerate(members)
                             if not check_functional_normalization(rule, 0).passed),
                            len(members))
            joined = in_order(*members)
            assert first_unnormalized(joined.weights, joined.starts) == expected

    @pytest.mark.parametrize("op", [*catalog_operators(), OperatorSpec(
        make_hat_basis([0.0, 0.4, 1.0]),
        in_order(dirac(0.0), average(0.2, 0.7), dirac(1.0)), name="custom")],
        ids=lambda o: o.name)
    def test_default_values_are_the_read_only_basis_on_the_default_grid(self, op):
        # The local form on the default grid, and the dense values only
        # where the checks take the dense product.
        form, xs = op.default_values, grid(DEFAULT_GRID_POINTS)
        first, local = op.basis.local(xs)
        assert (form.n, form.width) == (op.n, op.basis.width)
        assert form.xs.tobytes() == xs.tobytes()
        assert form.first.tobytes() == first.tobytes()
        assert form.values.tobytes() == local.tobytes()
        if op.n < LOCAL_CROSSOVER * op.basis.width:
            assert form.dense.tobytes(order="A") == op.basis.values(xs).tobytes(order="A")
        else:
            assert form.dense is None
        for arr in (form.xs, form.first, form.values, form.dense):
            if arr is not None:
                with pytest.raises(ValueError, match="read-only"):
                    arr[(0,) * arr.ndim] = 0

    def test_greville_abscissae(self):
        knots = clamped_knots([0.0, 0.5, 1.0], 2)
        nptest.assert_allclose(greville_abscissae(knots, 2), [0.0, 0.25, 0.75, 1.0])

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 9, 17, 30])
    def test_greville_abscissae_equal_the_loop(self, degree):
        # One mean over sliding windows of the inner knots, with the bits of
        # each knot average taken on its own (pairwise summation from eight
        # knots on).
        rng = np.random.default_rng(degree)
        for _ in range(50):
            breakpoints = random_breakpoints(rng, interior=int(rng.integers(0, 40)),
                                             min_gap=0.0)
            knots = clamped_knots(breakpoints, degree)
            assert greville_abscissae(knots, degree).tobytes() == \
                greville_loop(knots, degree).tobytes()

    def test_greville_abscissae_of_too_few_knots_are_empty(self):
        for knots in ([0.0, 1.0], [0.0, 0.5, 1.0]):
            assert greville_abscissae(knots, 3).tobytes() == greville_loop(knots, 3).tobytes()
            assert greville_abscissae(knots, 3).shape == (0,)

    def test_schoenberg_degree_one_is_nodal(self):
        op = schoenberg_operator(clamped_knots([0.0, 0.5, 1.0], 1), 1)
        xs = op.functionals.a
        nptest.assert_allclose(xs, [0.0, 0.5, 1.0])


def _joined_rule_parts():
    """(basis, parts) of Kantorovich n = 7, a hat basis with cell averages,
    and a hat basis with mixed Dirac/quadrature functionals: the
    functionals are the members of the parts, in order."""
    pts = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    edges = np.concatenate(([0.0], (pts[:-1] + pts[1:]) / 2.0, [1.0]))
    return {
        "kantorovich-7": (make_bernstein_basis(7), (make_kantorovich_functionals(7),)),
        "hat-average": (make_hat_basis(pts),
                        tuple(average(a, b) for a, b in zip(edges, edges[1:]))),
        "dirac-quadrature": (make_hat_basis([0.0, 0.5, 1.0]),
                             (dirac(0.0), quadrature([0.4, 0.5, 0.6], [0.25, 0.5, 0.25]),
                              dirac(1.0))),
    }


@pytest.mark.parametrize("parts", ["kantorovich-7", "hat-average", "dirac-quadrature"])
class TestJoinedRule:
    def test_joined_arrays_concatenate_functionals(self, parts):
        basis, parts = _joined_rule_parts()[parts]
        op = OperatorSpec(basis, in_order(*parts))
        fs = op.functionals
        nptest.assert_array_equal(fs.nodes, np.concatenate([p.nodes for p in parts]))
        nptest.assert_array_equal(fs.weights, np.concatenate([p.weights for p in parts]))
        sizes = [nodes.size for p in parts for nodes, _ in rules(p)]
        nptest.assert_array_equal(fs.starts, np.cumsum([0] + sizes[:-1]))
        for array in (fs.nodes, fs.weights, fs.starts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_same_parts_compare_equal(self, parts):
        basis, parts = _joined_rule_parts()[parts]
        funcs = in_order(*parts)
        first = OperatorSpec(basis, funcs, name="op")
        second = OperatorSpec(basis, funcs, name="op")
        assert first == second
        assert hash(first) == hash(second)
        assert repr(first) == f"OperatorSpec(basis={basis!r}, functionals={funcs!r}, name='op')"

    def test_coefficient_vector_matches_functionals(self, parts):
        basis, parts = _joined_rule_parts()[parts]
        funcs = in_order(*parts)
        op = OperatorSpec(basis, funcs)
        rng = np.random.default_rng(11)
        for f in (one, lambda xs: xs ** 3, random_function_oracle(rng),
                  random_function_oracle(rng)):
            nptest.assert_allclose(coefficient_vector(op, f),
                                   [pairing(funcs, f, k) for k in range(funcs.n)],
                                   rtol=0, atol=1e-14)


class TestApplication:
    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_reproduces_constants(self, op):
        vals = image(op, one, GRID)
        assert np.max(np.abs(vals - 1.0)) <= 1e-12

    def test_bernstein2_reproduces_linear(self):
        op = bernstein_operator(2)
        vals = image(op, lambda xs: xs, GRID)
        assert np.max(np.abs(vals - GRID)) <= 1e-12

    def test_bernstein2_annihilates_full_sine(self):
        # sin(2 pi x) vanishes at the nodes 0, 1/2, 1.
        op = bernstein_operator(2)
        vals = image(op, lambda xs: np.sin(2 * np.pi * xs), GRID)
        assert np.max(np.abs(vals)) <= 1e-14

    def test_coefficients_are_node_values(self):
        op = bernstein_operator(2)
        nptest.assert_allclose(coefficient_vector(op, lambda xs: xs), [0.0, 0.5, 1.0],
                               atol=1e-15)


class TestAdjoint:
    def test_dirac_dual_equals_point_value(self):
        op = bernstein_operator(3)
        def f(xs):
            return xs ** 2

        for x0 in (0.0, 0.37, 1.0):
            assert adjoint_pairing(op, dirac(x0), f) == \
                pytest.approx(image(op, f, np.array([x0]))[0], abs=1e-14)

    def test_bernstein2_linear_at_half(self):
        # T reproduces linears, so dual = point mass at 1/2 gives 1/2.
        assert adjoint_pairing(bernstein_operator(2), dirac(0.5),
                               lambda xs: xs) == pytest.approx(0.5, abs=1e-14)

    def test_unit_maps_to_one(self):
        op = kantorovich_operator(3)
        dual = average(0.2, 0.9)
        assert adjoint_pairing(op, dual, one) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_adjoint_identity_check(self, op):
        result = verify_adjoint_identity(op, pairs=50, tol=1e-10, seed=11)
        assert result.passed, result


class TestPositivityAndNorm:
    def test_kantorovich_positive_on_square(self):
        op = kantorovich_operator(3)
        vals = image(op, lambda xs: xs ** 2, GRID)
        assert vals.min() >= 0.0

    def test_zero_maps_to_zero(self):
        op = bernstein_operator(4)
        coeffs = coefficient_vector(op, np.zeros_like)
        nptest.assert_array_equal(coeffs, np.zeros(5))

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_positivity_check(self, op):
        result = verify_positivity(op, op.basis.on(GRID), trials=100, tol=1e-10, seed=3)
        assert result.passed, result

    def test_doctored_negative_weight_fails(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = quadrature([0.2, 0.8], [1.5, -0.5])
        op = unchecked_operator(basis, in_order(dirac(0.0), bad), name="doctored")
        result = verify_positivity(op, op.basis.on(GRID), trials=100, tol=1e-10, seed=3)
        assert not result.passed

    def test_norm_includes_constant_witness(self):
        op = bernstein_operator(5)
        estimate = estimate_operator_norm(op, op.basis.on(GRID), trials=10, seed=0)
        assert 1.0 - 1e-12 <= estimate <= 1.0 + 1e-10

    def test_full_sine_has_zero_ratio(self):
        op = bernstein_operator(2)
        tf = image(op, lambda xs: np.sin(2 * np.pi * xs), GRID)
        assert np.max(np.abs(tf)) <= 1e-14

    def test_kantorovich_norm_bound(self):
        op = kantorovich_operator(4)
        estimate = estimate_operator_norm(op, op.basis.on(GRID), trials=200, seed=7)
        assert 0.5 <= estimate <= 1.0 + 1e-10

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_norm_check(self, op):
        result = verify_norm_bound(op, op.basis.on(GRID), trials=60, seed=5)
        assert result.passed, result

    @pytest.mark.parametrize("op", catalog_operators()[:4], ids=lambda o: o.name)
    def test_rank_bound(self, op):
        # Images of 2n random functions span at most n directions.
        rng = np.random.default_rng(17)
        rows = [image(op, random_function_oracle(rng), GRID) for _ in range(2 * op.n)]
        sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
        assert sv[op.n:].max(initial=0.0) <= 1e-8 * sv[0]


def block_check_operators():
    """Every catalog kind, a hat basis with cell averages, a crossed-Dirac
    derangement, mixed Dirac/average functionals, cell averages on a
    B-spline basis (whose values come out F-ordered), hat and cubic B-spline
    bases whose checks take the local routine, and doctored
    operators: zero weights, a zero first weight, a basis with negative
    values and weights in the subnormal range."""
    hat_nodes = [0.0, 0.15, 0.4, 0.75, 1.0]
    edges = np.concatenate(([0.0], np.convolve(hat_nodes, [0.5, 0.5], "valid"), [1.0]))
    averages = tuple(average(a, b) for a, b in zip(edges, edges[1:]))
    knots = clamped_knots([0.0, 0.3, 0.55, 1.0], 3)
    spline_edges = np.linspace(0.0, 1.0, 7)
    return [
        bernstein_operator(7),
        kantorovich_operator(6),
        schoenberg_operator(knots, 3),
        hat_dirac_operator(hat_nodes),
        OperatorSpec(make_hat_basis(hat_nodes), in_order(*averages), name="hat-average"),
        OperatorSpec(make_hat_basis(hat_nodes), dirac_functionals(np.roll(hat_nodes, 2)),
                     name="custom-swap"),
        OperatorSpec(make_hat_basis(hat_nodes),
                     in_order(*(dirac(x) if k % 2 == 0 else a
                                for k, (x, a) in enumerate(zip(hat_nodes, averages)))),
                     name="custom-mixed"),
        OperatorSpec(make_bspline_basis(knots, 3),
                     interval_average_functionals(spline_edges[:-1], spline_edges[1:]),
                     name="bspline-average"),
        # At LOCAL_CROSSOVER functions per nonzero one: the local routine.
        hat_dirac_operator(random_breakpoints(np.random.default_rng(39),
                                              interior=2 * LOCAL_CROSSOVER - 2)),
        schoenberg_operator(clamped_knots(np.linspace(0.0, 1.0, 4 * LOCAL_CROSSOVER - 2), 3), 3),
        # T = 0: every test function ties at the minimum 0.
        unchecked_operator(make_hat_basis([0.0, 1.0]),
                           in_order(*[quadrature([0.5], [0.0])] * 2), name="zero-weights"),
        # Tf(0) = 0 and Tf > 0 elsewhere: every test function ties at the
        # minimum 0, at x = 0.
        unchecked_operator(make_hat_basis(hat_nodes),
                           in_order(quadrature([0.0], [0.0]), *averages[1:]),
                           name="tied-at-zero"),
        # Alternating signs: the images are bounded without a nonnegative basis.
        unchecked_operator(dense_basis(lambda xs: SIGNS[:, None]
                                       * make_bernstein_basis(7).values(xs),
                                       8, name="signed-bernstein"),
                           bernstein_operator(7).functionals, name="signed-bernstein"),
        # Coefficients and images below 2**-1022, where products lose bits.
        unchecked_operator(make_bernstein_basis(6), quadrature_functionals(
            *zip(*((nodes, weights * 2.0 ** -1060)
                   for nodes, weights in rules(make_kantorovich_functionals(6))))),
            name="subnormal-kantorovich"),
    ]


class TestBlockChecks:
    """The positivity and norm checks, run on blocks of test functions,
    against the same checks run one function at a time on the dense values:
    within the rounding bounds of ``helpers.positivity_bound`` and
    ``helpers.norm_estimate_bound``."""

    def test_operators_cover_f_ordered_values(self):
        layouts = {op.basis.values(GRID).flags.c_contiguous for op in block_check_operators()}
        assert layouts == {True, False}

    # At 20001 points one test function has more values than a block holds
    # (operators.TRIAL_BLOCK_VALUES), so each block holds one test function.
    @pytest.mark.parametrize("trials", [1, 7, 100, 200])
    @pytest.mark.parametrize("points", [11, 97, 1001, 20001])
    @pytest.mark.parametrize("op", block_check_operators(), ids=lambda o: o.name)
    def test_equal_to_one_trial_at_a_time(self, op, points, trials):
        xs = grid(points)
        assert_positivity_near_oracle(op, xs, trials=trials, seed=points)
        assert_norm_estimate_near_oracle(op, xs, trials=trials, seed=points + 1)

    # The largest operators the CLI analyses, at the default grid.
    @pytest.mark.parametrize("op", [bernstein_operator(499),
                                    hat_dirac_operator(np.linspace(0.0, 1.0, 500))],
                             ids=lambda o: o.name)
    def test_equal_to_one_trial_at_a_time_at_top_size(self, op):
        assert_positivity_near_oracle(op, GRID)
        assert_norm_estimate_near_oracle(op, GRID, seed=43)

    @pytest.mark.parametrize("nonnegative", [False, True])
    @pytest.mark.parametrize("op", block_check_operators(), ids=lambda o: o.name)
    def test_trial_coefficients_are_the_oracles_up_to_rounding(self, op, nonnegative):
        # Each polynomial's or wave's coefficients, by the dictionary
        # moments, lie within delta_c (helpers.trial_gaps) of the oracle's
        # coefficient_vector of its own formula; a piecewise-linear trial's
        # have its bits.
        draw = draw_test_functions(np.random.default_rng(7), 200, nonnegative)
        coeffs = operators._trial_coefficients(op, draw)
        assert coeffs.shape == (200, op.n)
        gaps = trial_gaps(op, GRID, op.basis.values(GRID))
        rng = np.random.default_rng(7)
        for row in coeffs:
            f = random_function_oracle(rng, nonnegative)
            oracle = coefficient_vector(op, f)
            if f.kind == "pwl":
                assert row.tobytes() == oracle.tobytes()
            else:
                assert np.all(np.abs(row - oracle) <= gaps(f, oracle)[1]), f.name

    def test_both_checks_form_their_coefficients_through_one_routine(self, monkeypatch):
        draws = []
        routine = operators._trial_coefficients
        monkeypatch.setattr(operators, "_trial_coefficients",
                            lambda op, draw: draws.append(draw) or routine(op, draw))
        op = kantorovich_operator(4)
        verify_positivity(op, op.default_values)
        verify_norm_bound(op, op.default_values)
        assert [(draw.kinds.size, draw.nonnegative) for draw in draws] == \
            [(100, True), (200, False)]

    def test_bounds_skip_most_images(self, monkeypatch):
        # Cell averages of a smooth f lie strictly inside its range, so the
        # coefficient bounds rule out all but a few of the 300 trials. Every
        # image is one LocalForm.combine: the norm check's constant one, a
        # vector, and the blocks of trials of both checks, each a matrix.
        rows = []
        combine = LocalForm.combine
        monkeypatch.setattr(LocalForm, "combine", lambda form, coeffs: rows.append(
            np.atleast_2d(coeffs).shape) or combine(form, coeffs))
        op = kantorovich_operator(30)
        verify_positivity(op, op.default_values)
        estimate_operator_norm(op, op.default_values, seed=43)
        assert 0 < sum(count for count, _ in rows) - 1 < 300 / 4

    def test_checks_evaluate_each_trial_once(self, monkeypatch):
        # Both checks interpolate each piecewise-linear trial once on the
        # nodes and evaluate the dictionary once on the nodes, in blocks of
        # at most TRIAL_BLOCK_VALUES values, those on the nodes of whole
        # rules; the norm check also interpolates each piecewise-linear
        # trial and evaluates the dictionary once on the grid. Kantorovich
        # 30's 992 nodes take three blocks.
        calls, points = [], []
        blocks = DrawnTestFunctions.blocks

        def spy(self, size, xs):
            for rows, values in blocks(self, size, xs):
                calls.append((rows, self.kinds[rows], values.size, xs))
                yield rows, values

        def dictionary_spy(xs):
            points.append(xs)
            return dictionary(xs)

        monkeypatch.setattr(DrawnTestFunctions, "blocks", spy)
        monkeypatch.setattr(operators, "dictionary", dictionary_spy)
        op = kantorovich_operator(30)
        nodes = op.functionals.nodes
        basis_values = op.basis.on(GRID)
        positivity_draw = draw_test_functions(np.random.default_rng(42), 100, nonnegative=True)
        norm_draw = draw_test_functions(np.random.default_rng(42), 200)
        for check, draw, on_grid in ((verify_positivity, positivity_draw, False),
                                     (estimate_operator_norm, norm_draw, True),
                                     (verify_norm_bound, norm_draw, True)):
            calls.clear()
            points.clear()
            check(op, basis_values)
            pwl = np.flatnonzero(draw.kinds == PIECEWISE_LINEAR).tolist()
            for on_nodes in (True, False):
                rows = [rows for rows, _, _, xs in calls if (xs is nodes) == on_nodes]
                assert sorted(np.concatenate(rows).tolist() if rows else []) == \
                    (pwl if on_nodes or on_grid else [])
            for _, kinds, size, _ in calls:
                assert set(kinds.tolist()) == {PIECEWISE_LINEAR}
                assert size <= operators.TRIAL_BLOCK_VALUES
            node_blocks = [xs for xs in points if np.shares_memory(xs, nodes)]
            assert len(node_blocks) == 3
            nptest.assert_array_equal(np.concatenate(node_blocks), nodes)
            on_grid_points = [xs for xs in points if not np.shares_memory(xs, nodes)]
            if on_grid:
                nptest.assert_array_equal(np.concatenate(on_grid_points), GRID)
            else:
                assert on_grid_points == []
            ends = np.cumsum([xs.size for xs in node_blocks])
            assert set(ends.tolist()) <= set(op.functionals.starts.tolist()) | {nodes.size}
            for xs in points:
                assert dictionary(xs).size <= operators.TRIAL_BLOCK_VALUES

    def test_only_the_reported_trial_is_named(self, monkeypatch):
        named = []
        name = DrawnTestFunctions.name
        monkeypatch.setattr(DrawnTestFunctions, "name",
                            lambda self, i: named.append(i) or name(self, i))
        op = kantorovich_operator(4)
        basis_values = op.basis.on(GRID)
        result = verify_positivity(op, basis_values, seed=5)
        draw = draw_test_functions(np.random.default_rng(5), 100, nonnegative=True)
        assert len(named) == 1
        assert result.detail.endswith(f"at f = {name(draw, named[0])}")
        estimate_operator_norm(op, basis_values)
        assert len(named) == 1

    def test_grid_outside_domain_rejected_by_the_form(self):
        # The checks read the grid from the basis' local form, which is
        # built only on points in the domain.
        op = bernstein_operator(2)
        with pytest.raises(DomainError, match=r"^bernstein\(2\): x=1.5 outside"):
            op.basis.on(np.array([0.0, 0.5, 1.5]))


#: Child process: for each config text of the JSON list on stdin, the norm
#: estimate that ``pouspec analyze`` reports, as ``float.hex``, in a JSON list.
_NORM_ESTIMATE_CHILD = """
import json, sys
from pouspec.functions import grid
from pouspec.operators import estimate_operator_norm
from pouspec.report import build_operator, parse_config
estimates = []
for text in json.load(sys.stdin):
    config = parse_config(text)
    op = build_operator(config)
    form = op.basis.on(grid(config.grid_points))
    estimates.append(estimate_operator_norm(op, form, seed=config.seed + 1).hex())
print(json.dumps(estimates))
"""


class TestNormCheckResources:
    def test_same_bits_on_one_and_two_blas_threads(self):
        # The norm check's matrix products run through BLAS, whose thread
        # count changes the eigenvalues at n = 500 (README); it must not
        # change the estimate of the five largest configs.
        texts = [config["text"] for config in output_diff_tool().largest_configs()]
        estimates = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(operators.__file__).parent.parent),
                   **{var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")}}
            run = subprocess.run([sys.executable, "-c", _NORM_ESTIMATE_CHILD],
                                 input=json.dumps(texts), env=env, capture_output=True,
                                 text=True, timeout=300)
            assert (run.returncode, run.stderr) == (0, "")
            estimates.append(json.loads(run.stdout))
        assert len(estimates[0]) == 5
        assert estimates[0] == estimates[1]

    def test_peak_memory_on_kantorovich_499(self):
        # 2,358,078 bytes was the check's peak on Kantorovich 499's 16,000
        # nodes when it evaluated every trial on the nodes and the grid, one
        # trial per block; the dictionary may add at most one block.
        op = kantorovich_operator(499)
        estimate_operator_norm(op, op.default_values)
        tracemalloc.start()
        try:
            estimate_operator_norm(op, op.default_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_358_078 + 8 * operators.TRIAL_BLOCK_VALUES

    def test_no_dictionary_on_the_whole_of_a_fine_grid(self):
        # The 23 dictionary rows on 100001 points would take 18.4 MB; the
        # check holds less than that in all.
        op = bernstein_operator(4)
        xs = grid(100001)
        values = op.basis.on(xs)
        tracemalloc.start()
        try:
            estimate_operator_norm(op, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dictionary(xs[:1]).shape[0] * xs.size


class TestConstantReproductionCheck:
    def test_bernstein_tight(self):
        op = bernstein_operator(8)
        result = verify_constant_reproduction(op, op.basis.on(GRID), tol=1e-12)
        assert result.passed

    def test_kantorovich_with_quadrature(self):
        op = kantorovich_operator(5)
        result = verify_constant_reproduction(op, op.basis.on(GRID), tol=1e-10)
        assert result.passed

    def test_scaled_basis_fails(self):
        base = bernstein_operator(3)
        shrunk = dense_basis(lambda xs: 0.99 * base.basis.values(xs), base.basis.n,
                             name="shrunk")
        op = unchecked_operator(shrunk, base.functionals, name="shrunk")
        result = verify_constant_reproduction(op, op.basis.on(GRID), tol=1e-10)
        assert not result.passed
        assert result.value == pytest.approx(0.01, abs=1e-12)


def _bump_image(op, xs=GRID):
    """The bump on ``widest_gap(op)`` and ``Tw`` on ``xs``, from the
    functionals one at a time."""
    w = bump(*widest_gap(op))
    return w, np.array([pairing(op.functionals, w, k) for k in range(op.n)]) @ op.basis.values(xs)


def _witness_detail(op, xs=GRID) -> str:
    """The report's detail for the bump on ``widest_gap(op)``, with
    ``||w||`` over ``xs`` and the bump's two peaks."""
    lo, hi = widest_gap(op)
    on_xs = np.abs(bump(lo, hi)(np.append(xs, bump_peaks(lo, hi))))
    return f"witness odd bump on [{lo:.6g}, {hi:.6g}], ||w||_inf = {on_xs.max():.6g}"


def witness_operators():
    """Operators whose joined nodes lie in every kind of place: equally
    spaced and irregular nodes (300 of them), equal and unequal cells, and
    cells that meet or overlap by up to 1e-12, one of them narrower than the
    overlap, and one cell off the origin. Among the irregular nodes: repeats
    and nodes within 1e-12 of each other; a -0.0 beside 0.0; and a node
    below 0 within the domain slack."""
    nodes = np.sort(np.random.default_rng(4).uniform(size=298))
    hat = make_hat_basis([0.0, 0.5, 1.0])
    hat4 = make_hat_basis([0.0, 0.3, 0.6, 1.0])
    return [
        *catalog_operators(),
        hat_dirac_operator(np.concatenate(([0.0], nodes, [1.0]))),
        OperatorSpec(hat4, in_order(quadrature([0.1, 0.1 + 5e-13], [0.5, 0.5]),
                            dirac(0.3),
                            quadrature([0.6, 0.6 - 4e-13, 0.7, 0.3],
                                                         [0.2, 0.3, 0.4, 0.1]),
                            dirac(1.0)), name="near-duplicates"),
        OperatorSpec(hat, in_order(dirac(0.0),
                           quadrature([-0.0, 0.4], [0.5, 0.5]),
                           dirac(1.0)), name="negative-zero"),
        OperatorSpec(hat, in_order(quadrature([-0.0, 0.4], [0.5, 0.5]),
                           dirac(0.0),
                           dirac(1.0)), name="negative-zero-first"),
        OperatorSpec(hat, in_order(dirac(-1e-13), dirac(0.4),
                           dirac(1.0)), name="below-zero"),
        OperatorSpec(hat, in_order(average(0.0, 0.3),
                           average(0.3 - 1e-12, 0.55),
                           average(0.55 - 5e-13, 1.0)), name="overlap"),
        OperatorSpec(hat, in_order(average(0.0, 0.5),
                           average(0.5, 0.8),
                           average(0.8, 1.0)), name="touch"),
        OperatorSpec(hat, in_order(average(0.0, 0.5),
                           average(0.5 - 9e-13, 0.5 - 8e-13),
                           average(0.5 + 1e-13, 1.0)), name="nested"),
        OperatorSpec(hat, in_order(average(0.7, 1.0),
                           average(0.1, 0.4),
                           average(0.4 - 1e-12, 0.7)), name="gaps"),
        OperatorSpec(make_bspline_basis([0.0, 1.0], 0),
                     average(0.25, 0.75), name="one-cell"),
    ]


#: The well-formed configs of the benchmark pools and the kernel-witness
#: configs of ``tools/output_diff.py``.
WITNESS_CONFIGS = well_formed_configs("witness")


class TestKernelWitness:
    @pytest.mark.parametrize("points", [11, 1001, 20001])
    @pytest.mark.parametrize("op", witness_operators(), ids=lambda o: o.name)
    def test_bump_vanishes_at_every_node(self, op, points):
        # The bump on the widest gap is exactly 0 at every joined node, so
        # every functional gives exactly 0 on it and the residual is 0.0;
        # its halves cancel over every cell; its peaks, after the grid, give
        # it norm one on any grid.
        xs = grid(points)
        w, image_of_w = _bump_image(op, xs)
        assert np.all(w(op.functionals.nodes) == 0.0)
        assert all(pairing(op.functionals, w, k) == 0.0 for k in range(op.n))
        assert all(v == 0.0 for v in cell_integrals(op, w, bump_breakpoints(*widest_gap(op))))
        assert np.max(np.abs(image_of_w)) == 0.0
        result = kernel_witness_report(op, op.basis.on(xs))
        assert result.passed and result.value == 0.0
        assert result.threshold == WITNESS_RESIDUAL_TOL
        assert result.detail == _witness_detail(op, xs)
        assert result.detail.endswith(", ||w||_inf = 1")

    @pytest.mark.parametrize("name", WITNESS_CONFIGS)
    def test_bump_vanishes_on_every_rule_and_cell_of_the_configs(self, name):
        # Each rule gives exactly 0 on the bump, and so does each exact cell
        # average: the trapezoid rule over the bump's breakpoints is exact
        # for a piecewise-linear function. Mixed kinds are still refused.
        config = parse_config(WITNESS_CONFIGS[name])
        op = build_operator(config)
        lo, hi = widest_gap(op)
        w = bump(lo, hi)
        assert all(pairing(op.functionals, w, k) == 0.0 for k in range(op.n))
        assert all(v == 0.0 for v in cell_integrals(op, w, bump_breakpoints(lo, hi)))
        xs = grid(config.grid_points)
        result = kernel_witness_report(op, op.basis.on(xs))
        average = op.functionals.kinds == AVERAGE
        if average.any() and not average.all():
            assert not result.passed and result.value is None
        else:
            assert result.passed and result.value == 0.0
            assert result.detail == _witness_detail(op, xs)

    def test_bernstein2_witness_is_the_bump_on_the_first_half(self):
        # Nodes 0, 1/2, 1: both gaps are widest, and the first is taken.
        op = bernstein_operator(2)
        assert widest_gap(op) == (0.0, 0.5)
        result = kernel_witness_report(op, op.basis.on(GRID))
        assert result.detail == "witness odd bump on [0, 0.5], ||w||_inf = 1"

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_witness_annihilated(self, op):
        w, image_of_w = _bump_image(op)
        assert np.abs(w(np.append(GRID, bump_peaks(*widest_gap(op))))).max() >= 0.5
        assert np.max(np.abs(image_of_w)) == 0.0
        result = kernel_witness_report(op, op.basis.on(GRID))
        assert result.passed and result.value == 0.0

    def test_irregular_nodes_bump_on_the_widest_gap(self):
        op = hat_dirac_operator([0.0, 0.13, 0.55, 0.97, 1.0])
        result = kernel_witness_report(op, op.basis.on(GRID))
        assert result.detail == "witness odd bump on [0.13, 0.55], ||w||_inf = 1"
        assert result.passed and result.value == 0.0
        assert np.max(np.abs(_bump_image(op)[1])) == 0.0

    def test_report_flags_not_constructible(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = in_order(dirac(0.0), average(0.25, 0.75),
                 dirac(1.0))
        op = OperatorSpec(basis, funcs, name="mixed")
        result = kernel_witness_report(op, op.basis.on(GRID))
        assert not result.passed and result.value is None
        assert result.threshold == WITNESS_RESIDUAL_TOL
        assert result.detail == ("mixed: no analytic kernel witness for mixed functional "
                                 "kinds ['DiracFunctional', 'IntervalAverageFunctional']")

    def test_witness_that_does_not_vanish_fails_with_its_residual(self):
        # Functionals that add 1e-9 to every coefficient: Tw is 1e-9 times
        # the basis' column sums, 1e-9 on a partition of unity.
        op = bernstein_operator(4)
        fs = op.functionals
        shifted = SimpleNamespace(nodes=fs.nodes, kinds=fs.kinds, a=fs.a, b=fs.b,
                                  apply=lambda values: fs.apply(values) + 1e-9)
        broken = unchecked_operator(op.basis, shifted, name="shifted")
        result = kernel_witness_report(broken, op.basis.on(GRID))
        assert not result.passed
        assert result.value == pytest.approx(1e-9, rel=1e-12)
        assert result.detail == _witness_detail(op)

    def test_unequal_disjoint_averages_have_a_witness(self):
        basis = make_hat_basis([0.0, 1.0])
        funcs = in_order(average(0.0, 0.3),
                 average(0.3, 1.0))
        op = OperatorSpec(basis, funcs, name="lopsided")
        assert np.max(np.abs(_bump_image(op)[1])) == 0.0
        result = kernel_witness_report(op, op.basis.on(GRID))
        assert result.passed and result.value == 0.0
        assert result.detail == _witness_detail(op)

    def test_overlapping_averages_have_a_witness(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = in_order(average(0.0, 0.6),
                 average(0.4, 1.0),
                 average(0.0, 1.0))
        op = OperatorSpec(basis, funcs, name="overlap")
        result = kernel_witness_report(op, op.basis.on(GRID))
        assert result.passed and result.value == 0.0
        assert result.detail.startswith("witness odd bump on [")


class TestPowers:
    """``T^m f`` through the coefficient recursion ``a <- M a``."""

    def test_constant_is_fixed_point(self):
        for op in (bernstein_operator(3), kantorovich_operator(2)):
            matrix = build_collocation_matrix(op).entries
            coeffs = coefficient_vector(op, one)
            for _ in range(6):
                coeffs = matrix @ coeffs
            vals = coeffs @ op.basis.values(GRID)
            assert np.max(np.abs(vals - 1.0)) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_power_consistency(self, m):
        # a(T g) = M a(g): stepping the coefficients once equals taking the
        # coefficients of the image as a function.
        op = kantorovich_operator(3)
        matrix = build_collocation_matrix(op).entries
        coeffs = coefficient_vector(op, random_function_oracle(np.random.default_rng(23)))
        for _ in range(m - 1):
            coeffs = matrix @ coeffs
        stepped = coefficient_vector(op, lambda xs: coeffs @ op.basis.values(xs))
        assert np.max(np.abs(stepped - matrix @ coeffs)) <= 1e-12

    def test_kantorovich1_coefficient_recursion(self):
        # f with cell averages (1, 0); one step of M maps it to (0.75, 0.25).
        op = kantorovich_operator(1)
        coeffs = coefficient_vector(op, lambda xs: np.interp(xs, [0.0, 0.5, 1.0],
                                                             [2.0, 0.0, 0.0]))
        nptest.assert_allclose(coeffs, [1.0, 0.0], atol=1e-14)
        nptest.assert_allclose(build_collocation_matrix(op).entries @ coeffs, [0.75, 0.25],
                               atol=1e-14)
