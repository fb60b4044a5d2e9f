"""Operators: assembly, application, lemma checks, kernel witnesses."""

from __future__ import annotations

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec.bases import (BasisSystem, clamped_knots, make_bernstein_basis,
                           make_bspline_basis, make_hat_basis)
from pouspec.errors import ConfigError, DomainError, NotConstructibleError
from pouspec.functionals import (DiracFunctional, IntervalAverageFunctional,
                                 WeightedQuadratureFunctional,
                                 make_kantorovich_functionals)
from pouspec.functions import ONE, DrawnTestFunctions, Function, SampledFunction, \
    draw_test_functions, grid, monomial, random_function, scaled, sine_wave
from pouspec.operators import (OperatorSpec, apply_adjoint, apply_operator,
                               bernstein_operator, coefficient_vector,
                               estimate_operator_norm, greville_abscissae,
                               hat_dirac_operator, kantorovich_operator,
                               kernel_witness, kernel_witness_report,
                               operator_power_apply, schoenberg_operator,
                               verify_adjoint_identity,
                               verify_constant_reproduction, verify_norm_bound,
                               verify_positivity)

from helpers import norm_estimate_oracle, positivity_oracle

GRID = np.linspace(0.0, 1.0, 1001)


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
            OperatorSpec(basis, (DiracFunctional(0.0),), name="short")

    def test_validation_rejects_scaled_basis(self):
        base = bernstein_operator(2)
        shrunk = BasisSystem(lambda xs: 0.9 * base.basis.values(xs), base.basis.n,
                             name="shrunk")
        with pytest.raises(ConfigError):
            OperatorSpec(shrunk, base.functionals)

    def test_validation_rejects_denormalized_functional(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = WeightedQuadratureFunctional([0.3], [0.9])
        with pytest.raises(ConfigError):
            OperatorSpec(basis, (DiracFunctional(0.0), bad))

    def test_validation_names_first_functional_outside_domain(self):
        funcs = (DiracFunctional(0.0), DiracFunctional(1.5), DiracFunctional(-0.5))
        with pytest.raises(DomainError) as err:
            OperatorSpec(make_hat_basis([0.0, 0.5, 1.0]), funcs, name="far")
        assert str(err.value) == "far: functional 1 (dirac(1.5)): x=1.5 outside domain [0.0, 1.0]"

    @pytest.mark.parametrize("bad_first, error", [
        ("mass", ConfigError), ("domain", DomainError),
    ])
    def test_validation_checks_functionals_in_order(self, bad_first, error):
        # Functional k's nodes, then its mass, in order of k: the first
        # faulty functional decides which error is raised.
        denormalized = WeightedQuadratureFunctional([0.3], [0.9])
        outside = DiracFunctional(1.5)
        funcs = (denormalized, outside) if bad_first == "mass" else (outside, denormalized)
        with pytest.raises(error, match="functional 0 "):
            OperatorSpec(make_hat_basis([0.0, 1.0]), funcs)

    def test_validate_false_allows_doctored(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = WeightedQuadratureFunctional([0.2, 0.8], [1.3, -0.3])
        op = OperatorSpec(basis, (DiracFunctional(0.0), bad), name="doctored",
                          validate=False)
        assert op.n == 2

    def test_greville_abscissae(self):
        knots = clamped_knots([0.0, 0.5, 1.0], 2)
        nptest.assert_allclose(greville_abscissae(knots, 2), [0.0, 0.25, 0.75, 1.0])

    def test_schoenberg_degree_one_is_nodal(self):
        op = schoenberg_operator(clamped_knots([0.0, 0.5, 1.0], 1), 1)
        xs = np.array([f.x for f in op.functionals])
        nptest.assert_allclose(xs, [0.0, 0.5, 1.0])


def _joined_rule_parts():
    """(basis, functionals) of Kantorovich n = 7, a hat basis with cell
    averages, and a hat basis with mixed Dirac/quadrature functionals."""
    pts = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    edges = np.concatenate(([0.0], (pts[:-1] + pts[1:]) / 2.0, [1.0]))
    return {
        "kantorovich-7": (make_bernstein_basis(7), make_kantorovich_functionals(7)),
        "hat-average": (make_hat_basis(pts),
                        tuple(IntervalAverageFunctional(a, b)
                              for a, b in zip(edges, edges[1:]))),
        "dirac-quadrature": (make_hat_basis([0.0, 0.5, 1.0]),
                             (DiracFunctional(0.0),
                              WeightedQuadratureFunctional([0.4, 0.5, 0.6],
                                                           [0.25, 0.5, 0.25]),
                              DiracFunctional(1.0))),
    }


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("parts", ["kantorovich-7", "hat-average", "dirac-quadrature"])
class TestJoinedRule:
    def test_joined_arrays_concatenate_functionals(self, parts, validate):
        basis, funcs = _joined_rule_parts()[parts]
        op = OperatorSpec(basis, funcs, validate=validate)
        nptest.assert_array_equal(op.nodes, np.concatenate([a.nodes for a in funcs]))
        nptest.assert_array_equal(op.weights, np.concatenate([a.weights for a in funcs]))
        sizes = [a.nodes.size for a in funcs]
        nptest.assert_array_equal(op.starts, np.cumsum([0] + sizes[:-1]))
        for array in (op.nodes, op.weights, op.starts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_same_parts_compare_equal(self, parts, validate):
        basis, funcs = _joined_rule_parts()[parts]
        first = OperatorSpec(basis, funcs, name="op", validate=validate)
        second = OperatorSpec(basis, funcs, name="op", validate=validate)
        assert first == second
        assert hash(first) == hash(second)
        assert repr(first) == f"OperatorSpec(basis={basis!r}, functionals={funcs!r}, name='op')"

    def test_coefficient_vector_matches_functionals(self, parts, validate):
        basis, funcs = _joined_rule_parts()[parts]
        op = OperatorSpec(basis, funcs, validate=validate)
        rng = np.random.default_rng(11)
        for f in (ONE, monomial(3), random_function(rng), random_function(rng)):
            nptest.assert_allclose(coefficient_vector(op, f), [a(f) for a in funcs],
                                   rtol=0, atol=1e-14)


class TestApplication:
    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_reproduces_constants(self, op):
        vals = apply_operator(op, ONE).values(GRID)
        assert np.max(np.abs(vals - 1.0)) <= 1e-12

    def test_bernstein2_reproduces_linear(self):
        op = bernstein_operator(2)
        vals = apply_operator(op, monomial(1)).values(GRID)
        assert np.max(np.abs(vals - GRID)) <= 1e-12

    def test_bernstein2_annihilates_full_sine(self):
        # sin(2 pi x) vanishes at the nodes 0, 1/2, 1.
        op = bernstein_operator(2)
        vals = apply_operator(op, sine_wave(1.0)).values(GRID)
        assert np.max(np.abs(vals)) <= 1e-14

    def test_coefficients_ride_along(self):
        op = bernstein_operator(2)
        result = apply_operator(op, monomial(1))
        nptest.assert_allclose(result.coefficients, [0.0, 0.5, 1.0], atol=1e-15)


class TestAdjoint:
    def test_dirac_dual_equals_point_value(self):
        op = bernstein_operator(3)
        f = monomial(2)
        tf = apply_operator(op, f)
        for x0 in (0.0, 0.37, 1.0):
            assert apply_adjoint(op, DiracFunctional(x0), f) == \
                pytest.approx(tf(x0), abs=1e-14)

    def test_bernstein2_linear_at_half(self):
        # T reproduces linears, so dual = point mass at 1/2 gives 1/2.
        assert apply_adjoint(bernstein_operator(2), DiracFunctional(0.5),
                             monomial(1)) == pytest.approx(0.5, abs=1e-14)

    def test_unit_maps_to_one(self):
        op = kantorovich_operator(3)
        dual = IntervalAverageFunctional(0.2, 0.9)
        assert apply_adjoint(op, dual, ONE) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_adjoint_identity_check(self, op):
        result = verify_adjoint_identity(op, pairs=50, tol=1e-10, seed=11)
        assert result.passed, result


class TestPositivityAndNorm:
    def test_kantorovich_positive_on_square(self):
        op = kantorovich_operator(3)
        vals = apply_operator(op, monomial(2)).values(GRID)
        assert vals.min() >= 0.0

    def test_zero_maps_to_zero(self):
        op = bernstein_operator(4)
        coeffs = coefficient_vector(op, scaled(ONE, 0.0))
        nptest.assert_array_equal(coeffs, np.zeros(5))

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_positivity_check(self, op):
        result = verify_positivity(op, GRID, op.basis.values(GRID), trials=100, tol=1e-10, seed=3)
        assert result.passed, result

    def test_doctored_negative_weight_fails(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = WeightedQuadratureFunctional([0.2, 0.8], [1.5, -0.5])
        op = OperatorSpec(basis, (DiracFunctional(0.0), bad), name="doctored",
                          validate=False)
        result = verify_positivity(op, GRID, op.basis.values(GRID), trials=100, tol=1e-10, seed=3)
        assert not result.passed

    def test_norm_includes_constant_witness(self):
        op = bernstein_operator(5)
        estimate = estimate_operator_norm(op, GRID, op.basis.values(GRID), trials=10, seed=0)
        assert 1.0 - 1e-12 <= estimate <= 1.0 + 1e-10

    def test_full_sine_has_zero_ratio(self):
        op = bernstein_operator(2)
        tf = apply_operator(op, sine_wave(1.0))
        assert tf.sup_norm(GRID) <= 1e-14

    def test_kantorovich_norm_bound(self):
        op = kantorovich_operator(4)
        estimate = estimate_operator_norm(op, GRID, op.basis.values(GRID), trials=200, seed=7)
        assert 0.5 <= estimate <= 1.0 + 1e-10

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_norm_check(self, op):
        result = verify_norm_bound(op, GRID, op.basis.values(GRID), trials=60, seed=5)
        assert result.passed, result

    @pytest.mark.parametrize("op", catalog_operators()[:4], ids=lambda o: o.name)
    def test_rank_bound(self, op):
        # Images of 2n random functions span at most n directions.
        rng = np.random.default_rng(17)
        rows = [apply_operator(op, random_function(rng)).values(GRID)
                for _ in range(2 * op.n)]
        sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
        assert sv[op.n:].max(initial=0.0) <= 1e-8 * sv[0]


def block_check_operators():
    """Every catalog kind, a hat basis with cell averages, a crossed-Dirac
    derangement, mixed Dirac/average functionals, cell averages on a
    B-spline basis (whose values come out F-ordered), and a doctored
    operator with zero weights."""
    hat_nodes = [0.0, 0.15, 0.4, 0.75, 1.0]
    edges = np.concatenate(([0.0], np.convolve(hat_nodes, [0.5, 0.5], "valid"), [1.0]))
    averages = tuple(IntervalAverageFunctional(a, b) for a, b in zip(edges, edges[1:]))
    knots = clamped_knots([0.0, 0.3, 0.55, 1.0], 3)
    spline_edges = np.linspace(0.0, 1.0, 7)
    return [
        bernstein_operator(7),
        kantorovich_operator(6),
        schoenberg_operator(knots, 3),
        hat_dirac_operator(hat_nodes),
        OperatorSpec(make_hat_basis(hat_nodes), averages, name="hat-average"),
        OperatorSpec(make_hat_basis(hat_nodes),
                     tuple(DiracFunctional(x) for x in np.roll(hat_nodes, 2)),
                     name="custom-swap"),
        OperatorSpec(make_hat_basis(hat_nodes),
                     tuple(DiracFunctional(x) if k % 2 == 0 else a
                           for k, (x, a) in enumerate(zip(hat_nodes, averages))),
                     name="custom-mixed"),
        OperatorSpec(make_bspline_basis(knots, 3),
                     tuple(IntervalAverageFunctional(a, b)
                           for a, b in zip(spline_edges, spline_edges[1:])),
                     name="bspline-average"),
        # T = 0: every test function ties at the minimum 0.
        OperatorSpec(make_hat_basis([0.0, 1.0]),
                     (WeightedQuadratureFunctional([0.5], [0.0]),) * 2,
                     name="zero-weights", validate=False),
    ]


class TestBlockChecks:
    """The positivity and norm checks, run on blocks of test functions,
    against the same checks run one function at a time."""

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
        values = op.basis.values(xs)
        assert verify_positivity(op, xs, values, trials=trials, seed=points) == \
            positivity_oracle(op, xs, values, trials=trials, seed=points)
        assert estimate_operator_norm(op, xs, values, trials=trials, seed=points + 1) == \
            norm_estimate_oracle(op, xs, values, trials=trials, seed=points + 1)

    def test_checks_make_no_single_function_evaluation(self, monkeypatch):
        calls = []
        values = Function.values
        monkeypatch.setattr(Function, "values",
                            lambda self, xs: calls.append(self.name) or values(self, xs))
        op = kantorovich_operator(4)
        basis_values = op.basis.values(GRID)
        verify_positivity(op, GRID, basis_values)
        estimate_operator_norm(op, GRID, basis_values)
        verify_norm_bound(op, GRID, basis_values)
        assert calls == []

    def test_only_the_reported_trial_is_built(self, monkeypatch):
        built = []
        function = DrawnTestFunctions.function
        monkeypatch.setattr(DrawnTestFunctions, "function",
                            lambda self, i: built.append(i) or function(self, i))
        op = kantorovich_operator(4)
        basis_values = op.basis.values(GRID)
        result = verify_positivity(op, GRID, basis_values, seed=5)
        draw = draw_test_functions(np.random.default_rng(5), 100, nonnegative=True)
        assert len(built) == 1
        assert result.detail.endswith(f"at f = {function(draw, built[0]).name}")
        estimate_operator_norm(op, GRID, basis_values)
        assert len(built) == 1

    @pytest.mark.parametrize("check, context", [
        (verify_positivity, "positivity check"),
        (estimate_operator_norm, "norm-estimate check"),
        (verify_constant_reproduction, "constant-reproduction check"),
        (kernel_witness_report, "kernel-witness check"),
    ], ids=["positivity", "norm-estimate", "constant-reproduction", "kernel-witness"])
    def test_node_outside_domain_names_check_operator_and_functional(self, check, context):
        funcs = (DiracFunctional(0.0),
                 WeightedQuadratureFunctional([0.5, 1.25, 1.5], [0.2, 0.4, 0.4]),
                 DiracFunctional(1.5))
        op = OperatorSpec(make_hat_basis([0.0, 0.5, 1.0]), funcs, name="doctored",
                          validate=False)
        with pytest.raises(DomainError) as err:
            check(op, GRID, op.basis.values(GRID))
        assert str(err.value) == (f"{context}, doctored: functional 1 (quad(3 nodes)): "
                                  f"x=1.25 outside domain [0.0, 1.0]")

    def test_norm_grid_outside_domain_rejected(self):
        op = bernstein_operator(2)
        xs = np.array([0.0, 0.5, 1.5])
        with pytest.raises(DomainError, match=r"^norm-estimate check grid: x=1.5 outside"):
            estimate_operator_norm(op, xs, op.basis.values(np.array([0.0, 0.5, 1.0])))


class TestConstantReproductionCheck:
    def test_bernstein_tight(self):
        op = bernstein_operator(8)
        result = verify_constant_reproduction(op, GRID, op.basis.values(GRID), tol=1e-12)
        assert result.passed

    def test_kantorovich_with_quadrature(self):
        op = kantorovich_operator(5)
        result = verify_constant_reproduction(op, GRID, op.basis.values(GRID), tol=1e-10)
        assert result.passed

    def test_scaled_basis_fails(self):
        base = bernstein_operator(3)
        shrunk = BasisSystem(lambda xs: 0.99 * base.basis.values(xs), base.basis.n,
                             name="shrunk")
        op = OperatorSpec(shrunk, base.functionals, name="shrunk", validate=False)
        result = verify_constant_reproduction(op, GRID, op.basis.values(GRID), tol=1e-10)
        assert not result.passed
        assert result.value == pytest.approx(0.01, abs=1e-12)


class TestKernelWitness:
    def test_bernstein2_witness_is_full_sine(self):
        w = kernel_witness(bernstein_operator(2), GRID)
        xs = np.linspace(0, 1, 101)
        nptest.assert_allclose(w.values(xs), np.sin(2 * np.pi * xs), atol=1e-12)

    def test_kantorovich1_witness_frequency(self):
        w = kernel_witness(kantorovich_operator(1), GRID)
        xs = np.linspace(0, 1, 101)
        nptest.assert_allclose(w.values(xs), np.sin(4 * np.pi * xs), atol=1e-12)

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_witness_annihilated(self, op):
        w = kernel_witness(op, GRID)
        assert w.sup_norm(GRID) >= 0.5
        assert apply_operator(op, w).sup_norm(GRID) <= 1e-10

    def test_irregular_nodes_use_product_construction(self):
        op = hat_dirac_operator([0.0, 0.13, 0.55, 0.97, 1.0])
        w = kernel_witness(op, GRID)
        assert w.sup_norm(GRID) >= 0.5
        assert apply_operator(op, w).sup_norm(GRID) <= 1e-10

    def test_mixed_kinds_not_constructible(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = (DiracFunctional(0.0), IntervalAverageFunctional(0.25, 0.75),
                 DiracFunctional(1.0))
        op = OperatorSpec(basis, funcs, name="mixed")
        with pytest.raises(NotConstructibleError):
            kernel_witness(op, GRID)

    def test_report_flags_not_constructible(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = (DiracFunctional(0.0), IntervalAverageFunctional(0.25, 0.75),
                 DiracFunctional(1.0))
        op = OperatorSpec(basis, funcs, name="mixed")
        result = kernel_witness_report(op, GRID, op.basis.values(GRID))
        assert not result.passed and result.value is None
        assert "mixed" in result.detail

    def test_unequal_disjoint_averages_cellwise(self):
        basis = make_hat_basis([0.0, 1.0])
        funcs = (IntervalAverageFunctional(0.0, 0.3),
                 IntervalAverageFunctional(0.3, 1.0))
        op = OperatorSpec(basis, funcs, name="lopsided")
        w = kernel_witness(op, GRID)
        assert w.sup_norm(GRID) >= 0.5
        assert apply_operator(op, w).sup_norm(GRID) <= 1e-10

    def test_overlapping_averages_not_constructible(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = (IntervalAverageFunctional(0.0, 0.6),
                 IntervalAverageFunctional(0.4, 1.0),
                 IntervalAverageFunctional(0.0, 1.0))
        op = OperatorSpec(basis, funcs, name="overlap")
        with pytest.raises(NotConstructibleError):
            kernel_witness(op, GRID)


class TestPowers:
    def test_power_one_equals_apply(self):
        op = kantorovich_operator(2)
        f = monomial(2)
        a = apply_operator(op, f).values(GRID)
        b = operator_power_apply(op, f, 1).values(GRID)
        assert np.max(np.abs(a - b)) <= 1e-14

    def test_constant_is_fixed_point(self):
        for op in (bernstein_operator(3), kantorovich_operator(2)):
            vals = operator_power_apply(op, ONE, 7).values(GRID)
            assert np.max(np.abs(vals - 1.0)) <= 1e-10

    def test_kantorovich1_coefficient_recursion(self):
        # f with cell averages (1, 0); one step of M maps it to (0.75, 0.25).
        op = kantorovich_operator(1)
        f = SampledFunction([0.0, 0.5, 1.0], [2.0, 0.0, 0.0])
        nptest.assert_allclose(coefficient_vector(op, f), [1.0, 0.0], atol=1e-14)
        squared = operator_power_apply(op, f, 2)
        nptest.assert_allclose(squared.coefficients, [0.75, 0.25], atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_power_consistency(self, m):
        op = kantorovich_operator(3)
        rng = np.random.default_rng(23)
        f = random_function(rng)
        stepped = apply_operator(op, operator_power_apply(op, f, m)).values(GRID)
        direct = operator_power_apply(op, f, m + 1).values(GRID)
        assert np.max(np.abs(stepped - direct)) <= 1e-12

    def test_rejects_power_zero(self):
        with pytest.raises(ConfigError):
            operator_power_apply(bernstein_operator(2), ONE, 0)
