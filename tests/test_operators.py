"""Operators: assembly, application, lemma checks, kernel witnesses."""

from __future__ import annotations

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec.bases import BasisSystem, clamped_knots, make_bernstein_basis, make_hat_basis
from pouspec.errors import ConfigError, NotConstructibleError
from pouspec.functionals import (DiracFunctional, IntervalAverageFunctional,
                                 WeightedQuadratureFunctional,
                                 make_kantorovich_functionals)
from pouspec.functions import ONE, SampledFunction, monomial, random_function, \
    scaled, sine_wave
from pouspec.operators import (OperatorSpec, apply_adjoint, apply_operator,
                               bernstein_operator, coefficient_vector,
                               estimate_operator_norm, greville_abscissae,
                               hat_dirac_operator, kantorovich_operator,
                               kernel_witness, kernel_witness_report,
                               operator_power_apply, schoenberg_operator,
                               verify_adjoint_identity,
                               verify_constant_reproduction, verify_norm_bound,
                               verify_positivity)

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
                             base.basis.domain, name="shrunk")
        with pytest.raises(ConfigError):
            OperatorSpec(shrunk, base.functionals)

    def test_validation_rejects_denormalized_functional(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = WeightedQuadratureFunctional([0.3], [0.9])
        with pytest.raises(ConfigError):
            OperatorSpec(basis, (DiracFunctional(0.0), bad))

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
        result = verify_positivity(op, GRID, trials=100, tol=1e-10, seed=3)
        assert result.passed, result

    def test_doctored_negative_weight_fails(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = WeightedQuadratureFunctional([0.2, 0.8], [1.5, -0.5])
        op = OperatorSpec(basis, (DiracFunctional(0.0), bad), name="doctored",
                          validate=False)
        result = verify_positivity(op, GRID, trials=100, tol=1e-10, seed=3)
        assert not result.passed

    def test_norm_includes_constant_witness(self):
        op = bernstein_operator(5)
        estimate = estimate_operator_norm(op, GRID, trials=10, seed=0)
        assert 1.0 - 1e-12 <= estimate <= 1.0 + 1e-10

    def test_full_sine_has_zero_ratio(self):
        op = bernstein_operator(2)
        tf = apply_operator(op, sine_wave(1.0))
        assert tf.sup_norm(GRID) <= 1e-14

    def test_kantorovich_norm_bound(self):
        estimate = estimate_operator_norm(kantorovich_operator(4), GRID, trials=200, seed=7)
        assert 0.5 <= estimate <= 1.0 + 1e-10

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_norm_check(self, op):
        result = verify_norm_bound(op, GRID, trials=60, seed=5)
        assert result.passed, result

    @pytest.mark.parametrize("op", catalog_operators()[:4], ids=lambda o: o.name)
    def test_rank_bound(self, op):
        # Images of 2n random functions span at most n directions.
        rng = np.random.default_rng(17)
        rows = [apply_operator(op, random_function(rng)).values(GRID)
                for _ in range(2 * op.n)]
        sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
        assert sv[op.n:].max(initial=0.0) <= 1e-8 * sv[0]


class TestConstantReproductionCheck:
    def test_bernstein_tight(self):
        result = verify_constant_reproduction(bernstein_operator(8), GRID, tol=1e-12)
        assert result.passed

    def test_kantorovich_with_quadrature(self):
        result = verify_constant_reproduction(kantorovich_operator(5), GRID, tol=1e-10)
        assert result.passed

    def test_scaled_basis_fails(self):
        base = bernstein_operator(3)
        shrunk = BasisSystem(lambda xs: 0.99 * base.basis.values(xs), base.basis.n,
                             base.basis.domain, name="shrunk")
        op = OperatorSpec(shrunk, base.functionals, name="shrunk", validate=False)
        result = verify_constant_reproduction(op, GRID, tol=1e-10)
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
        result = kernel_witness_report(op, GRID)
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
