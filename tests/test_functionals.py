"""Functionals: quadrature engine, the three kinds, normalization checks."""

from __future__ import annotations

import numpy as np
import numpy.testing as nptest
import pytest

from helpers import bernstein_antiderivative

from pouspec.errors import ConfigError, DomainError
from pouspec.functionals import (DiracFunctional, IntervalAverageFunctional,
                                 WeightedQuadratureFunctional,
                                 check_functional_normalization,
                                 integrate_gauss_legendre,
                                 make_kantorovich_functionals)
from pouspec.functions import (ClosedForm, ONE, exponential, monomial,
                               random_function)
from pouspec.bases import make_bernstein_basis


class TestGaussLegendre:
    def test_constant(self):
        assert integrate_gauss_legendre(ONE, 0.0, 1.0, order=2, panels=1) == \
            pytest.approx(1.0, abs=1e-15)

    def test_cubic_exact_at_order_two(self):
        assert integrate_gauss_legendre(monomial(3), 0.0, 1.0, order=2, panels=1) == \
            pytest.approx(0.25, abs=1e-15)

    def test_linear_on_half_interval(self):
        assert integrate_gauss_legendre(monomial(1), 0.0, 0.5, order=2, panels=1) == \
            pytest.approx(0.125, abs=1e-15)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(DomainError):
            integrate_gauss_legendre(ONE, 0.7, 0.2)

    def test_rejects_bad_order_and_panels(self):
        with pytest.raises(ConfigError):
            integrate_gauss_legendre(ONE, 0.0, 1.0, order=0)
        with pytest.raises(ConfigError):
            integrate_gauss_legendre(ONE, 0.0, 1.0, panels=0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_panel_doubling_convergence(self, order):
        # Error of the composite rule must shrink by at least
        # 2^(2*order - 1) / 2 per panel doubling until the round-off floor.
        exact = np.e - 1.0
        f = exponential()
        min_factor = 2.0 ** (2 * order - 1) / 2.0
        errors = [abs(integrate_gauss_legendre(f, 0.0, 1.0, order, panels) - exact)
                  for panels in (1, 2, 4, 8, 16, 32)]
        for coarse, fine in zip(errors, errors[1:]):
            if coarse <= 1e-14:
                break
            assert coarse / fine >= min_factor

    def test_order_eight_hits_roundoff(self):
        exact = np.e - 1.0
        err = abs(integrate_gauss_legendre(exponential(), 0.0, 1.0, 8, 4) - exact)
        assert err <= 1e-14


class TestKinds:
    def test_dirac_point_evaluation(self):
        assert DiracFunctional(0.5)(monomial(2)) == 0.25

    def test_interval_average_normalization(self):
        assert IntervalAverageFunctional(0.0, 0.5)(ONE) == pytest.approx(1.0, abs=1e-15)

    def test_interval_average_of_linear(self):
        # 2 * integral_0^0.5 x dx = 0.25 by the antiderivative x^2/2.
        assert IntervalAverageFunctional(0.0, 0.5)(monomial(1)) == \
            pytest.approx(0.25, abs=1e-15)

    def test_interval_average_rejects_empty(self):
        with pytest.raises(ConfigError):
            IntervalAverageFunctional(0.5, 0.5)

    def test_weighted_quadrature(self):
        rule = WeightedQuadratureFunctional([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
        assert rule(monomial(2)) == pytest.approx(0.5 * 0.25 + 0.25 * 1.0)

    def test_weighted_quadrature_shape_validation(self):
        with pytest.raises(ConfigError):
            WeightedQuadratureFunctional([0.1, 0.2], [1.0])
        with pytest.raises(ConfigError):
            WeightedQuadratureFunctional([], [])

    def test_discrete_measure_representation(self):
        dirac = DiracFunctional(0.3)
        nptest.assert_array_equal(dirac.nodes, [0.3])
        nptest.assert_array_equal(dirac.weights, [1.0])
        avg = IntervalAverageFunctional(0.2, 0.6)
        assert avg.nodes.size == 32 and 0.2 < avg.nodes.min() < avg.nodes.max() < 0.6
        assert avg.weights.min() > 0.0
        assert avg.weights.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            avg.weights[0] = 0.0

    def test_dirac_outside_domain_propagates(self):
        with pytest.raises(DomainError):
            DiracFunctional(1.5)(monomial(1))


class TestKantorovich:
    def test_n1_supports(self):
        funcs = make_kantorovich_functionals(1)
        assert len(funcs) == 2
        assert (funcs[0].a, funcs[0].b) == (0.0, 0.5)
        assert (funcs[1].a, funcs[1].b) == (0.5, 1.0)

    def test_n1_normalized(self):
        funcs = make_kantorovich_functionals(1)
        assert funcs[0](ONE) == pytest.approx(1.0, abs=1e-15)

    def test_n2_equal_subdivision(self):
        funcs = make_kantorovich_functionals(2)
        supports = [(f.a, f.b) for f in funcs]
        nptest.assert_allclose(supports, [(0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1)],
                               atol=1e-15)

    def test_rejects_n_zero(self):
        with pytest.raises(ConfigError):
            make_kantorovich_functionals(0)


class TestNormalizationCheck:
    def test_dirac_exact(self):
        result = check_functional_normalization(DiracFunctional(0.3), tol=1e-12)
        assert result.passed and result.value == 0.0

    def test_interval_average_passes(self):
        result = check_functional_normalization(
            IntervalAverageFunctional(0.0, 0.5), tol=1e-12)
        assert result.passed

    def test_denormalized_weights_fail(self):
        rule = WeightedQuadratureFunctional([0.2, 0.8], [0.45, 0.45])
        result = check_functional_normalization(rule, tol=1e-12)
        assert not result.passed
        assert result.value == pytest.approx(0.1, abs=1e-12)

    def test_negative_weight_fails_positivity_probe(self):
        rule = WeightedQuadratureFunctional([0.0, 0.5, 1.0], [0.8, -0.3, 0.5])
        result = check_functional_normalization(rule, tol=1e-12)
        assert not result.passed


class TestInvariants:
    @pytest.mark.parametrize("functional", [
        DiracFunctional(0.0),
        DiracFunctional(0.71),
        IntervalAverageFunctional(0.0, 1.0),
        IntervalAverageFunctional(0.33, 0.34),
        WeightedQuadratureFunctional([0.1, 0.9], [0.5, 0.5]),
        *make_kantorovich_functionals(4),
    ])
    def test_unit_normalization(self, functional):
        assert abs(functional(ONE) - 1.0) <= 1e-12

    @pytest.mark.parametrize("functional", [
        DiracFunctional(0.25),
        IntervalAverageFunctional(0.1, 0.8),
        WeightedQuadratureFunctional([0.0, 0.4, 1.0], [0.2, 0.5, 0.3]),
    ])
    def test_monotonicity(self, functional):
        rng = np.random.default_rng(99)
        for _ in range(40):
            f = random_function(rng)
            bump = random_function(rng, nonnegative=True)
            g = ClosedForm("f+bump", lambda xs, f=f, bump=bump:
                           f.values(xs) + bump.values(xs))
            assert functional(f) <= functional(g) + 1e-12

    def test_bernstein_cell_averages_match_antiderivative(self):
        # Gauss-Legendre (order 8, 4 panels) is exact for the polynomial
        # basis; compare against the closed-form antiderivative oracle.
        for n in range(1, 11):
            basis = make_bernstein_basis(n)
            cells = n + 1
            for k in range(cells):
                a, b = k / cells, (k + 1) / cells
                avg = IntervalAverageFunctional(a, b)
                for j in (0, n // 2, n):
                    e_j = ClosedForm(f"b[{n},{j}]", lambda xs, j=j: basis.values(xs)[j])
                    exact = (bernstein_antiderivative(n, j, b)
                             - bernstein_antiderivative(n, j, a)) / (b - a)
                    assert avg(e_j) == pytest.approx(exact, abs=1e-12)
