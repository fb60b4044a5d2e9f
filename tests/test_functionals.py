"""Functionals: quadrature engine, the three kinds, the joined rule,
normalization checks."""

from __future__ import annotations

import numpy as np
import numpy.testing as nptest
import pytest

from helpers import (apply_rule_by_rule, average, bernstein_antiderivative, dirac,
                     dirac_rule_one_by_one, in_order, interval_average_rule_one_by_one, one,
                     pairing, quadrature, random_function_oracle)

from pouspec.errors import ConfigError
from pouspec.functionals import (AVERAGE, DEFAULT_QUAD_ORDER, DEFAULT_QUAD_PANELS, DIRAC,
                                 QUADRATURE, _gauss_legendre_rule,
                                 check_functional_normalization, dirac_functionals,
                                 interval_average_functionals,
                                 make_kantorovich_functionals, quadrature_functionals)
from pouspec.bases import make_bernstein_basis


class TestGaussLegendre:
    """The composite rule of an interval average: 8 points on each of 4
    panels, exact for polynomials of degree 15 on each panel."""

    def test_constant(self):
        assert pairing(average(0.0, 1.0), one) == \
            pytest.approx(1.0, abs=1e-15)

    def test_cubic_exact(self):
        assert pairing(average(0.0, 1.0), lambda xs: xs ** 3) == \
            pytest.approx(0.25, abs=1e-15)

    def test_linear_on_half_interval(self):
        # The rule itself integrates; the average divides by b - a.
        xs, ws = _gauss_legendre_rule(0.0, 0.5)
        assert ws @ xs == pytest.approx(0.125, abs=1e-15)

    def test_rule_nodes_inside_each_panel(self):
        xs, ws = _gauss_legendre_rule(0.2, 0.6)
        assert xs.size == ws.size == DEFAULT_QUAD_ORDER * DEFAULT_QUAD_PANELS
        panels = xs.reshape(DEFAULT_QUAD_PANELS, DEFAULT_QUAD_ORDER)
        edges = np.linspace(0.2, 0.6, DEFAULT_QUAD_PANELS + 1)
        assert np.all(panels > edges[:-1, None]) and np.all(panels < edges[1:, None])
        assert np.all(np.diff(xs) > 0) and ws.min() > 0.0
        assert ws.sum() == pytest.approx(0.4, abs=1e-15)

    def test_rule_symmetric_about_the_midpoint(self):
        xs, ws = _gauss_legendre_rule(0.0, 1.0)
        nptest.assert_allclose(xs + xs[::-1], 1.0, rtol=0, atol=1e-15)
        nptest.assert_allclose(ws, ws[::-1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("degree", [7, 11, 15])
    def test_exact_on_the_unit_interval(self, degree):
        assert pairing(average(0.0, 1.0), lambda xs: xs ** degree) == \
            pytest.approx(1.0 / (degree + 1), rel=1e-14)

    def test_degree_fifteen_exact_on_a_panel(self):
        # The first of the four panels of [0, 1] is [0, 1/4].
        assert pairing(average(0.0, 0.25), lambda xs: xs ** 15) == \
            pytest.approx(0.25 ** 15 / 16, rel=1e-14)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ConfigError, match=r"requires a < b, got \[0.7, 0.2\]"):
            average(0.7, 0.2)

    def test_order_eight_hits_roundoff(self):
        exact = np.e - 1.0
        err = abs(pairing(average(0.0, 1.0), np.exp) - exact)
        assert err <= 1e-14


class TestKinds:
    def test_dirac_point_evaluation(self):
        assert pairing(dirac(0.5), lambda xs: xs ** 2) == 0.25

    def test_interval_average_normalization(self):
        assert pairing(average(0.0, 0.5), one) == pytest.approx(1.0, abs=1e-15)

    def test_interval_average_of_linear(self):
        # 2 * integral_0^0.5 x dx = 0.25 by the antiderivative x^2/2.
        assert pairing(average(0.0, 0.5), lambda xs: xs) == \
            pytest.approx(0.25, abs=1e-15)

    def test_interval_average_rejects_empty(self):
        with pytest.raises(ConfigError):
            average(0.5, 0.5)

    def test_weighted_quadrature(self):
        rule = quadrature([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
        assert pairing(rule, lambda xs: xs ** 2) == pytest.approx(0.5 * 0.25 + 0.25 * 1.0)

    def test_weighted_quadrature_shape_validation(self):
        with pytest.raises(ConfigError):
            quadrature([0.1, 0.2], [1.0])
        with pytest.raises(ConfigError):
            quadrature([], [])

    def test_discrete_measure_representation(self):
        point = dirac(0.3)
        nptest.assert_array_equal(point.nodes, [0.3])
        nptest.assert_array_equal(point.weights, [1.0])
        avg = average(0.2, 0.6)
        assert avg.nodes.size == 32 and 0.2 < avg.nodes.min() < avg.nodes.max() < 0.6
        assert avg.weights.min() > 0.0
        assert avg.weights.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            avg.weights[0] = 0.0


class TestKantorovich:
    def test_n1_supports(self):
        funcs = make_kantorovich_functionals(1)
        assert funcs.n == 2
        assert (funcs.a[0], funcs.b[0]) == (0.0, 0.5)
        assert (funcs.a[1], funcs.b[1]) == (0.5, 1.0)

    def test_n1_normalized(self):
        funcs = make_kantorovich_functionals(1)
        assert pairing(funcs, one, 0) == pytest.approx(1.0, abs=1e-15)

    def test_n2_equal_subdivision(self):
        funcs = make_kantorovich_functionals(2)
        supports = list(zip(funcs.a, funcs.b))
        nptest.assert_allclose(supports, [(0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1)],
                               atol=1e-15)

    def test_rejects_n_zero(self):
        with pytest.raises(ConfigError):
            make_kantorovich_functionals(0)


def _assert_built_one_by_one(family, rules, kind, **fields):
    """Member ``k`` of ``family`` is of ``kind`` and has the bits of the
    rule ``rules[k] = (nodes, weights, name)`` built on its own, read-only
    arrays and ``fields[attr][k]`` as each further column."""
    assert family.n == len(rules)
    for array in (family.nodes, family.weights, family.starts, family.kinds,
                  family.a, family.b):
        assert not array.flags.writeable
    for k, (nodes, weights, name) in enumerate(rules):
        member_nodes, member_weights = family.rule(k)
        assert family.kinds[k] == kind
        assert member_nodes.tobytes() == nodes.tobytes()
        assert member_weights.tobytes() == weights.tobytes()
        assert member_nodes.shape == member_weights.shape == nodes.shape
        assert family.name(k) == name
        for attr, column in fields.items():
            assert getattr(family, attr)[k] == column[k]


class TestFamilies:
    """A family pass builds each member with the bits of its own rule, and
    so do one-member families joined in order."""

    @pytest.mark.parametrize("n", [*range(1, 31), 499])
    def test_kantorovich_cells_equal_one_by_one(self, n):
        cells = n + 1
        bounds = [(k / cells, (k + 1) / cells) for k in range(cells)]
        _assert_built_one_by_one(make_kantorovich_functionals(n),
                                 [interval_average_rule_one_by_one(a, b) for a, b in bounds],
                                 AVERAGE, a=[a for a, _ in bounds], b=[b for _, b in bounds])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_cells_equal_one_by_one(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=int(rng.integers(1, 60)))
        b = a + rng.uniform(1e-9, 1.0, size=a.size) * rng.choice([1e-6, 1e-3, 1.0], a.size)
        family = interval_average_functionals(a, b)
        _assert_built_one_by_one(family,
                                 [interval_average_rule_one_by_one(p, q) for p, q in zip(a, b)],
                                 AVERAGE, a=a.tolist(), b=b.tolist())
        _assert_built_one_by_one(in_order(*[average(p, q) for p, q in zip(a, b)]),
                                 [interval_average_rule_one_by_one(p, q) for p, q in zip(a, b)],
                                 AVERAGE, a=a.tolist(), b=b.tolist())

    def test_one_cell_family(self):
        family = interval_average_functionals([0.25], [0.75])
        rule = interval_average_rule_one_by_one(0.25, 0.75)
        _assert_built_one_by_one(family, [rule], AVERAGE, a=[0.25], b=[0.75])
        _assert_built_one_by_one(in_order(family, family), [rule, rule], AVERAGE,
                                 a=[0.25, 0.25], b=[0.75, 0.75])

    def test_family_rules_equal_the_rule_of_each_cell(self):
        a = np.linspace(0.0, 0.9, 10)
        xs, ws = _gauss_legendre_rule(a, a + 0.1)
        for k in range(a.size):
            one_xs, one_ws = _gauss_legendre_rule(float(a[k]), float(a[k]) + 0.1)
            assert xs[k].tobytes() == one_xs.tobytes() and ws[k].tobytes() == one_ws.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_diracs_equal_one_by_one(self, seed):
        xs = np.random.default_rng(seed).uniform(size=40)
        xs[:3] = (0.0, -0.0, 1.0)
        rules = [dirac_rule_one_by_one(x) for x in xs]
        _assert_built_one_by_one(dirac_functionals(xs), rules, DIRAC,
                                 a=xs.tolist(), b=xs.tolist())
        _assert_built_one_by_one(in_order(*map(dirac, xs)), rules, DIRAC,
                                 a=xs.tolist(), b=xs.tolist())
        assert np.signbit(dirac_functionals(xs).rule(1)[0][0])

    def test_first_reversed_cell_is_named(self):
        with pytest.raises(ConfigError,
                           match=r"^interval average requires a < b, got \[0.5, 0.4\]$"):
            interval_average_functionals([0.0, 0.5, 0.7], [0.5, 0.4, 0.6])

    def test_members_are_read_only_rows_of_one_array(self):
        family = interval_average_functionals([0.0, 0.5], [0.5, 1.0])
        with pytest.raises(ValueError):
            family.rule(1)[0][0] = 0.0
        assert family.rule(0)[0].base is family.rule(1)[0].base


def _apply_cases():
    """Joined rules of each kind and mixed, with rule sizes 1 to 300 (past
    the 128 terms at which numpy's pairwise summation splits)."""
    rng = np.random.default_rng(5)
    sizes = [1, 2, 3, 8, 9, 17, 129, 300]
    quad = quadrature_functionals([rng.uniform(size=s) for s in sizes],
                                  [rng.dirichlet(np.ones(s)) for s in sizes])
    return {
        "dirac": dirac_functionals(rng.uniform(size=7)),
        "average": make_kantorovich_functionals(5),
        "quadrature": quad,
        "mixed": in_order(average(0.1, 0.4), dirac(0.5), quad, dirac(1.0), average(0.0, 1.0)),
    }


class TestApply:
    """``Functionals.apply``: each member's weighted sum of the values on
    its nodes, with the bits of that rule summed on its own."""

    @pytest.mark.parametrize("rows", [None, 1, 5])
    @pytest.mark.parametrize("case", ["dirac", "average", "quadrature", "mixed"])
    def test_equals_the_rule_by_rule_sum(self, case, rows):
        fs = _apply_cases()[case]
        rng = np.random.default_rng(7)
        shape = (fs.nodes.size,) if rows is None else (rows, fs.nodes.size)
        on_nodes = rng.standard_normal(shape) * rng.choice([1e-8, 1.0, 1e8], shape)
        coeffs = fs.apply(on_nodes)
        assert coeffs.shape == shape[:-1] + (fs.n,)
        assert coeffs.tobytes() == apply_rule_by_rule(fs, on_nodes).tobytes()


class TestNormalizationCheck:
    def test_dirac_exact(self):
        result = check_functional_normalization(dirac(0.3), 0, tol=1e-12)
        assert result.passed and result.value == 0.0

    def test_interval_average_passes(self):
        result = check_functional_normalization(average(0.0, 0.5), 0, tol=1e-12)
        assert result.passed

    def test_denormalized_weights_fail(self):
        rule = quadrature([0.2, 0.8], [0.45, 0.45])
        result = check_functional_normalization(rule, 0, tol=1e-12)
        assert not result.passed
        assert result.value == pytest.approx(0.1, abs=1e-12)

    def test_negative_weight_fails_positivity_probe(self):
        rule = quadrature([0.0, 0.5, 1.0], [0.8, -0.3, 0.5])
        result = check_functional_normalization(rule, 0, tol=1e-12)
        assert not result.passed


class TestInvariants:
    @pytest.mark.parametrize("functional, k", [
        (dirac(0.0), 0),
        (dirac(0.71), 0),
        (average(0.0, 1.0), 0),
        (average(0.33, 0.34), 0),
        (quadrature([0.1, 0.9], [0.5, 0.5]), 0),
        *((make_kantorovich_functionals(4), k) for k in range(5)),
    ], ids=[f"functional{i}" for i in range(10)])
    def test_unit_normalization(self, functional, k):
        assert abs(pairing(functional, one, k) - 1.0) <= 1e-12

    @pytest.mark.parametrize("functional", [
        dirac(0.25),
        average(0.1, 0.8),
        quadrature([0.0, 0.4, 1.0], [0.2, 0.5, 0.3]),
    ])
    def test_monotonicity(self, functional):
        rng = np.random.default_rng(99)
        for _ in range(40):
            f = random_function_oracle(rng)
            bump = random_function_oracle(rng, nonnegative=True)
            assert pairing(functional, f) <= \
                pairing(functional, lambda xs: f(xs) + bump(xs)) + 1e-12

    def test_bernstein_cell_averages_match_antiderivative(self):
        # Gauss-Legendre (order 8, 4 panels) is exact for the polynomial
        # basis; compare against the closed-form antiderivative oracle.
        for n in range(1, 11):
            basis = make_bernstein_basis(n)
            cells = n + 1
            for k in range(cells):
                a, b = k / cells, (k + 1) / cells
                avg = average(a, b)
                for j in (0, n // 2, n):
                    exact = (bernstein_antiderivative(n, j, b)
                             - bernstein_antiderivative(n, j, a)) / (b - a)
                    assert pairing(avg, lambda xs: basis.values(xs)[j]) == \
                        pytest.approx(exact, abs=1e-12)
