"""Basis systems: Bernstein, B-spline, hat; partition of unity checks."""

from __future__ import annotations

import re

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline

from helpers import (bernstein_value, bspline_value, clamped_knots, dense_basis,
                     hat_values, random_breakpoints)

from pouspec.bases import (check_nonnegativity, check_partition_of_unity,
                           make_bernstein_basis, make_bspline_basis, make_hat_basis)
from pouspec.errors import ConfigError
from pouspec.functions import DOMAIN_SLACK
from pouspec.operators import (bernstein_operator, estimate_operator_norm,
                               kernel_witness_report, verify_constant_reproduction,
                               verify_norm_bound, verify_positivity)


class TestBernstein:
    def test_degree_two_at_half(self):
        basis = make_bernstein_basis(2)
        vals = basis.values(np.array([0.5]))[:, 0]
        nptest.assert_allclose(vals, [0.25, 0.5, 0.25], atol=1e-15)

    def test_degree_one_endpoint(self):
        basis = make_bernstein_basis(1)
        vals = basis.values(np.array([0.0]))[:, 0]
        nptest.assert_allclose(vals, [1.0, 0.0], atol=0)

    def test_partition_sum_binomial(self):
        basis = make_bernstein_basis(2)
        assert basis.values(np.array([0.3])).sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_degree_zero(self):
        with pytest.raises(ConfigError):
            make_bernstein_basis(0)

    def test_count(self):
        assert make_bernstein_basis(7).n == 8

    @pytest.mark.parametrize("n", [40, 100, 300, 499])
    def test_high_degree_matches_binomial(self, n):
        basis = make_bernstein_basis(n)
        xs = np.linspace(0, 1, 41)
        for k in (0, 7, n // 2, n):
            expected = [bernstein_value(n, k, x) for x in xs]
            nptest.assert_allclose(basis.values(xs)[k], expected,
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 10, 31])
    def test_points_in_the_slack_read_as_the_ends(self, n):
        # Points within DOMAIN_SLACK outside [0, 1] pass the domain check
        # and read as the nearest end, bit for bit. Read where they are,
        # e_1(-1e-13) of degree 3 is -3e-13, below a nonnegative basis.
        basis = make_bernstein_basis(n)
        outside = basis.values([-1e-13, -0.0, 1 + 1e-13])
        assert outside.tobytes() == basis.values([0.0, 0.0, 1.0]).tobytes()
        assert not np.signbit(outside).any()


@st.composite
def clamped_knots_and_points(draw):
    """A clamped knot vector of degree 0-5 whose interior knots repeat up to
    ``degree + 1`` times, and points: random ones, every knot and its two
    neighbouring doubles, 0, -0.0, 1, and the ends of the domain slack."""
    degree = draw(st.integers(0, 5))
    breaks = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                  max_size=6, unique=True)))
    repeats = draw(st.lists(st.integers(1, degree + 1),
                            min_size=len(breaks), max_size=len(breaks)))
    knots = np.concatenate((np.zeros(degree + 1), np.repeat(breaks, repeats),
                            np.ones(degree + 1)))
    xs = np.concatenate((draw(st.lists(st.floats(0.0, 1.0), max_size=30)), knots,
                         np.nextafter(knots, -1.0), np.nextafter(knots, 2.0),
                         [0.0, -0.0, 1.0, -DOMAIN_SLACK, 1.0 + DOMAIN_SLACK]))
    return knots, degree, xs[(xs >= -DOMAIN_SLACK) & (xs <= 1.0 + DOMAIN_SLACK)]


class TestBSpline:
    def test_degree_zero_indicators(self):
        basis = make_bspline_basis([0.0, 0.5, 1.0], 0)
        assert basis.n == 2
        xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        nptest.assert_allclose(basis.values(xs)[0], [1, 1, 0, 0, 0], atol=0)
        nptest.assert_allclose(basis.values(xs)[1], [0, 0, 1, 1, 1], atol=0)

    def test_degree_one_hats(self):
        knots = clamped_knots([0.0, 0.5, 1.0], 1)
        nptest.assert_allclose(knots, [0.0, 0.0, 0.5, 1.0, 1.0])
        basis = make_bspline_basis(knots, 1)
        hats = make_hat_basis([0.0, 0.5, 1.0])
        xs = np.linspace(0, 1, 201)
        nptest.assert_allclose(basis.values(xs), hats.values(xs), atol=1e-14)

    def test_degree_three_partition_of_unity(self):
        rng = np.random.default_rng(2024)
        bp = random_breakpoints(rng, interior=4)
        basis = make_bspline_basis(clamped_knots(bp, 3), 3)
        sums = basis.values(np.linspace(0, 1, 1000)).sum(axis=0)
        nptest.assert_allclose(sums, 1.0, atol=1e-12)

    def test_rejects_decreasing_knots(self):
        with pytest.raises(ConfigError):
            make_bspline_basis([0.0, 0.0, 0.6, 0.4, 1.0, 1.0], 1)

    def test_rejects_unclamped(self):
        with pytest.raises(ConfigError):
            make_bspline_basis([0.0, 0.25, 0.5, 0.75, 1.0], 2)

    def test_rejects_too_few_knots(self):
        with pytest.raises(ConfigError):
            make_bspline_basis([0.0, 1.0], 1)

    def test_nonnegative_everywhere(self):
        basis = make_bspline_basis(clamped_knots([0.0, 0.2, 0.7, 1.0], 2), 2)
        assert basis.values(np.linspace(0, 1, 500)).min() >= 0.0

    def test_rejects_knots_not_spanning_unit_interval(self):
        with pytest.raises(ConfigError, match="span"):
            make_bspline_basis([0.0, 0.0, 1.0, 2.0, 2.0], 1)

    @pytest.mark.parametrize("degree", range(6))
    def test_matches_cox_de_boor(self, degree):
        # Random clamped knots whose interior knots repeat up to degree + 1
        # times, evaluated on a grid plus every knot, including x = 1.
        rng = np.random.default_rng(500 + degree)
        for _ in range(5):
            interior = np.repeat(np.sort(rng.uniform(0.05, 0.95, size=4)),
                                 rng.integers(1, degree + 2, size=4))
            knots = np.concatenate((np.zeros(degree + 1), interior, np.ones(degree + 1)))
            xs = np.unique(np.concatenate((np.linspace(0, 1, 201), knots)))
            basis = make_bspline_basis(knots, degree)
            expected = np.vstack([bspline_value(knots, i, degree, xs)
                                  for i in range(basis.n)])
            nptest.assert_allclose(basis.values(xs), expected, rtol=0, atol=1e-14)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(clamped_knots_and_points())
    def test_matches_scipy_design_matrix(self, case):
        # Same values, negative zeros and layout as scipy's compiled
        # recurrence. Knots too close for it are rejected, and only those:
        # the points include every knot, so scipy overflows on them.
        knots, degree, xs = case
        expected = BSpline.design_matrix(np.clip(xs, 0.0, 1.0), knots, degree).toarray().T
        try:
            basis = make_bspline_basis(knots, degree)
        except ConfigError as error:
            assert "too close" in str(error) and not np.isfinite(expected).all()
            return
        values = basis.values(xs)
        assert np.array_equal(values, expected)
        assert np.array_equal(np.signbit(values), np.signbit(expected))
        assert values.flags.f_contiguous == expected.flags.f_contiguous

    @pytest.mark.parametrize("knots, degree, message", [
        ([0, 0, 5e-324, 1, 1], 1, "knots 0.0 and 5e-324 are too close"),
        ([0, 0, 0, 1e-300, 1.0000000000000002e-300, 1, 1, 1], 2,
         "knots 1e-300 and 1.0000000000000002e-300 are too close"),
    ], ids=["at-zero", "interior"])
    def test_rejects_spacing_whose_reciprocal_overflows(self, knots, degree, message):
        # Every divisor of de Boor's recurrence is at least one positive gap
        # between consecutive knots; knots that close overflowed it to inf.
        with pytest.raises(ConfigError, match=re.escape(message) + ": the reciprocal of "
                           "their spacing overflows$"):
            make_bspline_basis(knots, degree)

    @pytest.mark.parametrize("knots, degree, message", [
        ([0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1], 2,
         "knot 0.5 is repeated 4 times, more than degree + 1 = 3: B-spline 3 has"),
        ([0, 0, 0, 1, 1], 1, "knot 0.0 is repeated 3 times, more than degree + 1 = 2: "
         "B-spline 0 has"),
        ([0, 0.5, 1, 1], 0, "knot 1.0 is repeated 2 times, more than degree + 1 = 1: "
         "B-spline 2 has"),
    ], ids=["interior", "at-zero", "at-one"])
    def test_rejects_empty_support(self, knots, degree, message):
        # A knot repeated more than degree + 1 times makes a B-spline
        # identically zero.
        with pytest.raises(ConfigError, match=re.escape(message) + " empty support$"):
            make_bspline_basis(knots, degree)


class TestHatBasis:
    def test_two_hats(self):
        basis = make_hat_basis([0.0, 1.0])
        xs = np.linspace(0, 1, 11)
        nptest.assert_allclose(basis.values(xs)[0], 1 - xs, atol=0)
        nptest.assert_allclose(basis.values(xs)[1], xs, atol=0)

    def test_middle_hat_ramp(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        assert basis.values([0.25])[1, 0] == 0.5

    def test_exact_partition_of_unity(self):
        basis = make_hat_basis([0.0, 0.1, 0.45, 0.8, 1.0])
        sums = basis.values(np.linspace(0, 1, 777)).sum(axis=0)
        nptest.assert_array_equal(sums, np.ones_like(sums))

    def test_interpolatory(self):
        nodes = np.array([0.0, 0.3, 0.55, 1.0])
        basis = make_hat_basis(nodes)
        vals = basis.values(nodes)
        nptest.assert_array_equal(vals, np.eye(4))

    @pytest.mark.parametrize("m", [2, 3, 50, 500])
    def test_matches_interp_oracle(self, m):
        # Every node, every cell midpoint, random points, and points within
        # DOMAIN_SLACK outside [0, 1], where np.interp clamps to the ends.
        rng = np.random.default_rng(700 + m)
        pts = random_breakpoints(rng, interior=m - 2)
        xs = np.concatenate((pts, (pts[:-1] + pts[1:]) / 2, rng.uniform(0, 1, 1000),
                             [-1e-13, 1 + 1e-13]))
        nptest.assert_array_equal(make_hat_basis(pts).values(xs), hat_values(pts, xs))

    def test_negative_zero_has_the_sign_bits_of_interp(self):
        # np.interp reads -0.0 as 0.0: the right hat of the first cell is
        # +0.0 there, not slope * -0.0.
        pts = np.array([0.0, 0.3, 1.0])
        xs = np.array([-0.0, 0.0])
        values = make_hat_basis(pts).values(xs)
        assert values.tobytes() == hat_values(pts, xs).tobytes()
        assert not np.signbit(values).any()

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ConfigError):
            make_hat_basis([0.0, 0.6, 0.4, 1.0])
        with pytest.raises(ConfigError):
            make_hat_basis([0.0, 0.5, 0.5, 1.0])

    def test_rejects_nodes_not_spanning(self):
        with pytest.raises(ConfigError):
            make_hat_basis([0.1, 0.5, 1.0])


#: A basis of each kind and shape, with the layout of its dense values:
#: Bernstein up to past the degree where the benchmark's high-degree
#: workload starts, hats on two and on irregular nodes, and B-splines of
#: degree 0-3, each also on one span, where n = degree + 1 = width.
LOCAL_FORM_BASES = {
    **{f"bernstein-{n}": (lambda n=n: make_bernstein_basis(n), "C") for n in (1, 10, 31)},
    "hat-2": (lambda: make_hat_basis([0.0, 1.0]), "C"),
    "hat-irregular": (lambda: make_hat_basis([0.0, 0.05, 0.3, 0.31, 0.9, 1.0]), "C"),
    **{f"bspline-{degree}": (
        lambda degree=degree: make_bspline_basis(
            clamped_knots([0.0, 0.2, 0.5, 0.9, 1.0], degree), degree), "F")
       for degree in range(4)},
    **{f"bspline-{degree}-one-span": (
        lambda degree=degree: make_bspline_basis(clamped_knots([0.0, 1.0], degree), degree),
        "F") for degree in range(4)},
}


@pytest.mark.parametrize("make, layout", LOCAL_FORM_BASES.values(), ids=LOCAL_FORM_BASES)
def test_values_scatter_the_local_form(make, layout):
    # Every evaluator gives at most width values per point, from a first
    # index that keeps them inside the basis; values() places them, zeros
    # elsewhere, in the kind's layout (a B-spline's is scipy's design
    # matrix's, also when its width is n).
    basis = make()
    xs = np.concatenate((np.random.default_rng(38).uniform(0, 1, 200),
                         [0.0, -0.0, 1.0, 0.05, 0.2, 0.3, 0.31, 0.5, 0.9,
                          -DOMAIN_SLACK, 1.0 + DOMAIN_SLACK]))
    first, local = basis.local(xs)
    assert first.shape == xs.shape and first.min() >= 0
    assert (first + basis.width).max() <= basis.n
    assert local.shape == (basis.width, xs.size)
    expected = np.zeros((basis.n, xs.size))
    for i, start in enumerate(first):
        expected[start:start + basis.width, i] = local[:, i]
    values = basis.values(xs)
    assert values.tobytes(order="A") == np.asarray(expected, order=layout).tobytes(order="A")
    assert values.flags[f"{layout}_CONTIGUOUS"]


@pytest.mark.parametrize("build, message", [
    (lambda: make_hat_basis([0.0, np.nan, 1.0]),
     "hat basis nodes must be strictly increasing"),
    (lambda: clamped_knots([0.0, np.nan, 1.0], 2),
     "breakpoints must be strictly increasing"),
    (lambda: make_bspline_basis([0.0, 0.0, 0.0, np.nan, 1.0, 1.0, 1.0], 2),
     "knot vector must be nondecreasing"),
], ids=["hat-nodes", "breakpoints", "bspline-knots"])
def test_nan_in_ordered_points_rejected(build, message):
    # NaN compares false both ways, so an order test must fail on it.
    with pytest.raises(ConfigError, match=message):
        build()


def _on_grid(basis, grid):
    return basis.on(grid), grid


#: Every check that measures on a grid, called as ``check(op, grid, values)``.
GRID_CHECKS = {
    "partition_of_unity": lambda op, grid, values: check_partition_of_unity(values, grid),
    "nonnegativity": lambda op, grid, values: check_nonnegativity(values, grid),
    "constant_reproduction": verify_constant_reproduction,
    "positivity": verify_positivity,
    "operator_norm": estimate_operator_norm,
    "norm_bound": verify_norm_bound,
    "kernel_witness_report": kernel_witness_report,
}


class TestChecks:
    def test_bernstein_partition_passes(self):
        basis = make_bernstein_basis(5)
        result = check_partition_of_unity(*_on_grid(basis, np.linspace(0, 1, 1001)),
                                          tol=1e-12)
        assert result.passed

    def test_scaled_basis_fails_with_deviation(self):
        base = make_bernstein_basis(3)
        shrunk = dense_basis(lambda xs: 0.9 * base.values(xs), base.n, name="shrunk")
        result = check_partition_of_unity(*_on_grid(shrunk, np.linspace(0, 1, 101)),
                                          tol=1e-12)
        assert not result.passed
        assert result.value == pytest.approx(0.1, abs=1e-12)

    def test_bspline_partition_on_interior_grid(self):
        basis = make_bspline_basis(clamped_knots([0.0, 0.4, 0.9, 1.0], 3), 3)
        result = check_partition_of_unity(*_on_grid(basis, np.linspace(0, 1, 501)),
                                          tol=1e-12)
        assert result.passed

    def test_nonnegativity_pass_and_min_zero(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        result = check_nonnegativity(*_on_grid(basis, np.linspace(0, 1, 101)), tol=0.0)
        assert result.passed and result.value == 0.0

    def test_nonnegativity_detects_violation(self):
        bad = dense_basis(lambda xs: np.vstack((2 * xs - 1, 2 - 2 * xs)), 2, name="bad")
        result = check_nonnegativity(*_on_grid(bad, np.linspace(0, 1, 101)), tol=1e-12)
        assert not result.passed
        assert result.value == pytest.approx(-1.0)
        assert result.worst_x == 0.0

    @pytest.mark.parametrize("check, grid, columns, message", [
        *(pytest.param(check, np.array([]), 0, "needs a non-empty grid", id=name)
          for name, check in GRID_CHECKS.items()),
        *(pytest.param(check, np.linspace(0, 1, 11), 10,
                       r"needs the basis' local form on 11 points, "
                       r"of shape \(width, 11\), got \(4, 10\)",
                       id=f"{name}-mismatched-columns")
          for name, check in GRID_CHECKS.items()),
    ])
    def test_empty_grid_rejected(self, check, grid, columns, message):
        op = bernstein_operator(3)
        values = op.basis.on(np.linspace(0, 1, columns))
        with pytest.raises(ConfigError, match=message):
            check(op, grid, values)

    @pytest.mark.parametrize("make", [
        lambda: make_bernstein_basis(4),
        lambda: make_bernstein_basis(11),
        lambda: make_bspline_basis(clamped_knots([0.0, 0.5, 1.0], 2), 2),
        lambda: make_hat_basis([0.0, 0.2, 0.9, 1.0]),
    ])
    def test_catalog_bases_pou_and_nonneg(self, make):
        basis = make()
        grid = np.linspace(0, 1, 1000)
        assert check_partition_of_unity(*_on_grid(basis, grid), tol=1e-12).passed
        assert basis.values(grid).min() >= 0.0
