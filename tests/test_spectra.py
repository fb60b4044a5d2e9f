"""Collocation matrices, the eigensolver, Gershgorin disks, classification,
powers, and the limit of iterates."""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as nptest
import pytest
import scipy.linalg

from helpers import (average, bernstein_eigenvalue_oracle, bernstein_value, clamped_knots,
                     closed_classes_by_graph, collocation_rowwise, dirac, gershgorin_rowwise,
                     in_order, iterate_limit_dense, kantorovich_eigenvalue_oracle,
                     kantorovich_matrix_exact, kantorovich_matrix_oracle, quadrature,
                     random_breakpoints, random_stochastic, rules, sort_eigenvalues_by_key,
                     unchecked_operator, well_formed_configs)

import pouspec
from pouspec import spectra
from pouspec.errors import ConfigError, UnsupportedSizeError
from pouspec.functionals import dirac_functionals, interval_average_functionals
from pouspec.bases import (BasisSystem, make_bernstein_basis, make_bspline_basis,
                           make_hat_basis)
from pouspec.operators import OperatorSpec, bernstein_operator, hat_dirac_operator, \
    kantorovich_operator, schoenberg_operator
from pouspec.report import build_operator, parse_config
from pouspec.spectra import (MAX_DIMENSION, ORACLE_MAX_DIMENSION, TOL_PERIPHERAL,
                             CollocationMatrix, build_collocation_matrix,
                             check_row_stochastic, classify_spectrum,
                             distance_outside_disks, eigenvalues, gershgorin_disks,
                             iterate_limit, mpmath_eigen_oracle, pair_eigenvalues,
                             sort_eigenvalues)

KANT1 = np.array([[0.75, 0.25], [0.25, 0.75]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
BERN2 = np.array([[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
#: Defective: a Jordan block of size two at 0.5 beside the eigenvalue 1.
JORDAN = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])


def swap_operator() -> OperatorSpec:
    basis = make_hat_basis([0.0, 1.0])
    return OperatorSpec(basis, dirac_functionals([1.0, 0.0]), name="crossed-dirac")


class TestBuildMatrix:
    def test_bernstein2_dirac_matrix(self):
        matrix = build_collocation_matrix(bernstein_operator(2))
        nptest.assert_allclose(matrix.entries, BERN2, atol=1e-15)

    @pytest.mark.parametrize("nodes", [
        np.array([0.0, 0.35, 0.8, 1.0]),
        random_breakpoints(np.random.default_rng(300), interior=298),
        random_breakpoints(np.random.default_rng(MAX_DIMENSION), interior=MAX_DIMENSION - 2),
    ], ids=lambda nodes: str(nodes.size))
    def test_hat_dirac_identity(self, nodes):
        matrix = build_collocation_matrix(hat_dirac_operator(nodes))
        nptest.assert_array_equal(matrix.entries, np.eye(nodes.size))

    def test_kantorovich1_by_antiderivative(self):
        matrix = build_collocation_matrix(kantorovich_operator(1))
        nptest.assert_allclose(matrix.entries, KANT1, atol=1e-13)
        nptest.assert_allclose(matrix.entries, kantorovich_matrix_oracle(1), atol=1e-13)

    @pytest.mark.parametrize("n", [16, 31, 40, 60])
    def test_kantorovich_matches_exact_rationals(self, n):
        # Past the n <= 15 of the acceptance sweep.
        matrix = build_collocation_matrix(kantorovich_operator(n))
        nptest.assert_allclose(matrix.entries, kantorovich_matrix_exact(n), rtol=0, atol=1e-14)

    def test_entries_read_only(self):
        matrix = build_collocation_matrix(bernstein_operator(2))
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = 2.0

    def test_swap_matrix(self):
        matrix = build_collocation_matrix(swap_operator())
        nptest.assert_array_equal(matrix.entries, SWAP)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            CollocationMatrix(np.ones((2, 3)))


def _hat_average_operator(count: int) -> OperatorSpec:
    """Hat basis on ``count`` random nodes, one cell average per hat over
    the cells between the node midpoints (32 quadrature nodes each)."""
    nodes = random_breakpoints(np.random.default_rng(count), interior=count - 2)
    edges = np.concatenate(([0.0], (nodes[:-1] + nodes[1:]) / 2.0, [1.0]))
    funcs = interval_average_functionals(edges[:-1], edges[1:])
    return OperatorSpec(make_hat_basis(nodes), funcs, name=f"hat-average({count})")


def _mixed_operator() -> OperatorSpec:
    """Hat basis on 12 nodes with Dirac, cell-average and weighted-quadrature
    functionals in turn (1, 32 and 1 to 4 nodes)."""
    rng = np.random.default_rng(12)
    nodes = random_breakpoints(rng, interior=10)
    funcs = []
    for k in range(nodes.size):
        if k % 3 == 0:
            funcs.append(dirac(rng.uniform()))
        elif k % 3 == 1:
            a, b = np.sort(rng.uniform(size=2))
            funcs.append(average(a, b))
        else:
            size = k // 3 + 1
            funcs.append(quadrature(rng.uniform(size=size), rng.dirichlet(np.ones(size))))
    return OperatorSpec(make_hat_basis(nodes), in_order(*funcs), name="mixed")


def _runs_operator(basis) -> OperatorSpec:
    """``basis`` with runs of Dirac, cell-average and weighted-quadrature
    functionals of 3 and 5 nodes (rule sizes 1, 32, 3 and 5), the runs one
    to four functionals long, so that the rule size changes both inside a
    block and where a block ends."""
    rng = np.random.default_rng(basis.n)
    runs = [("dirac", 4), ("average", 3), ("quad-3", 3), ("quad-5", 4), ("dirac", 1),
            ("quad-5", 2), ("average", 1), ("quad-3", 1), ("dirac", 2), ("quad-3", 2)]
    funcs = []
    for run in range(basis.n):
        kind, count = runs[run % len(runs)]
        for _ in range(min(count, basis.n - len(funcs))):
            if kind == "dirac":
                funcs.append(dirac(rng.uniform()))
            elif kind == "average":
                a, b = np.sort(rng.uniform(size=2))
                funcs.append(average(a, b))
            else:
                size = int(kind[-1])
                funcs.append(quadrature(rng.uniform(size=size), rng.dirichlet(np.ones(size))))
    return OperatorSpec(basis, in_order(*funcs), name=f"runs({basis.name})")


COLLOCATION_CASES = {
    **{f"bernstein-{n}": (lambda n=n: bernstein_operator(n)) for n in (1, 31, 120)},
    **{f"kantorovich-{n}": (lambda n=n: kantorovich_operator(n)) for n in (1, 31, 120)},
    "schoenberg-cubic": lambda: schoenberg_operator(
        clamped_knots(random_breakpoints(np.random.default_rng(3), interior=40), 3), 3),
    "hat-dirac-300": lambda: hat_dirac_operator(
        random_breakpoints(np.random.default_rng(300), interior=298)),
    "hat-average-160": lambda: _hat_average_operator(160),
    "mixed": _mixed_operator,
    "runs-hat": lambda: _runs_operator(
        make_hat_basis(random_breakpoints(np.random.default_rng(24), interior=22))),
    "runs-bspline": lambda: _runs_operator(make_bspline_basis(
        clamped_knots(random_breakpoints(np.random.default_rng(5), interior=30), 3), 3)),
    "runs-bernstein": lambda: _runs_operator(make_bernstein_basis(40)),
}

#: Caps on the basis values per block, as functions of the operator.
BLOCK_CAPS = {
    "default": lambda op: spectra.MAX_BLOCK_ENTRIES,
    "1": lambda op: 1,
    "7": lambda op: 7,
    "below-largest-functional": lambda op: op.n * max(
        nodes.size for nodes, _ in rules(op.functionals)) - 1,
    "first-two-functionals": lambda op: op.n * sum(
        nodes.size for nodes, _ in rules(op.functionals)[:2]),
}


@pytest.mark.parametrize("cap", BLOCK_CAPS)
@pytest.mark.parametrize("case", COLLOCATION_CASES)
class TestBlockAssembly:
    def test_matches_rowwise_assembly(self, monkeypatch, case, cap):
        op = COLLOCATION_CASES[case]()
        monkeypatch.setattr(spectra, "MAX_BLOCK_ENTRIES", BLOCK_CAPS[cap](op))
        nptest.assert_array_equal(build_collocation_matrix(op).entries,
                                  collocation_rowwise(op))

    def test_blocks_are_whole_functionals_within_the_cap(self, monkeypatch, case, cap):
        op = COLLOCATION_CASES[case]()
        limit = BLOCK_CAPS[cap](op)
        monkeypatch.setattr(spectra, "MAX_BLOCK_ENTRIES", limit)
        sizes = []
        values = BasisSystem.values

        def counted(basis, xs):
            sizes.append(np.size(xs))
            return values(basis, xs)

        monkeypatch.setattr(BasisSystem, "values", counted)
        build_collocation_matrix(op)
        if op.basis.width < op.n:
            # A local basis forms no dense values on the nodes, whatever the cap.
            assert sizes == []
            return
        stops = np.append(op.functionals.starts[1:], op.functionals.nodes.size)
        bounds = np.cumsum([0] + sizes)
        assert bounds[-1] == op.functionals.nodes.size
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert hi in stops
            rows = np.count_nonzero((stops > lo) & (stops <= hi))
            # Within the cap unless it is one oversized functional, and
            # not extendable by the next functional.
            assert (hi - lo) * op.n <= limit or rows == 1
            following = stops[stops > hi]
            assert following.size == 0 or (following[0] - lo) * op.n > limit


def _gamma(m: int) -> Fraction:
    """Higham's ``gamma_m = m u / (1 - m u)``, ``u = 2**-53``."""
    mu = Fraction(m, 2 ** 53)
    return mu / (1 - mu)


def _hat_exact(pts: list[Fraction], j: int, x: Fraction) -> Fraction:
    """Hat ``j`` on the nodes ``pts`` by linear interpolation."""
    if j > 0 and pts[j - 1] <= x <= pts[j]:
        return (x - pts[j - 1]) / (pts[j] - pts[j - 1])
    if j + 1 < len(pts) and pts[j] <= x <= pts[j + 1]:
        return (pts[j + 1] - x) / (pts[j + 1] - pts[j])
    return Fraction(0)


def _bspline_exact(t: list[Fraction], i: int, degree: int, x: Fraction) -> Fraction:
    """B-spline ``N[i, degree]`` by the Cox-de Boor recursion. Spans are
    closed on the left, and the last nonempty one also on the right."""
    if degree == 0:
        last = t[i + 1] == t[-1] and t[i] < t[i + 1]
        return Fraction(int(t[i] <= x < t[i + 1] or (last and x == t[-1])))
    out = Fraction(0)
    if t[i + degree] > t[i]:
        out += (x - t[i]) / (t[i + degree] - t[i]) * _bspline_exact(t, i, degree - 1, x)
    if t[i + degree + 1] > t[i + 1]:
        out += ((t[i + degree + 1] - x) / (t[i + degree + 1] - t[i + 1])
                * _bspline_exact(t, i + 1, degree - 1, x))
    return out


def _special_points_operator(basis, breakpoints: list[float]):
    """``basis`` with ``basis.n`` functionals that cycle through a Dirac
    functional, an interval average and a weighted quadrature, each placed
    on the breakpoints, 0 and 1 where it can: Dirac functionals at every
    breakpoint in turn, averages between consecutive breakpoints and over
    [0, 1], and rules of 3 to 6 nodes mixing breakpoints, 0, 1 and
    uniform points."""
    rng = np.random.default_rng(basis.n)
    funcs = []
    for k in range(basis.n):
        if k % 3 == 0:
            funcs.append(dirac(breakpoints[k // 3 % len(breakpoints)]))
        elif k % 3 == 1:
            lo = k // 3 % len(breakpoints)
            funcs.append(average(breakpoints[lo], breakpoints[lo + 1])
                         if lo + 1 < len(breakpoints) else average(0.0, 1.0))
        else:
            size = 3 + k % 4
            xs = np.concatenate((rng.choice(breakpoints, size - 1), rng.uniform(size=1)))
            funcs.append(quadrature(xs, rng.dirichlet(np.ones(size))))
    return unchecked_operator(basis, in_order(*funcs))


#: ``(basis, breakpoints, exact, error)``: ``exact(j, x)`` is basis
#: function ``j`` at ``x``, and ``error(j, x)`` bounds the distance of the
#: evaluator's value from it. It is relative for de Boor's recurrence, whose
#: terms are all nonnegative (five roundings per degree), and absolute on a
#: hat's cells, where the left hat's ``1 - w`` cancels.
LOCAL_EXACT_CASES = {
    "hat": lambda: _hat_case([0.0, 0.3, 0.55, 0.8, 1.0]),
    "hat-irregular": lambda: _hat_case(
        random_breakpoints(np.random.default_rng(9), interior=7).tolist()),
    **{f"bspline-{degree}": (lambda degree=degree: _bspline_case(
        [0.0, 0.2, 0.45, 0.7, 1.0], degree)) for degree in range(4)},
    # 0.45 repeated degree + 1 times: the B-splines break there.
    **{f"bspline-{degree}-repeated": (lambda degree=degree: _bspline_case(
        [0.0, 0.2] + [0.45] * (degree + 1) + [0.7, 1.0], degree)) for degree in range(1, 4)},
}


def _hat_case(pts: list[float]):
    exact = [Fraction(p) for p in pts]

    def error(j: int, x: Fraction) -> Fraction:
        inside = exact[max(j - 1, 0)] <= x <= exact[min(j + 1, len(pts) - 1)]
        return _gamma(5) if inside else Fraction(0)

    return make_hat_basis(pts), pts, lambda j, x: _hat_exact(exact, j, x), error


def _bspline_case(interior: list[float], degree: int):
    """Clamped knots on ``interior``, from 0 to 1, interior knots kept as
    repeated."""
    knots = [0.0] * degree + interior + [1.0] * degree
    exact = [Fraction(float(t)) for t in knots]

    def value(j: int, x: Fraction) -> Fraction:
        return _bspline_exact(exact, j, degree, x)

    return (make_bspline_basis(knots, degree), sorted(set(interior)), value,
            lambda j, x: _gamma(5 * degree) * value(j, x))


class TestLocalAssemblyError:
    @pytest.mark.parametrize("case", LOCAL_EXACT_CASES)
    def test_entries_within_rounding_of_the_exact_rule_sum(self, case):
        # Each product w_i e_j(x_i) and each of the r - 1 additions in node
        # order rounds once, so an entry is within gamma_r sum |w_i e_j(x_i)|
        # of the rule's sum over the evaluator's values, and those are
        # within error(j, x_i) of the exact ones.
        basis, breakpoints, exact, error = LOCAL_EXACT_CASES[case]()
        assert basis.width < basis.n
        op = _special_points_operator(basis, breakpoints)
        entries = build_collocation_matrix(op).entries
        for k, (xs, ws) in enumerate(rules(op.functionals)):
            rule = [(Fraction(x), Fraction(w)) for x, w in zip(xs, ws)]
            gamma = _gamma(len(rule))
            for j in range(basis.n):
                total = sum(w * exact(j, x) for x, w in rule)
                bound = gamma * total + (1 + gamma) * sum(w * error(j, x) for x, w in rule)
                assert abs(Fraction(entries[k, j]) - total) <= bound, (k, j)


class TestRowStochastic:
    def test_identity_passes(self):
        assert check_row_stochastic(np.eye(3), tol=1e-12).passed

    def test_kantorovich_passes_tight(self):
        matrix = build_collocation_matrix(kantorovich_operator(1))
        result = check_row_stochastic(matrix, tol=1e-12)
        assert result.passed

    def test_detects_row_deficit(self):
        result = check_row_stochastic(np.array([[0.5, 0.4], [0.3, 0.7]]), tol=1e-10)
        assert not result.passed
        assert result.value == pytest.approx(0.1, abs=1e-12)
        assert "row 0" in result.detail

    def test_detects_negative_entry(self):
        result = check_row_stochastic(np.array([[1.2, -0.2], [0.0, 1.0]]), tol=1e-10)
        assert not result.passed

    @pytest.mark.parametrize("matrix, row", [
        ([[1.0, 0.0], [1.2, -0.2]], 1),
        ([[0.5, 0.45], [1.1, -0.1]], 1),
        ([[0.5, 0.3], [1.1, -0.1]], 0),
    ], ids=["negative-entry-only", "negative-entry-beyond-deficit",
            "deficit-beyond-negative-entry"])
    def test_names_the_row_that_decides_the_failure(self, matrix, row):
        # The row of the least entry when its negative part is the larger
        # violation, else the row of the largest |sum - 1|.
        result = check_row_stochastic(np.array(matrix), tol=1e-10)
        assert not result.passed
        assert result.detail.startswith(f"worst row {row}: ")


class TestEigenvalues:
    def test_one_by_one(self):
        nptest.assert_array_equal(eigenvalues(np.array([[1.0]])), [1.0 + 0.0j])

    def test_kantorovich_pair(self):
        nptest.assert_allclose(eigenvalues(KANT1), [1.0, 0.5], atol=1e-12)

    def test_swap_exact(self):
        nptest.assert_array_equal(eigenvalues(SWAP), [1.0 + 0.0j, -1.0 + 0.0j])

    def test_bernstein2_spectrum(self):
        nptest.assert_allclose(eigenvalues(BERN2), [1.0, 1.0, 0.5], atol=1e-12)

    def test_identity_multiplicity(self):
        nptest.assert_array_equal(eigenvalues(np.eye(3)), np.ones(3, dtype=complex))

    def test_conjugate_pairs_exact(self):
        theta = 0.73
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        pair = eigenvalues(rot)
        assert pair[0] == pair[1].conjugate()
        assert pair[0].imag > 0

    def test_cyclic_permutation_needs_exceptional_shifts(self):
        cyc = np.roll(np.eye(5), 1, axis=1)
        eigs = eigenvalues(cyc)
        expected = np.exp(2j * np.pi * np.arange(5) / 5)
        assert pair_eigenvalues(eigs, expected) <= 1e-10

    def test_badly_scaled_matrix_balanced(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(5, 5))
        d = np.diag([1e8, 1e4, 1.0, 1e-4, 1e-8])
        dinv = np.diag(1.0 / np.diag(d))
        scaled_m = d @ base @ dinv
        assert pair_eigenvalues(eigenvalues(scaled_m), eigenvalues(base)) <= 1e-6

    def test_rejects_oversize(self):
        with pytest.raises(UnsupportedSizeError):
            eigenvalues(np.eye(501))

    def test_canonical_sort(self):
        vals = sort_eigenvalues([0.2 + 0j, 1.0 + 0j, -0.5 + 0.5j, -0.5 - 0.5j])
        assert vals[0] == 1.0
        assert vals[1].imag > 0 and vals[2].imag < 0
        assert vals[3] == 0.2

    def test_sort_matches_keyed_oracle_on_cyclic_spectra(self):
        # Cyclic shifts have their eigenvalues on the unit circle, and the
        # half-sums with the next shift on a circle through 0 and 1: moduli
        # that tie up to the last bit, where only Python's abs orders them
        # as the keyed sort does.
        for m in range(2, 41):
            shift = np.roll(np.eye(m), 1, axis=1)
            for matrix in (shift, 0.5 * (shift + shift @ shift)):
                eigs = np.linalg.eigvals(matrix)
                nptest.assert_array_equal(sort_eigenvalues(eigs),
                                          sort_eigenvalues_by_key(eigs))

    def test_sort_matches_keyed_oracle_on_sparse_stochastic(self):
        # One unit entry per row plus a random share of the dense entries;
        # at density 0 the matrix maps each state to one other, so cycles
        # put roots of unity in the spectrum.
        rng = np.random.default_rng(2718)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            density = rng.choice([0.0, 0.1, 0.3])
            matrix = random_stochastic(rng, n) * (rng.random((n, n)) < density)
            matrix[np.arange(n), rng.integers(0, n, n)] += 1.0
            matrix /= matrix.sum(axis=1, keepdims=True)
            eigs = np.linalg.eigvals(matrix)
            nptest.assert_array_equal(sort_eigenvalues(eigs),
                                      sort_eigenvalues_by_key(eigs))

    @pytest.mark.parametrize("n", [31, 60, 100, 200])
    def test_bernstein_closed_form_spectrum(self, n):
        matrix = np.array([[bernstein_value(n, j, k / n) for j in range(n + 1)]
                           for k in range(n + 1)])
        assert pair_eigenvalues(eigenvalues(matrix), bernstein_eigenvalue_oracle(n)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 31, 60, 100, 200, 499])
    def test_kantorovich_closed_form_spectrum(self, n):
        matrix = build_collocation_matrix(kantorovich_operator(n))
        d = pair_eigenvalues(eigenvalues(matrix), kantorovich_eigenvalue_oracle(n))
        assert d <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_numpy_on_random_stochastic(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            matrix = random_stochastic(rng, n)
            d = pair_eigenvalues(eigenvalues(matrix), np.linalg.eigvals(matrix))
            assert d <= 1e-8


def three_cycle_operator() -> OperatorSpec:
    """Each hat read at the next node, cyclically: the 3-cycle permutation,
    whose spectrum holds a complex pair on the unit circle."""
    basis = make_hat_basis([0.0, 0.5, 1.0])
    return OperatorSpec(basis, dirac_functionals((0.5, 1.0, 0.0)), name="three-cycle")


def _schoenberg_random(degree: int, interior: int) -> OperatorSpec:
    knots = clamped_knots(random_breakpoints(np.random.default_rng(degree),
                                             interior=interior), degree)
    return schoenberg_operator(knots, degree)


#: Kinds with no closed-form spectrum, at dimension 3 to 30.
MPMATH_CASES = {
    "schoenberg-linear": lambda: _schoenberg_random(1, 28),
    "schoenberg-quadratic": lambda: _schoenberg_random(2, 15),
    "schoenberg-cubic": lambda: _schoenberg_random(3, 10),
    "hat-average-20": lambda: _hat_average_operator(20),
    "mixed": _mixed_operator,
    "three-cycle": three_cycle_operator,
}


class TestMpmathOracle:
    def test_kantorovich_pair_exact(self):
        nptest.assert_array_equal(mpmath_eigen_oracle(KANT1), [1.0, 0.5])

    def test_forty_digits_round_once(self):
        # At mpmath's default 15 digits the eigenvalue 1 comes back as
        # 1.0000000000000002.
        nptest.assert_array_equal(mpmath_eigen_oracle([[0.5, 0.5], [0.2, 0.8]]),
                                  [1.0, 0.3])

    def test_identity_three(self):
        nptest.assert_allclose(mpmath_eigen_oracle(np.eye(3)), np.ones(3), atol=1e-15)

    def test_defective_eigenvalue_exact(self):
        nptest.assert_array_equal(mpmath_eigen_oracle(JORDAN), [1.0, 0.5, 0.5])

    def test_one_by_one(self):
        nptest.assert_array_equal(mpmath_eigen_oracle([[0.3]]), [0.3])

    def test_matches_qr_on_random_stochastic(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            matrix = random_stochastic(rng, 4)
            d = pair_eigenvalues(eigenvalues(matrix), mpmath_eigen_oracle(matrix))
            assert d <= 1e-12

    def test_rejects_oversize(self):
        with pytest.raises(UnsupportedSizeError):
            mpmath_eigen_oracle(np.eye(ORACLE_MAX_DIMENSION + 1))

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 29])
    def test_kantorovich_closed_form(self, n):
        matrix = build_collocation_matrix(kantorovich_operator(n))
        d = pair_eigenvalues(mpmath_eigen_oracle(matrix), kantorovich_eigenvalue_oracle(n))
        assert d <= 1e-14

    @pytest.mark.parametrize("case", MPMATH_CASES)
    def test_matches_lapack_on_catalog_kinds(self, case):
        matrix = build_collocation_matrix(MPMATH_CASES[case]())
        assert pair_eigenvalues(eigenvalues(matrix), mpmath_eigen_oracle(matrix)) <= 1e-10

    def test_multiset_size_mismatch(self):
        with pytest.raises(ConfigError):
            pair_eigenvalues([1.0], [1.0, 2.0])


def _zero_diagonal_operator() -> OperatorSpec:
    """The benchmark pool's zero-diagonal config: a hat basis read at its
    nodes, except that functional 2 reads its neighbour's node."""
    nodes = random_breakpoints(np.random.default_rng(6), interior=4)
    return OperatorSpec(make_hat_basis(nodes), dirac_functionals(nodes[[0, 1, 3, 3, 4, 5]]),
                        name="zero-diagonal")


def _geev(matrix) -> np.ndarray:
    return sort_eigenvalues(scipy.linalg.eigvals(np.asarray(matrix, dtype=float)))


def _never(*_args):
    raise AssertionError("solver not expected on this matrix")


#: Matrices that are not tridiagonal, so they keep geev's eigenvalues.
DENSE_CASES = {
    "bernstein-5": lambda: _catalog_matrix("bernstein", 5),
    "bernstein-60": lambda: _catalog_matrix("bernstein", 60),
    "kantorovich-2": lambda: _catalog_matrix("kantorovich", 2),
    "kantorovich-31": lambda: _catalog_matrix("kantorovich", 31),
    "schoenberg-cubic": lambda: build_collocation_matrix(_schoenberg_random(3, 40)).entries,
    "random-stochastic-3": lambda: random_stochastic(np.random.default_rng(3), 3),
    "random-stochastic-40": lambda: random_stochastic(np.random.default_rng(40), 40),
}

#: Matrices whose off-diagonal pairs are all zero products, so their
#: eigenvalues are their diagonal entries.
DIAGONAL_CASES = {
    "identity": lambda: np.eye(4),
    "hat-dirac": lambda: build_collocation_matrix(hat_dirac_operator(
        random_breakpoints(np.random.default_rng(9), interior=7))).entries,
    "zero-diagonal": lambda: build_collocation_matrix(_zero_diagonal_operator()).entries,
    "bernstein-2": lambda: _catalog_matrix("bernstein", 2),
    "bernstein-1": lambda: _catalog_matrix("bernstein", 1),
}


class TestTridiagonalPath:
    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_dense_matrix_keeps_geev_bit_for_bit(self, case, monkeypatch):
        matrix = DENSE_CASES[case]()
        expected = _geev(matrix)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", _never)
        nptest.assert_array_equal(eigenvalues(matrix), expected)

    def test_negative_product_goes_to_geev(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", _never)
        nptest.assert_array_equal(eigenvalues([[0.0, 1.0], [-1.0, 0.0]]), [1j, -1j])

    @pytest.mark.parametrize("scale", [1e-200, 1e300])
    def test_negative_product_out_of_range_goes_to_geev(self, scale, monkeypatch):
        # The product is -0.0 or -inf in floating point; the signs still
        # differ. The spectrum is +-scale i, which scipy 1.17's eigvals
        # misses on these matrices (+-6.7e-139 i and +-1.5e138 i).
        matrix = np.array([[0.0, scale], [-scale, 0.0]])
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", _never)
        eigs = eigenvalues(matrix)
        assert np.all(eigs.real == 0.0)
        nptest.assert_allclose(eigs.imag, [scale, -scale], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("case", DIAGONAL_CASES)
    def test_zero_products_give_the_diagonal_bit_for_bit(self, case, monkeypatch):
        matrix = DIAGONAL_CASES[case]()
        expected = _geev(matrix)
        nptest.assert_array_equal(expected, sort_eigenvalues(np.diag(matrix)))
        monkeypatch.setattr(np.linalg, "eigvals", _never)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", _never)
        nptest.assert_array_equal(eigenvalues(matrix), expected)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_diagonal_is_rejected(self, entry):
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigenvalues(np.diag([0.5, entry]))

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_entries_neither_overflow_nor_underflow(self, scale):
        # The product of the off-diagonal pair, 1e600 or 1e-600, is out of
        # range; the product of the square roots is not.
        eigs = eigenvalues([[0.0, scale], [scale, 0.0]])
        assert np.all(eigs.imag == 0.0)
        nptest.assert_allclose(eigs.real, [scale, -scale], rtol=1e-15, atol=0.0)

    def test_negative_pairs_are_real(self):
        # Both off-diagonal entries negative: the product is positive and
        # the spectrum of [[a, -b], [-b, a]] is a -+ b.
        nptest.assert_array_equal(eigenvalues([[0.5, -0.25], [-0.25, 0.5]]), [0.75, 0.25])

    @pytest.mark.parametrize("count", [3, 8, 20, 160, 500])
    def test_hat_average_spectrum_is_real_and_matches_geev(self, count, monkeypatch):
        matrix = build_collocation_matrix(_hat_average_operator(count)).entries
        assert max(scipy.linalg.bandwidth(matrix)) == 1
        expected = _geev(matrix)
        monkeypatch.setattr(np.linalg, "eigvals", _never)
        eigs = eigenvalues(matrix)
        assert np.all(eigs.imag == 0.0)
        assert pair_eigenvalues(eigs, expected) <= 1e-12
        if count <= ORACLE_MAX_DIMENSION:
            assert pair_eigenvalues(eigs, mpmath_eigen_oracle(matrix)) <= 1e-13

    @pytest.mark.parametrize("interior", [2, 9, 27])
    def test_quadratic_schoenberg_matches_the_oracle(self, interior, monkeypatch):
        matrix = build_collocation_matrix(_schoenberg_random(2, interior)).entries
        assert max(scipy.linalg.bandwidth(matrix)) == 1
        monkeypatch.setattr(np.linalg, "eigvals", _never)
        eigs = eigenvalues(matrix)
        assert np.all(eigs.imag == 0.0)
        assert pair_eigenvalues(eigs, mpmath_eigen_oracle(matrix)) <= 1e-13

    def test_lapack_failure_raises_linalg_error(self, monkeypatch):
        def fail(_d, _e):
            raise np.linalg.LinAlgError("stemr did not converge")

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", fail)
        with pytest.raises(np.linalg.LinAlgError, match="stemr did not converge"):
            eigenvalues(KANT1)


#: Child process: for each config text of the JSON list on stdin, prints
#: whether its collocation matrix is not tridiagonal and, if so, whether
#: ``eigenvalues`` has the bits of scipy's ``geev``, as a JSON list of
#: ``[dense, same]`` pairs.
_DENSE_SPECTRA_CHILD = """
import json, sys
import scipy.linalg
from pouspec.report import build_operator, parse_config
from pouspec.spectra import build_collocation_matrix, eigenvalues, sort_eigenvalues
results = []
for text in json.load(sys.stdin):
    matrix = build_collocation_matrix(build_operator(parse_config(text))).entries
    dense = max(scipy.linalg.bandwidth(matrix)) > 1
    expected = sort_eigenvalues(scipy.linalg.eigvals(matrix)) if dense else None
    results.append([dense, dense and eigenvalues(matrix).tobytes() == expected.tobytes()])
print(json.dumps(results))
"""


def test_dense_spectra_of_the_configs_keep_the_bits_of_scipy():
    # numpy's and scipy's geev come from two OpenBLAS builds. With one BLAS
    # thread, as the benchmark and tools/output_diff.py run, they agree bit
    # for bit on every matrix that is not tridiagonal of the well-formed
    # pool configs and the largest and witness configs. With more threads
    # neither keeps its bits from one thread count to another at n = 500.
    configs = well_formed_configs("largest", "witness")
    env = {**os.environ, "PYTHONPATH": str(Path(pouspec.__file__).resolve().parent.parent),
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
    run = subprocess.run([sys.executable, "-c", _DENSE_SPECTRA_CHILD],
                         input=json.dumps(list(configs.values())), env=env,
                         capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    results = dict(zip(configs, json.loads(run.stdout)))
    dense = [name for name, (is_dense, _) in results.items() if is_dense]
    assert [name for name in dense if not results[name][1]] == []
    assert {"largest bernstein-499", "largest kantorovich-499",
            "largest schoenberg-cubic-500", "witness kantorovich-499"} <= set(dense)


#: Totally nonnegative collocation matrices of the catalog (Gantmacher and
#: Krein: their eigenvalues are real and nonnegative), a few sizes each.
TOTALLY_NONNEGATIVE_CASES = {
    "bernstein-30": lambda: _catalog_matrix("bernstein", 30),
    "bernstein-499": lambda: _catalog_matrix("bernstein", 499),
    "kantorovich-30": lambda: _catalog_matrix("kantorovich", 30),
    "kantorovich-499": lambda: _catalog_matrix("kantorovich", 499),
    "schoenberg-quadratic-30": lambda: _schoenberg_random(2, 27),
    "schoenberg-quadratic-500": lambda: _schoenberg_random(2, 497),
    "schoenberg-cubic-30": lambda: _schoenberg_random(3, 26),
    "schoenberg-cubic-500": lambda: _schoenberg_random(3, 496),
    "hat-average-30": lambda: _hat_average_operator(30),
    "hat-average-500": lambda: _hat_average_operator(500),
}


@pytest.mark.parametrize("case", TOTALLY_NONNEGATIVE_CASES)
def test_totally_nonnegative_spectra_are_real_and_nonnegative(case):
    matrix = TOTALLY_NONNEGATIVE_CASES[case]()
    if isinstance(matrix, OperatorSpec):
        matrix = build_collocation_matrix(matrix).entries
    eigs = eigenvalues(matrix)
    assert eigs.size == matrix.shape[0] and matrix.shape[0] in (30, 31, 500)
    assert np.abs(eigs.imag).max() <= 1e-12
    assert eigs.real.min() >= -1e-12


class TestGershgorin:
    def test_identity_degenerate_disks(self):
        centers, radii = gershgorin_disks(np.eye(2))
        assert centers.tolist() == [1.0, 1.0] and radii.tolist() == [0.0, 0.0]

    def test_kantorovich_disks(self):
        centers, radii = gershgorin_disks(KANT1)
        assert centers.tolist() == [0.75, 0.75] and radii.tolist() == [0.25, 0.25]

    def test_swap_disks_are_unit_disk(self):
        centers, radii = gershgorin_disks(SWAP)
        assert centers.tolist() == [0.0, 0.0] and radii.tolist() == [1.0, 1.0]

    def test_tangency_for_stochastic_rows(self):
        rng = np.random.default_rng(8)
        matrix = random_stochastic(rng, 5)
        for center, radius in zip(*gershgorin_disks(matrix)):
            assert center >= 0.0 and radius >= 0.0
            assert center + radius == pytest.approx(1.0, abs=1e-10)

    def test_disks_are_read_only(self):
        for column in gershgorin_disks(KANT1):
            with pytest.raises(ValueError):
                column[0] = 0.0

    @pytest.mark.parametrize("n", [1, 7, 128, 129, 500])
    def test_disks_match_rowwise_for_either_memory_order(self, n):
        matrix = np.random.default_rng(n).normal(size=(n, n))
        expected = gershgorin_rowwise(matrix)
        for arr in (np.ascontiguousarray(matrix), np.asfortranarray(matrix)):
            for got, want in zip(gershgorin_disks(arr), expected):
                nptest.assert_array_equal(got, want)


class TestClassification:
    def test_kantorovich_conforms(self):
        report = classify_spectrum(eigenvalues(KANT1), gershgorin_disks(KANT1))
        assert report.classification == "conforms"
        assert report.diagnostics.startswith("1 peripheral eigenvalue(s) ")

    def test_bernstein2_conforms(self):
        report = classify_spectrum(eigenvalues(BERN2), gershgorin_disks(BERN2))
        assert report.classification == "conforms"
        assert report.diagnostics.startswith("2 peripheral eigenvalue(s) ")

    def test_swap_violates_with_zero_diag_diagnostic(self):
        report = classify_spectrum(eigenvalues(SWAP), gershgorin_disks(SWAP))
        assert report.classification == "violates-theorem"
        assert "zero diagonal" in report.diagnostics

    def test_zero_diag_without_violation_is_inconclusive(self):
        # Rows average the two coordinates: eigenvalues 1 and 0, but both
        # diagonal entries of the off-diagonal block structure vanish.
        matrix = np.array([[0.0, 1.0], [0.5, 0.5]])
        report = classify_spectrum(eigenvalues(matrix), gershgorin_disks(matrix))
        assert report.classification == "inconclusive-zero-diagonal"

    def test_moduli_are_python_abs(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            matrix = random_stochastic(rng, int(rng.integers(2, 40)))
            report = classify_spectrum(eigenvalues(matrix), gershgorin_disks(matrix))
            assert report.moduli.tolist() == [abs(z) for z in report.eigenvalues]

    def test_containment_verified(self):
        report = classify_spectrum(eigenvalues(KANT1), gershgorin_disks(KANT1))
        assert distance_outside_disks(report.eigenvalues, *report.disks).max() <= 1e-9
        assert report.in_disk_union.tolist() == [True, True]

    def test_fixed_eigenvalue_one(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            matrix = random_stochastic(rng, int(rng.integers(2, 7)))
            eigs = eigenvalues(matrix)
            assert np.min(np.abs(eigs - 1.0)) <= 1e-9


class TestPowers:
    def test_kantorovich_square(self):
        nptest.assert_allclose(np.linalg.matrix_power(KANT1, 2),
                               [[0.625, 0.375], [0.375, 0.625]], atol=1e-15)

    def test_identity_any_power(self):
        nptest.assert_array_equal(np.linalg.matrix_power(np.eye(3), 9), np.eye(3))

    def test_powers_stay_stochastic(self):
        rng = np.random.default_rng(61)
        matrix = random_stochastic(rng, 6)
        for m in (3, 10, 50):
            power = np.linalg.matrix_power(matrix, m)
            assert check_row_stochastic(power, tol=1e-10 * max(m, 1)).passed


def _permutation_operator(image: list[int]) -> OperatorSpec:
    """Hat ``k`` read at node ``image[k]``: the permutation matrix of the
    benchmark pool's crossed-Dirac configs, whose cycles are its closed
    classes."""
    nodes = np.linspace(0.0, 1.0, len(image))
    basis = make_hat_basis(nodes)
    return OperatorSpec(basis, dirac_functionals(nodes[image]), name="permutation")


@functools.cache
def _catalog_matrix(kind: str, n: int) -> np.ndarray:
    operator = {"bernstein": bernstein_operator, "kantorovich": kantorovich_operator}[kind]
    return build_collocation_matrix(operator(n)).entries


#: Matrices whose support holds the diagonal and both first off-diagonals.
POSITIVE_BAND_CASES = {
    "kantorovich-1": lambda: KANT1,
    "one-by-one": lambda: np.full((1, 1), 1.0),
    "random-stochastic": lambda: random_stochastic(np.random.default_rng(17), 17),
    # 36,524 of its entries underflow to 0.
    "kantorovich-499": lambda: _catalog_matrix("kantorovich", 499),
    "hat-average-160": lambda: build_collocation_matrix(_hat_average_operator(160)).entries,
}

#: Matrices whose support lies within the diagonal.
DIAGONAL_SUPPORT_CASES = {
    "identity": lambda: np.eye(300),
    "some-zero": lambda: np.diag([1.0, 0.0, 0.5, 0.0]),
    "zero": lambda: np.zeros((3, 3)),
    "hat-dirac": DIAGONAL_CASES["hat-dirac"],
}


def _assert_matches_the_graph(matrix, name: str = "") -> None:
    """``closed_classes`` gives the oracle's labels and periods, dtypes
    included."""
    for got, want in zip(spectra.closed_classes(matrix), closed_classes_by_graph(matrix)):
        nptest.assert_array_equal(got, want, err_msg=name)
        assert got.dtype == want.dtype, name


class TestClosedClasses:
    @pytest.mark.parametrize("matrix, labels, periods", [
        (np.eye(3), [0, 1, 2], [1, 1, 1]),
        (SWAP, [0, 0], [2]),
        (BERN2, [0, 1, 2], [1, 0, 1]),
        (JORDAN, [0, 1, 2], [0, 0, 1]),
        # A zero row is a class without an edge: not closed.
        (np.array([[0.0, 1.0], [0.0, 0.0]]), [0, 1], [0, 0]),
        (np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), [0, 0, 0], [2]),
    ], ids=["identity", "swap", "bernstein-2", "jordan", "zero-row", "star"])
    def test_small_matrices(self, matrix, labels, periods):
        found_labels, found_periods = spectra.closed_classes(matrix)
        assert found_labels.tolist() == labels
        assert found_periods.tolist() == periods

    @pytest.mark.parametrize("n", [31, 499])
    def test_bernstein_end_points_are_absorbing(self, n):
        labels, periods = spectra.closed_classes(_catalog_matrix("bernstein", n))
        assert periods[periods > 0].tolist() == [1, 1]
        assert np.flatnonzero(periods[labels]).tolist() == [0, n]

    @pytest.mark.parametrize("n", [31, 499])
    def test_kantorovich_is_one_aperiodic_class(self, n):
        labels, periods = spectra.closed_classes(_catalog_matrix("kantorovich", n))
        assert periods.tolist() == [1] and not labels.any()

    @pytest.mark.parametrize("case", POSITIVE_BAND_CASES)
    def test_positive_band_skips_the_graph(self, case, monkeypatch):
        monkeypatch.setattr(spectra, "_reachability", _never)
        _assert_matches_the_graph(POSITIVE_BAND_CASES[case]())

    @pytest.mark.parametrize("case", DIAGONAL_SUPPORT_CASES)
    def test_diagonal_support_skips_the_graph(self, case, monkeypatch):
        monkeypatch.setattr(spectra, "_reachability", _never)
        _assert_matches_the_graph(DIAGONAL_SUPPORT_CASES[case]())

    def test_matches_the_graph_on_random_supports(self):
        # Random supports, each band diagonal filled or not, so that every
        # path is taken, then random permutations up to n = 40, whose
        # cycles are closed classes of every period.
        rng = np.random.default_rng(1729)
        matrices = []
        for _ in range(400):
            n = int(rng.integers(1, 10))
            matrix = rng.random((n, n)) * (rng.random((n, n)) < rng.choice([0.3, 0.7, 0.95]))
            for k in (-1, 0, 1):
                if rng.random() < 0.6:
                    rows = np.arange(n - abs(k))
                    matrix[rows + max(-k, 0), rows + max(k, 0)] = 0.1 + rng.random(rows.size)
            matrices.append(matrix)
        matrices += [np.eye(n)[rng.permutation(n)] for n in range(1, 41) for _ in range(5)]
        for matrix in matrices:
            _assert_matches_the_graph(matrix)

    def test_matches_the_graph_on_the_configs(self):
        # Every well-formed benchmark pool config and the largest and
        # witness configs of tools/output_diff.py.
        for name, text in well_formed_configs("largest", "witness").items():
            _assert_matches_the_graph(
                build_collocation_matrix(build_operator(parse_config(text))).entries, name)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 30, 31, 60, 120, 250, 499])
    @pytest.mark.parametrize("kind, closed", [("bernstein", 2), ("kantorovich", 1)])
    def test_catalog_periods_count_the_peripheral_eigenvalues(self, kind, closed, n):
        # Bernstein: the end points {0} and {n} are absorbing, lambda_0 =
        # lambda_1 = 1; Kantorovich: one aperiodic class, 1 once.
        matrix = _catalog_matrix(kind, n)
        periods = spectra.closed_classes(matrix)[1]
        peripheral = np.count_nonzero(np.abs(eigenvalues(matrix)) >= 1.0 - TOL_PERIPHERAL)
        assert periods.sum() == peripheral == closed

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 18 and 10: e_2(5e-324) underflows to 0, so the support "
        "read from the floats drops the edges from {0, 1} to 2 and leaves "
        "{0, 1} closed through the entry 1e-323"))
    def test_underflowing_basis_value_keeps_its_edge(self):
        # Bernstein degree 2 read at 5e-324 twice and at 1: states 0 and 1
        # reach state 2 through e_2(5e-324) > 0, so {2} is the only closed
        # class.
        op = build_operator(parse_config(json.dumps({
            "operator": "custom", "basis": {"kind": "bernstein", "n": 2},
            "functionals": [{"kind": "dirac", "x": 5e-324}, {"kind": "dirac", "x": 5e-324},
                            {"kind": "dirac", "x": 1.0}]})))
        labels, periods = spectra.closed_classes(build_collocation_matrix(op))
        assert np.count_nonzero(periods) == 1
        assert np.flatnonzero(periods[labels]).tolist() == [2]

    @pytest.mark.parametrize("image, periods", [
        ([1, 0], [2]),
        ([4, 5, 0, 1, 2, 3], [3, 3]),
        ([1, 2, 3, 0], [4]),
        ([1, 2, 0], [3]),
        ([1, 2, 3, 4, 5, 0], [6]),
        ([1, 2, 0, 3], [3, 1]),
    ], ids=[*(f"custom-swap-{i}" for i in range(5)), "three-cycle-and-fixed-point"])
    def test_permutation_cycles(self, image, periods):
        matrix = build_collocation_matrix(_permutation_operator(image))
        assert sorted(spectra.closed_classes(matrix)[1].tolist()) == sorted(periods)


class TestIterateLimit:
    def test_kantorovich_limit_and_rate(self):
        result = iterate_limit(KANT1, tol=1e-10)
        assert result.converged
        nptest.assert_allclose(result.limit, 0.5 * np.ones((2, 2)), atol=1e-10)
        rate = classify_spectrum(eigenvalues(KANT1), gershgorin_disks(KANT1)).subdominant_modulus
        assert 0.499 <= rate <= 0.501

    def test_identity_immediate(self):
        identity = np.eye(4)
        result = iterate_limit(identity, tol=1e-12)
        rate = classify_spectrum(eigenvalues(identity),
                                 gershgorin_disks(identity)).subdominant_modulus
        assert result.converged and result.residual == 0 and rate == 0.0

    def test_swap_oscillates(self):
        result = iterate_limit(SWAP, tol=1e-10)
        assert not result.converged and result.limit is None
        assert result.message == "no limit: closed class(es) of period 2"

    @pytest.mark.parametrize("image, named", [
        ([1, 0], "2"),
        ([4, 5, 0, 1, 2, 3], "3, 3"),
        ([1, 2, 3, 0], "4"),
        ([1, 2, 0], "3"),
        ([1, 2, 3, 4, 5, 0], "6"),
    ], ids=[f"custom-swap-{i}" for i in range(5)])
    def test_swap_configs_name_their_periods(self, image, named):
        result = iterate_limit(build_collocation_matrix(_permutation_operator(image)))
        assert not result.converged
        assert result.message == f"no limit: closed class(es) of period {named}"

    def test_reversed_bernstein_names_period_two(self):
        # Nodes 1, 0.5, 0: the end points swap, and the middle state is
        # transient, so M^m has no limit although M has a positive entry
        # on its diagonal.
        op = OperatorSpec(make_bernstein_basis(2), dirac_functionals((1.0, 0.5, 0.0)),
                          name="reversed-bernstein")
        matrix = build_collocation_matrix(op)
        assert np.diag(matrix.entries).min() == 0.0 and matrix.entries[1, 1] == 0.5
        result = iterate_limit(matrix)
        assert result.message == "no limit: closed class(es) of period 2"

    def test_residual_above_tol_is_no_limit(self):
        # One closed aperiodic class, whose limit is found with a residual
        # of rounding size, above a tolerance far below rounding.
        matrix = random_stochastic(np.random.default_rng(8), 20)
        result = iterate_limit(matrix, tol=1e-20)
        assert not result.converged and result.limit is None
        assert 0 < result.residual < 1e-15
        assert result.message == f"no limit: residual {result.residual:.3e} > 1e-20"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix, detail", [
        ([[1.0, 0.0], [0.5, 0.0]], "worst row 1: |sum - 1| = 5.000e-01"),
        ([[1.0, 0.0], [0.0, 0.0]], "worst row 1: |sum - 1| = 1.000e+00"),
        ([[1.0, 0.0], [0.3, 0.8]], "worst row 1: |sum - 1| = 1.000e-01"),
        ([[1.2, -0.2], [0.0, 1.0]], "min entry = -2.000e-01"),
        ([[1.5, 0.5], [0.25, 1.75]], "worst row 0: |sum - 1| = 1.000e+00"),
    ], ids=["leaking-row", "zero-row", "row-sum-above-one", "negative-entry",
            "row-sums-two"])
    def test_rejects_a_matrix_that_is_not_row_stochastic(self, matrix, detail):
        # Closed classes say nothing about M^m unless every row sums to 1
        # over nonnegative entries.
        with pytest.raises(ConfigError, match="^iterate limit needs a row-stochastic "
                                              "matrix: worst row ") as info:
            iterate_limit(np.array(matrix))
        assert detail in str(info.value)

    def test_leak_below_rounding_is_absorbed(self):
        # Row 0 is (1.0, 5e-324): 1 - M[0, 0] is 0, yet state 0 leaks into
        # the absorbing state 1, and the sum of its other entries keeps that.
        result = iterate_limit(np.array([[1.0, 5e-324], [0.0, 1.0]]))
        assert result.converged
        nptest.assert_array_equal(result.limit, [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("matrix, limit", [
        ([[1.0, -1e-12], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
        ([[0.5, 0.5, -1e-12], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
         [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
    ], ids=["two-absorbing", "pair-and-absorbing"])
    def test_closed_row_leaves_out_a_negative_entry_outside_its_class(self, matrix, limit):
        # Row 0 holds -1e-12 outside its class, within TOL_STOCHASTIC: the
        # stochastic check accepts it, the support graph has no edge there,
        # and the residual reads only the class's block, exact here. The
        # dense formula counts the entry.
        matrix = np.array(matrix)
        assert check_row_stochastic(matrix, spectra.TOL_STOCHASTIC).passed
        result = iterate_limit(matrix)
        assert result.residual == 0.0 and iterate_limit_dense(matrix).residual > 0.0
        assert result.message == "converged: 2 closed class(es), residual 0.000e+00"
        nptest.assert_array_equal(result.limit, limit)

    @pytest.mark.parametrize("n", [31, 60, 499])
    def test_bernstein_limit_is_kelisky_rivlin(self, n):
        # Kelisky & Rivlin (1967): B_n^m f tends to the line through
        # (0, f(0)) and (1, f(1)), so row k of L is (1 - k/n, 0, ..., 0, k/n).
        x = np.arange(n + 1) / n
        expected = np.zeros((n + 1, n + 1))
        expected[:, 0], expected[:, -1] = 1.0 - x, x
        result = iterate_limit(_catalog_matrix("bernstein", n))
        assert result.converged
        assert result.message.startswith("converged: 2 closed class(es), residual ")
        assert np.max(np.abs(result.limit - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ["bernstein", "kantorovich"])
    @pytest.mark.parametrize("n", [60, 499])
    def test_limit_matches_long_squaring(self, kind, n):
        matrix = _catalog_matrix(kind, n)
        result = iterate_limit(matrix)
        assert result.converged and result.residual <= 1e-12
        assert np.max(np.abs(result.limit - np.linalg.matrix_power(matrix, 2 ** 20))) <= 1e-10
        if kind == "kantorovich":
            # One closed class: L = 1 pi^T with pi the stationary vector.
            pi = result.limit[0]
            nptest.assert_array_equal(result.limit, np.broadcast_to(pi, matrix.shape))
            assert abs(pi.sum() - 1.0) <= 1e-12 and pi.min() > 0.0
            assert np.max(np.abs(pi @ matrix - pi)) <= 1e-12

    def test_power_eigen_consistency(self):
        # For diagonalizable stochastic matrices the deviation from the
        # limit decays like |lambda_2|^m with a bounded prefactor.
        cases = [KANT1, np.array([[0.9, 0.1], [0.2, 0.8]]),
                 np.array([[0.8, 0.2, 0.0], [0.2, 0.8, 0.0], [0.0, 0.3, 0.7]])]
        for matrix in cases:
            vals, vecs = np.linalg.eig(matrix.T)
            stat = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
            stat = stat / stat.sum()
            limit = np.ones((matrix.shape[0], 1)) @ stat[None, :]
            lam2 = sorted(np.abs(np.linalg.eigvals(matrix)))[-2]
            report = classify_spectrum(eigenvalues(matrix), gershgorin_disks(matrix))
            assert abs(report.subdominant_modulus - lam2) <= 1e-12, (matrix, lam2)
            for m in (5, 12, 25, 40):
                dev = np.max(np.sum(np.abs(np.linalg.matrix_power(matrix, m) - limit),
                                    axis=1))
                ratio = dev / lam2 ** m
                assert 0.1 <= ratio <= 10.0, (matrix, m, ratio)


def _chain(seed: int, sizes: list[int], transient: int, periods: list[int] = ()) -> np.ndarray:
    """A random row-stochastic matrix, its states shuffled: one closed
    class per entry of ``sizes`` (period ``periods[i]``, else 1; an
    aperiodic class is all positive, a class of period d moves each state
    to the next of d groups), then ``transient`` states that move anywhere."""
    rng = np.random.default_rng(seed)
    n = sum(sizes) + transient
    matrix = np.zeros((n, n))
    start = 0
    for size, period in zip(sizes, [*periods, *[1] * len(sizes)]):
        group = np.arange(size) % period
        for r in range(period):
            rows = start + np.flatnonzero(group == r)
            cols = start + np.flatnonzero(group == (r + 1) % period)
            matrix[np.ix_(rows, cols)] = rng.dirichlet(np.ones(cols.size), size=rows.size)
        start += size
    matrix[start:] = rng.dirichlet(np.ones(n), size=transient)
    order = rng.permutation(n)
    return matrix[np.ix_(order, order)]


class TestIterateLimitAtScale:
    """The classwise limit against the dense formula (one solve for all
    stationary vectors, two dense residual products) up to n = 500: the
    same limit within 1e-12 and the same residual within 1e-13. The
    residual is defined class by class, so its last bits, and the last
    printed digit of the message, are rounding and may differ."""

    @pytest.mark.parametrize("matrix", [
        np.eye(1), np.eye(37), np.eye(500),
        _chain(1, [60], 0), _chain(2, [500], 0),
        _chain(3, [1, 1], 58), _chain(4, [1] * 250, 250),
        _chain(5, [1, 3, 3, 7, 40], 20), _chain(6, [2, 5, 5, 1, 90, 1, 40], 300),
        _chain(7, [*[1] * 100, *[4] * 50, 120], 80),
    ], ids=["eye-1", "eye-37", "eye-500", "one-class-60", "one-class-500",
            "two-absorbing", "singletons-and-transients", "mixed-sizes", "mixed-sizes-500",
            "many-sizes-500"])
    def test_equal_to_the_dense_formula(self, matrix):
        result, dense = iterate_limit(matrix), iterate_limit_dense(matrix)
        assert result.converged == dense.converged
        assert abs(result.residual - dense.residual) <= 1e-13
        if dense.converged:
            assert np.max(np.abs(result.limit - dense.limit)) <= 1e-12

    def test_column_major_input_gives_the_same_limit(self):
        matrix = _chain(12, [1, 4, 30], 25)
        result, fortran = iterate_limit(matrix), iterate_limit(np.asfortranarray(matrix))
        assert (fortran.message, fortran.residual) == (result.message, result.residual)
        assert fortran.limit.tobytes() == result.limit.tobytes()

    def test_singleton_classes_are_exactly_one(self):
        matrix = _chain(8, [1] * 40, 60)
        labels, periods = spectra.closed_classes(matrix)
        closed = np.flatnonzero(periods[labels])
        assert iterate_limit(matrix).limit[closed, closed].tolist() == [1.0] * 40

    @pytest.mark.parametrize("matrix, named", [
        (_chain(9, [6], 0, [2]), "2"),
        (_chain(10, [9, 4, 1], 30, [3, 2]), "3, 2"),
        (_chain(11, [*[1] * 20, 12, 50], 100, [*[1] * 20, 4, 5]), "4, 5"),
    ], ids=["one-periodic", "two-periodic-with-transients", "periodic-among-singletons"])
    def test_periodic_classes_give_the_dense_message(self, matrix, named):
        result, dense = iterate_limit(matrix), iterate_limit_dense(matrix)
        assert not result.converged and result.limit is None
        assert result.message == dense.message
        assert sorted(result.message.rpartition("period ")[2].split(", ")) == \
            sorted(named.split(", "))


@pytest.mark.parametrize("n", [31, 100, 499])
def test_subdominant_modulus_matches_bernstein_closed_form(n):
    # Cooper & Waldron (2000): the Bernstein collocation matrix has
    # eigenvalues n! / ((n - k)! n^k), k = 0..n, so 1 twice and then 1 - 1/n.
    matrix = build_collocation_matrix(bernstein_operator(n))
    report = classify_spectrum(eigenvalues(matrix), gershgorin_disks(matrix))
    assert abs(report.subdominant_modulus - (1.0 - 1.0 / n)) <= 1e-12


@pytest.mark.parametrize("n", [31, 100, 499])
def test_subdominant_modulus_matches_kantorovich_closed_form(n):
    # Eigenvalues n! / ((n - k)! (n + 1)^k), k = 0..n: 1 once, then n / (n + 1).
    matrix = build_collocation_matrix(kantorovich_operator(n))
    report = classify_spectrum(eigenvalues(matrix), gershgorin_disks(matrix))
    assert abs(report.subdominant_modulus - n / (n + 1)) <= 1e-12
