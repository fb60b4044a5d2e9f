"""Collocation matrices, the eigensolver, Gershgorin disks, classification,
powers, and the limit of iterates."""

from __future__ import annotations

import functools

import numpy as np
import numpy.testing as nptest
import pytest

from helpers import (average, bernstein_eigenvalue_oracle, bernstein_value, clamped_knots,
                     collocation_rowwise, dirac, gershgorin_rowwise, in_order,
                     iterate_limit_dense, kantorovich_eigenvalue_oracle,
                     kantorovich_matrix_exact, kantorovich_matrix_oracle, quadrature,
                     random_breakpoints, random_stochastic, rules, sort_eigenvalues_by_key)

from pouspec import spectra
from pouspec.errors import ConfigError, UnsupportedSizeError
from pouspec.functionals import dirac_functionals, interval_average_functionals
from pouspec.bases import (BasisSystem, make_bernstein_basis, make_bspline_basis,
                           make_hat_basis)
from pouspec.operators import OperatorSpec, bernstein_operator, hat_dirac_operator, \
    kantorovich_operator, schoenberg_operator
from pouspec.spectra import (MAX_DIMENSION, ORACLE_MAX_DIMENSION, CollocationMatrix,
                             build_collocation_matrix, check_row_stochastic,
                             classify_spectrum, eigenvalues, gershgorin_disks,
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
        assert report.peripheral.size == 1

    def test_bernstein2_conforms(self):
        report = classify_spectrum(eigenvalues(BERN2), gershgorin_disks(BERN2))
        assert report.classification == "conforms"
        assert report.peripheral.size == 2

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
        assert report.containment_residual <= 1e-9
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


class TestClosedClasses:
    @pytest.mark.parametrize("matrix, labels, periods", [
        (np.eye(3), [0, 1, 2], [1, 1, 1]),
        (SWAP, [0, 0], [2]),
        (BERN2, [0, 2, 1], [1, 1, 0]),
        (JORDAN, [2, 1, 0], [1, 0, 0]),
        # A zero row is a class without an edge: not closed.
        (np.array([[0.0, 1.0], [0.0, 0.0]]), [1, 0], [0, 0]),
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
        assert matrix.diagonal_min() == 0.0 and matrix.entries[1, 1] == 0.5
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
