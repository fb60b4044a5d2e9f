"""Collocation matrices and their spectra.

The spectral problem of a positive finite-rank operator built from a basis
``e_1 .. e_n`` and functionals ``a_1 .. a_n`` reduces (away from zero) to
the n-by-n matrix ``M[k][j] = a_k(e_j)``. For a valid operator this matrix
is entrywise nonnegative with unit row sums, so its spectral radius is one,
one is an eigenvalue (all-ones eigenvector), and every Gershgorin disk is
internally tangent to the unit circle at 1 whenever its diagonal entry is
positive. Zero diagonal entries void that tangency argument; the classifier
reports them explicitly instead of asserting the peripheral statement.

The eigenvalues come from LAPACK's dense nonsymmetric solver (``geev``)
through scipy. An independent cross check for small matrices computes the
characteristic polynomial by the Faddeev-LeVerrier recursion and finds its
roots in closed form (degree at most two) or through the companion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .checks import CheckResult
from .errors import ConfigError, DomainError, UnsupportedSizeError

#: An eigenvalue is peripheral iff its modulus is >= 1 - TOL_PERIPHERAL.
TOL_PERIPHERAL = 1e-8

#: Row-sum / nonnegativity tolerance for stochasticity checks.
TOL_STOCHASTIC = 1e-10

#: Default convergence bound and largest power of the power-limit search.
ITERATE_TOL = 1e-10
ITERATE_M_MAX = 65536

#: Largest supported dense eigenproblem.
MAX_DIMENSION = 500

#: Most basis values (basis size times nodes) evaluated at once while the
#: collocation matrix is assembled: 2 MB of float64.
MAX_BLOCK_ENTRIES = 2 ** 18


def _as_matrix(matrix) -> np.ndarray:
    entries = matrix.entries if isinstance(matrix, CollocationMatrix) else matrix
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ConfigError("matrix must have dimension >= 1")
    return arr


@dataclass(frozen=True)
class CollocationMatrix:
    """Square matrix of functional-basis pairings ``a_k(e_j)``."""

    entries: np.ndarray
    name: str = ""

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ConfigError(f"collocation matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("collocation matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def diagonal_min(self) -> float:
        return float(np.min(np.diag(self.entries)))


def _collocation_row(op, k: int) -> np.ndarray:
    """Row ``k`` from its own basis evaluation; a node outside [0, 1] is
    re-raised naming row ``k`` and its functional."""
    functional = op.functionals[k]
    try:
        return op.basis.values(functional.nodes) @ functional.weights
    except DomainError as exc:
        raise DomainError(f"collocation row {k} ({functional.name}): {exc}") from exc


def build_collocation_matrix(op) -> CollocationMatrix:
    """Assemble ``M[k][j] = a_k(e_j)`` from the operator's joined rule.

    The basis is evaluated once per block of whole functionals on their
    joined nodes ``op.nodes``, each block holding at most
    ``MAX_BLOCK_ENTRIES`` values (a functional larger than that is a block
    of its own). Row ``k`` is then one matrix-vector product,
    ``values[:, s_k:e_k] @ op.weights[s_k:e_k]``, with the same result bit
    for bit as ``basis.values(a_k.nodes) @ a_k.weights``. A node outside
    [0, 1] is re-raised naming the first such row ``k`` and its functional."""
    n = op.basis.n
    starts = op.starts
    stops = np.append(starts[1:], op.nodes.size)
    budget = MAX_BLOCK_ENTRIES // n
    entries = np.empty((n, n))
    first = 0
    while first < n:
        lo = starts[first]
        last = max(first + 1, int(np.searchsorted(stops, lo + budget, side="right")))
        try:
            values = op.basis.values(op.nodes[lo:stops[last - 1]])
        except DomainError:
            for k in range(first, last):
                _collocation_row(op, k)
            raise
        for k in range(first, last):
            s, e = starts[k], stops[k]
            entries[k] = values[:, s - lo:e - lo] @ op.weights[s:e]
        first = last
    return CollocationMatrix(entries, name=op.name)


def check_row_stochastic(matrix, tol: float = TOL_STOCHASTIC) -> CheckResult:
    """Entrywise nonnegativity (within ``tol``) and unit row sums (within
    ``tol``); reports the worst row."""
    arr = _as_matrix(matrix)
    row_dev = np.abs(arr.sum(axis=1) - 1.0)
    worst_row = int(np.argmax(row_dev))
    min_entry = float(arr.min())
    worst = max(float(row_dev[worst_row]), max(0.0, -min_entry))
    passed = row_dev[worst_row] <= tol and min_entry >= -tol
    return CheckResult(
        name="row_stochastic",
        passed=bool(passed),
        value=worst,
        threshold=tol,
        detail=(f"worst row {worst_row}: |sum - 1| = {row_dev[worst_row]:.3e}, "
                f"min entry = {min_entry:.3e}"),
    )


# --------------------------------------------------------------------------
# Eigensolver
# --------------------------------------------------------------------------

def _moduli(eigs: np.ndarray) -> np.ndarray:
    """``|lambda|`` of each entry, bit for bit Python's ``abs`` of a complex;
    ``np.abs`` of a complex array differs from it in the last bit."""
    return np.hypot(eigs.real, eigs.imag)


def sort_eigenvalues(values: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Canonical order: descending modulus, then descending real part, then
    descending imaginary part (conjugate pairs adjacent, + before -). One
    stable ``np.lexsort``; the modulus is Python's ``abs``, so near-ties
    order as they print."""
    arr = np.asarray(values, dtype=complex)
    return arr[np.lexsort((-arr.imag, -arr.real, -_moduli(arr)))]


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a real square matrix.

    LAPACK ``geev`` (balancing, Hessenberg reduction, Francis QR) through
    :func:`scipy.linalg.eigvals`; a LAPACK failure raises
    :class:`numpy.linalg.LinAlgError`. Returns a complex array in the
    canonical order of :func:`sort_eigenvalues`; conjugate pairs are exact
    conjugates.
    """
    arr = _as_matrix(matrix)
    n = arr.shape[0]
    if n > MAX_DIMENSION:
        raise UnsupportedSizeError(
            f"dense eigensolver supports n <= {MAX_DIMENSION}, got {n}")
    return sort_eigenvalues(scipy.linalg.eigvals(arr))


# --------------------------------------------------------------------------
# Characteristic-polynomial oracle (small matrices, used as a cross check)
# --------------------------------------------------------------------------

def characteristic_polynomial(matrix) -> np.ndarray:
    """Coefficients ``[1, c_1, ..., c_n]`` of ``det(lambda I - A)`` in
    descending powers, by the Faddeev-LeVerrier trace recursion."""
    a = _as_matrix(matrix)
    n = a.shape[0]
    coeffs = [1.0]
    ak = a.copy()
    c = -float(np.trace(ak))
    coeffs.append(c)
    for k in range(2, n + 1):
        ak = a @ (ak + c * np.eye(n))
        c = -float(np.trace(ak)) / k
        coeffs.append(c)
    return np.asarray(coeffs)


def _quadratic_roots(b: float, c: float) -> list[complex]:
    """Roots of ``x^2 + b x + c`` without subtractive cancellation."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        if q == 0.0:
            return [complex(0.0), complex(0.0)]
        return [complex(q), complex(c / q)]
    q = 0.5 * math.sqrt(-disc)
    return [complex(-b / 2.0, q), complex(-b / 2.0, -q)]


def char_poly_eigen_oracle(matrix) -> np.ndarray:
    """Eigenvalues via explicit characteristic-polynomial coefficients.

    Independent of the LAPACK path: Faddeev-LeVerrier for the coefficients,
    then the quadratic formula (degree <= 2) or companion-matrix root
    finding (degree 3 to 5). Going through the polynomial squares the
    sensitivity of multiple roots, so this is a test oracle for small
    matrices, not a production solver.
    """
    a = _as_matrix(matrix)
    n = a.shape[0]
    if n > 5:
        raise UnsupportedSizeError(f"characteristic-polynomial oracle supports n <= 5, got {n}")
    coeffs = characteristic_polynomial(a)
    if n == 1:
        roots = [complex(-coeffs[1])]
    elif n == 2:
        roots = _quadratic_roots(float(coeffs[1]), float(coeffs[2]))
    else:
        roots = list(np.roots(coeffs))
    return sort_eigenvalues(roots)


def pair_eigenvalues(left, right) -> float:
    """Largest pairwise distance under the minimal-cost bipartite matching
    of two equal-size eigenvalue multisets."""
    a = np.asarray(left, dtype=complex)
    b = np.asarray(right, dtype=complex)
    if a.size != b.size:
        raise ConfigError(f"multiset sizes differ: {a.size} vs {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    # Imported here: only the oracle command pairs eigenvalues, and
    # scipy.optimize is slow to import.
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# --------------------------------------------------------------------------
# Gershgorin disks and spectrum classification
# --------------------------------------------------------------------------

def gershgorin_disks(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Disks as two read-only arrays ``(centers, radii)``: disk ``k`` is
    centered at the diagonal entry ``M[k][k]``, and its radius is the
    off-diagonal absolute row sum ``sum_j |M[k][j]| - |M[k][k]|``. The
    matrix is made C-contiguous first, so each radius is the same bit for
    bit as that sum taken over the one row."""
    arr = np.ascontiguousarray(_as_matrix(matrix))
    centers = arr.diagonal().copy()
    radii = np.abs(arr).sum(axis=1) - np.abs(centers)
    centers.flags.writeable = False
    radii.flags.writeable = False
    return centers, radii


def distance_outside_disks(eigs, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """For each eigenvalue, its distance outside the union of the disks
    (``<= 0`` inside): ``min_k |lambda - centers[k]| - radii[k]``."""
    lam = np.asarray(eigs, dtype=complex)
    # Updated in place, so only one n-by-n array is live.
    gaps = lam.real[:, None] - centers[None, :]
    np.hypot(gaps, lam.imag[:, None], out=gaps)
    gaps -= radii
    return gaps.min(axis=1)


CLASSIFICATION_CONFORMS = "conforms"
CLASSIFICATION_VIOLATES = "violates-theorem"
CLASSIFICATION_INCONCLUSIVE = "inconclusive-zero-diagonal"

#: Allowed slack when verifying that eigenvalues lie in the disk union.
DISK_CONTAINMENT_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues in canonical order with their ``moduli`` (Python's
    ``abs`` of each, bit for bit), the disks as ``(centers, radii)``
    arrays, and the verdict on the peripheral spectrum."""

    eigenvalues: np.ndarray
    moduli: np.ndarray
    disks: tuple[np.ndarray, np.ndarray]
    peripheral: np.ndarray
    subdominant_modulus: float
    in_disk_union: np.ndarray
    classification: str
    diagnostics: str
    containment_residual: float


def classify_spectrum(eigs, disks: tuple[np.ndarray, np.ndarray],
                      tol_peripheral: float = TOL_PERIPHERAL) -> SpectrumReport:
    """Classify a computed spectrum; the one place that reads it.

    ``conforms``: every modulus is <= 1 + tol and every peripheral
    eigenvalue (modulus >= 1 - tol) lies within tol of 1. A peripheral
    eigenvalue away from 1 yields ``violates-theorem``. When some disk
    center sits at or below tol the disk union reaches the whole unit
    circle, so a conforming spectrum is downgraded to
    ``inconclusive-zero-diagonal``: the tangency argument cannot certify it.
    ``disks`` is the ``(centers, radii)`` pair of :func:`gershgorin_disks`.

    Every modulus is read from ``moduli``, the one ``|lambda|`` of the
    report, so the rate, the verdict and the emitted moduli agree. Also
    recorded: ``subdominant_modulus``, the largest modulus among the
    non-peripheral eigenvalues (0.0 when every eigenvalue is peripheral),
    which is the rate at which ``M^m`` approaches its limit when 1 is the
    only peripheral eigenvalue; and ``in_disk_union``, whether each
    eigenvalue lies within ``DISK_CONTAINMENT_TOL`` of the disk union, with
    ``containment_residual`` the largest distance outside it.
    """
    arr = sort_eigenvalues(np.asarray(eigs, dtype=complex))
    centers, radii = disks
    moduli = _moduli(arr)
    is_peripheral = moduli >= 1.0 - tol_peripheral
    peripheral = arr[is_peripheral]
    subdominant = float(moduli[~is_peripheral].max(initial=0.0))

    distances = distance_outside_disks(arr, centers, radii)
    residual = float(distances.max(initial=0.0))

    bound_ok = bool(np.all(moduli <= 1.0 + tol_peripheral))
    peripheral_ok = bool(np.all(np.abs(peripheral - 1.0) <= tol_peripheral))
    zero_diag = bool(np.any(centers <= tol_peripheral))

    notes = [f"{peripheral.size} peripheral eigenvalue(s) with |lambda| >= "
             f"{1.0 - tol_peripheral:.9g}"]
    if not bound_ok:
        notes.append(f"spectral bound violated: max |lambda| = {moduli.max():.12g}")
    if not peripheral_ok:
        worst = peripheral[np.argmax(np.abs(peripheral - 1.0))]
        notes.append(f"peripheral eigenvalue away from 1: {worst:.12g}")
    if zero_diag:
        notes.append("zero diagonal entry: some Gershgorin disk equals the "
                     "closed unit disk, so the disk argument cannot isolate 1 "
                     "on the unit circle")
    if residual > DISK_CONTAINMENT_TOL:
        notes.append(f"WARNING: eigenvalue outside the disk union by {residual:.3e}")

    if not (bound_ok and peripheral_ok):
        classification = CLASSIFICATION_VIOLATES
    elif zero_diag:
        classification = CLASSIFICATION_INCONCLUSIVE
    else:
        classification = CLASSIFICATION_CONFORMS

    return SpectrumReport(
        eigenvalues=arr,
        moduli=moduli,
        disks=(centers, radii),
        peripheral=peripheral,
        subdominant_modulus=subdominant,
        in_disk_union=distances <= DISK_CONTAINMENT_TOL,
        classification=classification,
        diagnostics="; ".join(notes),
        containment_residual=residual,
    )


# --------------------------------------------------------------------------
# Matrix powers and the limit of iterates
# --------------------------------------------------------------------------

def _linf(a: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(a), axis=1)))


@dataclass(frozen=True)
class IterateResult:
    """Outcome of the power-limit search. ``converged`` distinguishes a
    reached limit from an obstruction (which ``message`` names)."""

    converged: bool
    limit: np.ndarray | None
    m_used: int
    message: str


def iterate_limit(matrix, tol: float = ITERATE_TOL,
                  m_max: int = ITERATE_M_MAX) -> IterateResult:
    """Search for the limit of ``M^m`` by repeated squaring.

    Doubles ``m`` until ``||M^{2m} - M^m||_inf <= tol`` or ``m > m_max``.
    The rate of approach is not estimated here: it is the spectrum's
    ``SpectrumReport.subdominant_modulus``. Failure to settle (e.g. a
    peripheral eigenvalue other than 1) is reported as a result, not an
    error.
    """
    arr = _as_matrix(matrix)
    if m_max < 2:
        raise ConfigError(f"m_max must be >= 2, got {m_max}")
    power = arr.copy()
    m = 1
    limit = None
    while m <= m_max:
        squared = power @ power
        # The doubling test alone is blind to even-period oscillation
        # (M^4 = M^2 for the swap matrix), so the candidate limit must
        # also be stationary under one further multiplication.
        if _linf(squared - power) <= tol and _linf(squared @ arr - squared) <= tol:
            limit = squared
            break
        power = squared
        m *= 2

    if limit is None:
        message = f"no convergence: ||M^(2m) - M^m||_inf > {tol:g} up to m = {m_max}"
        # Name the obstruction when the sequence is periodic.
        probe = np.linalg.matrix_power(arr, 16)
        step1 = _linf(probe @ arr - probe)
        step2 = _linf(probe @ arr @ arr - probe)
        if step2 <= 1e-8 and step1 > 1e-8:
            message += "; period-2 oscillation detected (M^(m+2) = M^m, M^(m+1) != M^m)"
        return IterateResult(converged=False, limit=None, m_used=m_max, message=message)

    return IterateResult(
        converged=True, limit=limit, m_used=m,
        message=f"converged: ||M^(2m) - M^m||_inf <= {tol:g} at m = {m}",
    )
