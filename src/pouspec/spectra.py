"""Collocation matrices and their spectra.

The spectral problem of a positive finite-rank operator built from a basis
``e_1 .. e_n`` and functionals ``a_1 .. a_n`` reduces (away from zero) to
the n-by-n matrix ``M[k][j] = a_k(e_j)``. For a valid operator this matrix
is entrywise nonnegative with unit row sums, so its spectral radius is one,
one is an eigenvalue (all-ones eigenvector), and every Gershgorin disk is
internally tangent to the unit circle at 1 whenever its diagonal entry is
positive. Zero diagonal entries void that tangency argument; the classifier
reports them explicitly instead of asserting the peripheral statement.

The matrix is assembled in one of two forms, chosen by the basis' width,
the most functions nonzero at a point. On a hat or B-spline basis each
node's few nonzero values are added into their entries in node order, so
row ``k`` is the rule's sum ``w_1 e(x_1) + w_2 e(x_2) + ...`` taken from
left to right. On a Bernstein basis, where every function is nonzero, the
dense values are applied block by block, and row ``k`` has the bits of
``basis.values(x) @ w``.

A diagonal matrix's eigenvalues are its entries. The others come from
LAPACK: scipy's symmetric tridiagonal solver for a tridiagonal matrix with
nonnegative off-diagonal products (a hat basis with cell averages,
quadratic B-splines at their Greville points), whose spectrum is real, and
the dense nonsymmetric solver (``geev``) through
:func:`numpy.linalg.eigvals` for every other matrix. An independent cross
check for matrices up to 30x30 runs mpmath's eigensolver in 40-digit
arithmetic. The limit of ``M^m`` is read off the closed classes of the
support graph ``M > 0``, found from its reachability in numpy without
powers of ``M``, and checked by a residual taken class by class.

The module imports no scipy: the tridiagonal solver, ``mpmath`` and
``scipy.optimize`` are imported on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import CheckResult
from .errors import ConfigError, UnsupportedSizeError

#: An eigenvalue is peripheral iff its modulus is >= 1 - TOL_PERIPHERAL.
TOL_PERIPHERAL = 1e-8

#: Row-sum / nonnegativity tolerance for stochasticity checks.
TOL_STOCHASTIC = 1e-10

#: Default bound on the residual of the iterate limit.
ITERATE_TOL = 1e-10

#: Largest supported dense eigenproblem.
MAX_DIMENSION = 500

#: Largest matrix and working precision (decimal digits) of the mpmath
#: eigenvalue oracle.
ORACLE_MAX_DIMENSION = 30
ORACLE_DIGITS = 40

#: Most basis values (basis size times nodes) evaluated at once while the
#: collocation matrix of a basis whose every function may be nonzero at a
#: point is assembled: 2 MB of float64.
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
    """Square matrix of functional-basis pairings ``a_k(e_j)``. A read-only
    float array is held as it is, anything else as a read-only copy."""

    entries: np.ndarray

    def __post_init__(self):
        arr = self.entries
        if not (isinstance(arr, np.ndarray) and arr.dtype == float and not arr.flags.writeable):
            arr = np.array(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ConfigError(f"collocation matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("collocation matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_collocation_matrix(op) -> CollocationMatrix:
    """Assemble ``M[k][j] = a_k(e_j)`` from the operator's joined rule.

    On a basis with fewer than ``n`` functions nonzero at a point (hat,
    B-spline), the basis' local form on all joined nodes at once
    (:meth:`~pouspec.bases.BasisSystem.local`) gives each node's ``width``
    values, and one ``np.bincount`` adds each product ``w_i e_j(x_i)`` into
    its entry in node order: row ``k`` has the bits of the sum ``((0 + w_1
    e_j(x_1)) + w_2 e_j(x_2)) + ...`` over the rule ``x, w =
    op.functionals.rule(k)``, so a Dirac row holds the basis values as
    they are. No dense array of the basis on the nodes is formed.

    On any other basis (Bernstein), the basis is evaluated once per block
    of whole functionals on their joined nodes
    (:meth:`~pouspec.functionals.Functionals.blocks`), each block holding
    at most ``MAX_BLOCK_ENTRIES`` values (a functional larger than that is
    a block of its own). Each run of ``q`` consecutive functionals of one
    rule size ``r`` in a block is then one stacked product ``(q, n, r) @
    (q, r, 1)`` of views of the values and of the joined weights. numpy
    runs it as one matrix-vector product per functional, with the same
    arguments as the row's own ``values[:, s_k:e_k] @ weights[s_k:e_k]``,
    so row ``k`` has the bits of ``basis.values(x) @ w``.

    Every node lies in [0, 1], as :class:`~pouspec.operators.OperatorSpec`
    guarantees, so no evaluation can fail its domain test."""
    n, width = op.basis.n, op.basis.width
    weights, starts = op.functionals.weights, op.functionals.starts
    sizes = np.diff(starts, append=weights.size)
    if width < n:
        first, local = op.basis.local(op.functionals.nodes)
        # Entry index of each node's first value, row by row, then one
        # column per value: node-major, so bincount adds in node order.
        slots = (np.repeat(np.arange(0, n * n, n), sizes) + first)[:, None] + np.arange(width)
        entries = np.bincount(slots.ravel(), (local * weights).T.ravel(), n * n).reshape(n, n)
        entries.flags.writeable = False
        return CollocationMatrix(entries)
    # The functionals whose rule size differs from the one before.
    changes = np.flatnonzero(np.diff(sizes)) + 1
    entries = np.empty((n, n))
    for first, block in op.functionals.blocks(MAX_BLOCK_ENTRIES // n):
        last, lo = first + block.n, starts[first]
        values = op.basis.values(block.nodes)
        cuts = changes[(changes > first) & (changes < last)].tolist()
        for k, end in zip([first] + cuts, cuts + [last]):
            q, r, s = end - k, int(sizes[k]), starts[k]
            rows = values[:, s - lo:s - lo + q * r].reshape(n, q, r).transpose(1, 0, 2)
            entries[k:end] = (rows @ weights[s:s + q * r].reshape(q, r, 1))[:, :, 0]
    entries.flags.writeable = False
    return CollocationMatrix(entries)


def check_row_stochastic(matrix, tol: float = TOL_STOCHASTIC) -> CheckResult:
    """Entrywise nonnegativity (within ``tol``) and unit row sums (within
    ``tol``); reports the worst row: the one that holds the least entry when
    that entry's negative part exceeds every ``|sum - 1|``, else the row of
    the largest ``|sum - 1|``."""
    arr = _as_matrix(matrix)
    row_dev = np.abs(arr.sum(axis=1) - 1.0)
    dev_row = int(np.argmax(row_dev))
    least = np.unravel_index(np.argmin(arr), arr.shape)
    min_entry = float(arr[least])
    worst_row = int(least[0]) if -min_entry > row_dev[dev_row] else dev_row
    worst = max(float(row_dev[dev_row]), -min_entry)
    passed = row_dev[dev_row] <= tol and min_entry >= -tol
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

    A tridiagonal matrix with every ``M[k, k+1] * M[k+1, k] >= 0`` is
    similar, through a positive diagonal matrix, to the symmetric one with
    off-diagonal ``sqrt(|M[k, k+1]|) * sqrt(|M[k+1, k]|)`` (Wilkinson,
    ch. 5): its spectrum is real (imaginary parts exactly 0), and
    :func:`scipy.linalg.eigvalsh_tridiagonal` finds it in O(n^2). When
    every product is zero the spectrum is the diagonal, returned without
    LAPACK; these are the bits LAPACK gives, as it deflates a zero product.
    Every other matrix goes to LAPACK ``geev`` through
    :func:`numpy.linalg.eigvals`. A LAPACK failure on either path raises
    :class:`numpy.linalg.LinAlgError`. Returns a complex array in the
    canonical order of :func:`sort_eigenvalues`; conjugate pairs are exact
    conjugates.
    """
    arr = _as_matrix(matrix)
    n = arr.shape[0]
    if n > MAX_DIMENSION:
        raise UnsupportedSizeError(
            f"dense eigensolver supports n <= {MAX_DIMENSION}, got {n}")
    # Tridiagonal when the three central diagonals hold every nonzero (NaN
    # counts as one).
    if np.count_nonzero(arr) == sum(np.count_nonzero(np.diagonal(arr, k)) for k in (-1, 0, 1)):
        sub, sup = np.diagonal(arr, -1), np.diagonal(arr, 1)
        # Signs, not the product, which may underflow to -0.0.
        if np.all(np.sign(sub) * np.sign(sup) >= 0):
            off = np.sqrt(np.abs(sub)) * np.sqrt(np.abs(sup))
            # A non-finite diagonal goes on to scipy, which rejects it.
            if not off.any() and np.isfinite(np.diagonal(arr)).all():
                return sort_eigenvalues(np.diag(arr))
            # Imported here: only a tridiagonal matrix with a nonzero
            # off-diagonal pair needs scipy.
            import scipy.linalg
            return sort_eigenvalues(scipy.linalg.eigvalsh_tridiagonal(np.diag(arr), off))
    return sort_eigenvalues(np.linalg.eigvals(arr))


# --------------------------------------------------------------------------
# Extended-precision oracle (used as a cross check)
# --------------------------------------------------------------------------

def mpmath_eigen_oracle(matrix) -> np.ndarray:
    """Eigenvalues from :func:`mpmath.eig` in ``ORACLE_DIGITS``-digit
    arithmetic, in the canonical order of :func:`sort_eigenvalues`.

    Independent code, not a different algorithm: ``mpmath.eig`` is also a
    Hessenberg QR iteration, carried out in pure Python at 40 digits, so it
    shares no code with LAPACK and resolves multiple eigenvalues far below
    LAPACK's own ``sqrt(eps)`` error on them. The closed-form spectra of
    the tests carry the large sizes; this is a test oracle up to
    ``ORACLE_MAX_DIMENSION``, not a production solver.
    """
    arr = _as_matrix(matrix)
    n = arr.shape[0]
    if n > ORACLE_MAX_DIMENSION:
        raise UnsupportedSizeError(
            f"mpmath oracle supports n <= {ORACLE_MAX_DIMENSION}, got {n}")
    if n == 1:
        # mpmath 1.3.0 returns (E, ER, EL) for a 1x1 matrix whatever the
        # flags; the entry is the eigenvalue.
        return sort_eigenvalues(arr[0])
    # Imported here: only the oracle command uses it, and mpmath is slow
    # to import.
    import mpmath
    with mpmath.workdps(ORACLE_DIGITS):
        eigs = mpmath.eig(mpmath.matrix(arr.tolist()), left=False, right=False)
    return sort_eigenvalues([complex(v) for v in eigs])


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
    subdominant_modulus: float
    in_disk_union: np.ndarray
    classification: str
    diagnostics: str


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
    eigenvalue lies within ``DISK_CONTAINMENT_TOL`` of the disk union.
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
        subdominant_modulus=subdominant,
        in_disk_union=distances <= DISK_CONTAINMENT_TOL,
        classification=classification,
        diagnostics="; ".join(notes),
    )


# --------------------------------------------------------------------------
# Closed classes and the limit of iterates
# --------------------------------------------------------------------------

def _reachability(support: np.ndarray) -> np.ndarray:
    """``reach[i, j]``: state ``j`` is reachable from ``i`` in zero or more
    steps. The closure of ``support | I``, squared as a float32 product
    until its count of true entries stops growing: at most ``ceil(log2 n)
    + 1`` products. Each entry counts paths, at most ``n < 2^24``, so it is
    exact whatever the BLAS summation order."""
    reach = support | np.eye(support.shape[0], dtype=bool)
    count = np.count_nonzero(reach)
    while True:
        paths = reach.astype(np.float32)
        reach = paths @ paths > 0
        count, previous = np.count_nonzero(reach), count
        if count == previous:
            return reach


def closed_classes(matrix) -> tuple[np.ndarray, np.ndarray]:
    """``(labels, periods)`` of the support graph ``M > 0``: each state's
    strongly connected class, numbered in order of its first state, and
    each class's period, 0 unless the class is closed and has an edge. A
    positive diagonal entry gives period 1; otherwise the period is the gcd
    of ``level[u] + 1 - level[v]`` over the class's edges, ``level`` being
    the BFS depth from the class's first state. The support is read from
    floating entries, so an entry that underflows to 0 drops an edge.

    Two supports need no reachability: one that holds the diagonal and both
    first off-diagonals (an all-positive matrix, say) is one aperiodic
    class, and one within the diagonal makes every state its own class, of
    period 1 where its diagonal entry is positive. Otherwise the classes
    are the rows of equal mutual reachability, from :func:`_reachability`."""
    arr = _as_matrix(matrix)
    n = arr.shape[0]
    support = arr > 0
    diagonal = np.diagonal(support)
    if all(np.diagonal(support, k).all() for k in (-1, 0, 1)):
        return np.zeros(n, np.int32), np.ones(1, int)
    if np.count_nonzero(support) == np.count_nonzero(diagonal):
        return np.arange(n, dtype=np.int32), diagonal.astype(int)
    reach = _reachability(support)
    first, labels = np.unique(np.argmax(reach & reach.T, axis=1), return_inverse=True)
    labels = labels.astype(np.int32)
    count = first.size
    rows, cols = np.divmod(np.flatnonzero(support), n)
    src, dst = labels[rows], labels[cols]
    closed = np.bincount(src[src != dst], minlength=count) == 0
    periods = (closed & (np.bincount(labels, diagonal, count) > 0)).astype(int)
    cyclic = closed & (periods == 0)
    if cyclic.any():
        # One breadth-first search from every cyclic class's first state;
        # the classes are closed, so none reaches another.
        level = np.full(n, -1)
        frontier = np.zeros(n, dtype=bool)
        frontier[first[cyclic]] = True
        depth = 0
        while frontier.any():
            level[frontier] = depth
            frontier = support[frontier].any(axis=0) & (level < 0)
            depth += 1
        edges = cyclic[src]
        steps = level[rows[edges]] + 1 - level[cols[edges]]
        np.gcd.at(periods, src[edges], np.abs(steps))
    return labels, periods


@dataclass(frozen=True)
class IterateResult:
    """``converged`` when every closed class is aperiodic and ``residual =
    max(||LM - L||_inf, ||ML - L||_inf) <= tol``; ``limit`` is ``L`` then,
    else ``None`` and ``message`` says why."""

    converged: bool
    limit: np.ndarray | None
    residual: float
    message: str


def iterate_limit(matrix, tol: float = ITERATE_TOL) -> IterateResult:
    """``L = lim M^m`` from the closed classes of ``M > 0``. For a
    row-stochastic ``M``, L exists iff every closed class is aperiodic, and
    ``L = sum_C h_C pi_C^T`` (Seneta, ch. 4), with ``pi_C`` the stationary
    vector of class ``C`` and ``h_C`` the probability of ending in it. L is
    built and checked class by class, with one Python pass per distinct
    class size, never per class:

    - one batched solve per class size gives the ``pi_C``: each class's
      block of ``I - M`` with its first equation replaced by ``sum(pi_C) =
      1``, so a singleton class has ``pi_C = 1`` exactly;
    - one solve of ``I - Q`` (``Q`` the transient block), with one
      right-hand side per class, gives ``h_C`` on the transient states;
    - the residual ``max(||LM - L||_inf, ||ML - L||_inf)`` is read off two
      numbers per class, its stationarity defect ``r_C = ||pi_C^T M_CC -
      pi_C^T||_1`` and its mass ``||pi_C||_1``. A row ``i`` of class ``C``
      has ``r_C`` and ``|sum_{j in C} M_ij - 1| ||pi_C||_1``; a transient
      row has the sums over the classes of ``|h_C(i)| r_C`` and ``|(M
      h_C)_i - h_C(i)| ||pi_C||_1``. Entries of a closed row outside its
      class's block are not positive and exceed ``-TOL_STOCHASTIC``; the
      residual leaves them out. In exact arithmetic these are the row norms
      of ``LM - L`` and ``ML - L`` (for a transient row of ``LM - L``, a
      bound on it); the residual's last printed digit is rounding.

    The rate of approach is ``SpectrumReport.subdominant_modulus``. A
    matrix that is not row-stochastic within ``TOL_STOCHASTIC`` is a
    :class:`ConfigError` naming its worst row."""
    # C order, so that a column-major input gives the same bits.
    arr = np.ascontiguousarray(_as_matrix(matrix))
    stochastic = check_row_stochastic(arr, TOL_STOCHASTIC)
    if not stochastic.passed:
        raise ConfigError(f"iterate limit needs a row-stochastic matrix: {stochastic.detail}")
    labels, periods = closed_classes(arr)
    closed = periods[labels] > 0
    transient = np.flatnonzero(~closed)
    # The closed states ordered by class size, then class (by its first
    # state), then state, so each class and each size is one run.
    sizes = np.bincount(labels)
    first = np.unique(labels, return_index=True)[1]
    states = np.flatnonzero(closed)
    owner = labels[states]
    states = states[np.lexsort((states, first[owner], sizes[owner]))]
    owner = labels[states]
    new_class = np.empty(states.size, dtype=bool)
    new_class[0] = True
    np.not_equal(owner[1:], owner[:-1], out=new_class[1:])
    class_starts = np.flatnonzero(new_class)
    state_class = np.cumsum(new_class) - 1
    # I - M with each diagonal entry the sum of the other entries of its row
    # (Grassmann, Taksar and Heyman): exact for a stochastic row, it keeps a
    # leak below rounding that 1 - M[i, i] would cancel. It is held in the
    # storage of the limit, which is written only after its last read.
    generator = limit = np.negative(arr)
    np.fill_diagonal(generator, 0.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    # Per class size, the classes' states, one class per row.
    groups = [states[sizes[owner] == size].reshape(-1, size)
              for size in np.unique(sizes[owner]).tolist()]
    # Row a of class q's system is column a of its block of I - M.
    systems = [generator[members[:, None, :], members[:, :, None]] for members in groups]
    if transient.size:
        # Each transient row over its diagonal entry, which a leak may leave subnormal.
        jump = generator[transient] / np.diagonal(generator)[transient, None]
    limit.fill(0.0)
    pis, defects, block_sums = [], [], []
    for members, system in zip(groups, systems):
        system[:, 0] = 1.0
        rhs = np.zeros(members.shape + (1,))
        rhs[:, 0] = 1.0
        pi = np.linalg.solve(system, rhs)[:, :, 0]
        pis.append(pi.ravel())
        blocks = (members[:, :, None], members[:, None, :])
        limit[blocks] = pi[:, None, :]
        inner = arr[blocks]
        defects.append(np.abs((pi[:, None, :] @ inner)[:, 0] - pi).sum(axis=1))
        block_sums.append(inner.sum(axis=2).ravel())
    pi, defect = np.concatenate(pis), np.concatenate(defects)
    masses = np.add.reduceat(pi, class_starts)
    rows_a = [defect]
    rows_b = [np.abs(np.concatenate(block_sums) - 1.0) * masses[state_class]]
    if transient.size:
        # H: one column h_C per class, 1 on C and 0 on the other closed
        # states, held column-major (the layout sets the bits of M_T H).
        hits = np.zeros((class_starts.size, arr.shape[0])).T
        hits[states, state_class] = 1.0
        hits[transient] = np.linalg.solve(
            jump[:, transient], -np.add.reduceat(jump[:, states], class_starts, axis=1))
        limit[np.ix_(transient, states)] = hits[transient][:, state_class] * pi
        rows_a.append((np.abs(hits[transient]) * defect).sum(axis=1))
        drift = arr[transient] @ hits - hits[transient]
        rows_b.append((np.abs(drift, out=drift) * masses).sum(axis=1))
    residual = float(max(np.concatenate(rows_a).max(), np.concatenate(rows_b).max()))

    cyclic = periods[periods > 1].tolist()
    converged = not cyclic and residual <= tol
    if cyclic:
        message = f"no limit: closed class(es) of period {', '.join(map(str, cyclic))}"
    elif not converged:
        message = f"no limit: residual {residual:.3e} > {tol:g}"
    else:
        message = (f"converged: {np.count_nonzero(periods)} closed class(es), "
                   f"residual {residual:.3e}")
    return IterateResult(converged, limit if converged else None, residual, message)
