"""Positive finite-rank operators ``Tf = sum_k a_k(f) e_k`` and their checks.

An :class:`OperatorSpec` pairs a partition-of-unity basis with one
normalized positive functional per basis function, all held as one
joined rule (:class:`~pouspec.functionals.Functionals`). The catalog
factories cover point-evaluation operators on Bernstein and hat bases, the
Kantorovich operator (cell averages against the Bernstein basis), and the
Schoenberg variational operator (point evaluation at Greville abscissae
against a clamped B-spline basis).

A function enters only through its values: :func:`coefficient_vector`
takes a plain vectorized callable and evaluates it once on the joined
nodes ``op.functionals.nodes``. Construction checks the normalization of
every functional in one pass over the joined rule
(:func:`~pouspec.functionals.first_unnormalized`). The verification
helpers measure, on a grid the caller passes in and with seeded random
test functions: constant reproduction, positivity, the unit operator norm
and an explicit nonzero kernel witness. Each takes the grid and
``values``, the basis evaluated on it once by the caller (shape ``(n,
len(grid))``); none evaluates the basis itself. The kernel witness
(:func:`kernel_witness_report`, one routine) is an odd bump on the widest
gap between {0, 1}, the joined nodes and the cell ends of the averages,
evaluated once, on the grid, its peaks and the joined nodes together. It
is 0 at every node, so each rule gives exactly 0 on it, and its halves
cancel over each cell, so each exact average is 0 too. Operators whose
functionals mix interval averages with point rules get no witness: the
check fails with no value and a detail naming the kinds.

The positivity and norm checks draw all their test functions first, as
parameter arrays (:func:`~pouspec.functions.draw_test_functions`), and
run in two passes. Pass 1 works through them in kind-pure blocks of at
most ``TRIAL_BLOCK_VALUES`` values: the block's values on the joined nodes
(the norm check adds the grid, for ``||f||``) in one pass (one Horner loop
for polynomials, a row of the check's table of ``trig(omega x)``, one per
distinct frequency, scaled and shifted for each wave, one ``np.interp``
per piecewise-linear trial), and the coefficients of the whole block by
one :meth:`~pouspec.functionals.Functionals.apply`. It keeps the
``(trials, n)`` coefficient matrix and one bound per trial. ``Tf(x)``
combines the coefficients ``c`` with the basis values at ``x``, which for
a partition of unity sum to one, so ``|Tf| <= max|c|`` and
``Tf >= min(c)``; the bounds scale these by the basis' column sums and
widen them by Higham's rounding-error bound for a dot product. Pass 2 computes images on the
grid, by one stacked product (one matrix-vector product per row), only
for the trials whose bound can still change the result, in bound order,
and stops at the first that cannot. Each computed image has the bits of
``coefficient_vector(op, f) @ values`` taken one function at a time, and a
skipped trial provably cannot reach, or for positivity tie, the reported
value, so every result has the bits of the one-at-a-time check. The
trial that positivity reports is named from its parameters
(:meth:`~pouspec.functions.DrawnTestFunctions.name`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bases import (BasisSystem, DEFAULT_GRID_POINTS, TOL_POU, check_nonnegativity,
                    check_partition_of_unity, make_bernstein_basis,
                    make_bspline_basis, make_hat_basis)
from .checks import CheckResult, nonempty_grid
from .errors import ConfigError
from .functions import draw_test_functions, grid, outside_domain, require_in_domain
from .functionals import (AVERAGE, KIND_NAMES, Functionals, check_functional_normalization,
                          dirac_functionals, first_unnormalized,
                          make_kantorovich_functionals)

#: Residual bound a kernel witness must meet on the verification grid.
WITNESS_RESIDUAL_TOL = 1e-10

#: Most values (test functions times points) the positivity and norm checks
#: hold in one block, 64 KB of float64; a block always holds at least one
#: test function. Smaller blocks pay more Python overhead per function;
#: larger ones raise peak memory: against 2**13, the benchmark's
#: catalog-sweep measured +0.4 MB of peak RSS at 2**14 and +4.7 MB at 2**18.
TRIAL_BLOCK_VALUES = 2 ** 13


@dataclass(frozen=True)
class OperatorSpec:
    """Basis plus functionals of equal count; immutable once built.

    Construction verifies the partition of unity and basis nonnegativity on
    one evaluation of the basis on the default grid, and every functional:
    its nodes lie in [0, 1] and its rule is nonnegative of unit mass. The
    first faulty functional raises :class:`~pouspec.errors.DomainError` or
    :class:`~pouspec.errors.ConfigError`, so no check and no collocation
    assembly tests the nodes again.

    ``default_values`` is the basis on ``grid(DEFAULT_GRID_POINTS)`` that
    construction evaluated (read-only), kept so that checks on that grid
    reuse it; it takes no part in eq, hash or repr.
    """

    basis: BasisSystem
    functionals: Functionals
    name: str = "operator"
    default_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fs = self.functionals
        if fs.n != self.basis.n:
            raise ConfigError(
                f"{self.name}: basis has {self.basis.n} functions but "
                f"{fs.n} functionals were given")
        xs = grid(DEFAULT_GRID_POINTS)
        values = self.basis.values(xs)
        values.flags.writeable = False
        pou = check_partition_of_unity(values, xs)
        if not pou.passed:
            raise ConfigError(
                f"{self.name}: basis violates the partition of unity "
                f"(deviation {pou.value:.3e} at x={pou.worst_x:.6g})")
        # The least value decides; only a failure locates it.
        if not values.min() >= -TOL_POU:
            nn = check_nonnegativity(values, xs)
            raise ConfigError(
                f"{self.name}: basis takes negative values "
                f"({nn.value:.3e} at x={nn.worst_x:.6g})")
        object.__setattr__(self, "default_values", values)
        # Functional k is checked for its nodes, then for its mass, in order
        # of k. One domain test over the joined nodes finds the first
        # functional with a node outside [0, 1], one pass the first
        # unnormalized one; only the first of the two is checked on its own,
        # for the message.
        outside = outside_domain(fs.nodes)
        first_outside = self.n
        if outside.any():
            first_outside = int(np.searchsorted(fs.starts, np.argmax(outside),
                                                side="right")) - 1
        k = first_unnormalized(fs.weights, fs.starts)
        if k < first_outside:
            norm = check_functional_normalization(fs, k)
            raise ConfigError(f"{self.name}: functional {k} ({fs.name(k)}) "
                              f"is not a nonnegative rule of unit mass "
                              f"({norm.detail})")
        if first_outside < self.n:
            require_in_domain(fs.rule(first_outside)[0],
                              f"{self.name}: functional {first_outside} "
                              f"({fs.name(first_outside)})")

    @property
    def n(self) -> int:
        return self.basis.n


# --------------------------------------------------------------------------
# Catalog operators
# --------------------------------------------------------------------------

def bernstein_operator(n: int) -> OperatorSpec:
    """Point-evaluation operator on the Bernstein basis: samples at the
    equally spaced nodes ``k/n``."""
    basis = make_bernstein_basis(n)
    return OperatorSpec(basis, dirac_functionals(np.arange(n + 1) / n),
                        name=f"bernstein(n={n})")


def kantorovich_operator(n: int) -> OperatorSpec:
    """Cell averages over the ``n + 1`` equal subintervals paired with the
    Bernstein basis of degree ``n``."""
    basis = make_bernstein_basis(n)
    return OperatorSpec(basis, make_kantorovich_functionals(n),
                        name=f"kantorovich(n={n})")


def greville_abscissae(knots: Sequence[float], degree: int) -> np.ndarray:
    """Knot averages ``(t_{k+1} + ... + t_{k+degree}) / degree`` for each
    basis function of a clamped knot vector: one ``mean`` over the sliding
    windows of the inner knots, with the bits of each average taken on its
    own."""
    t = np.asarray(knots, dtype=float)
    if degree < 1:
        raise ConfigError(f"Greville abscissae need degree >= 1, got {degree}")
    if t.size < degree + 2:
        return np.empty(0)
    return sliding_window_view(t[1:-1], degree).mean(axis=1)


def schoenberg_operator(knots: Sequence[float], degree: int) -> OperatorSpec:
    """Point evaluation at the Greville abscissae against the clamped
    B-spline basis for ``knots``."""
    basis = make_bspline_basis(knots, degree)
    return OperatorSpec(basis, dirac_functionals(greville_abscissae(knots, degree)),
                        name=f"schoenberg(deg {degree}, n={basis.n})")


def hat_dirac_operator(nodes: Sequence[float]) -> OperatorSpec:
    """Nodal interpolation: hat basis over a partition with point evaluation
    at the same nodes. Its collocation matrix is the identity."""
    basis = make_hat_basis(nodes)
    return OperatorSpec(basis, dirac_functionals(nodes), name=f"hat-dirac({basis.n})")


# --------------------------------------------------------------------------
# Application
# --------------------------------------------------------------------------

def coefficient_vector(op: OperatorSpec,
                       f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The vector ``(a_k(f))_k``: the vectorized callable ``f`` is evaluated
    once on the operator's joined nodes, then weighted and summed per
    functional. ``Tf`` on points ``xs`` is this vector times the basis
    values there."""
    return op.functionals.apply(f(op.functionals.nodes))


# --------------------------------------------------------------------------
# Lemma verification
# --------------------------------------------------------------------------

def verify_constant_reproduction(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                                 tol: float = WITNESS_RESIDUAL_TOL) -> CheckResult:
    """Max deviation of ``T1`` from one on the grid; the coefficients of the
    constant one are the functionals' masses."""
    grid = nonempty_grid(grid, values, "constant-reproduction")
    return CheckResult.deviation_from_one(
        "constant_reproduction", coefficient_vector(op, np.ones_like) @ values, grid, tol)


def _images(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``Tf`` on the grid for each row of ``coeffs``. Row ``i`` has the bits
    of ``coeffs[i] @ values``: numpy runs the stacked product as one
    matrix-vector product per row (one ``coeffs @ values`` matrix product
    would not give the same bits)."""
    return (coeffs[:, None, :] @ values)[:, 0]


# Bounds on computed images. For a coefficient row ``c``, every computed
# entry of ``c @ values`` lies within ``gamma_n sum_k |c_k v_kj|`` plus
# ``n 2**-1075`` of the exact sum, in any summation order, with or without
# FMA (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
# section 3.1; ``gamma_m = m u / (1 - m u)``, ``u = 2**-53``). With
# ``S_j = sum_k |v_kj|`` that gives ``|Tf(x_j)| <= max|c| S_j (1 + gamma)``
# and, for a nonnegative basis, ``Tf(x_j) >= min(c) S_j - max|c| S_j gamma``,
# each up to the underflow slack. The bounds take ``gamma = gamma_m`` and
# the slack ``m 2**-1074`` with ``m = 2n + 8``, which covers the product's
# own ``n`` terms, the ``n + 1`` of the computed column sums ``S_j`` and
# the few roundings that form each bound.

def _bound_terms(values: np.ndarray) -> tuple[np.ndarray, bool, float, float]:
    """``(S, nonnegative, gamma, slack)``: the column sums ``sum_k |v_kj|``,
    whether every basis value is >= 0, and the error factor and slack."""
    nonnegative = bool(values.min() >= 0.0)
    sums = (values if nonnegative else np.abs(values)).sum(axis=0)
    m = 2 * values.shape[0] + 8
    u = np.finfo(float).eps / 2
    return sums, nonnegative, m * u / (1.0 - m * u), m * 2.0 ** -1074


def _image_upper_bounds(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row of ``coeffs``, at least ``max |_images(coeffs, values)|``."""
    sums, _, gamma, slack = _bound_terms(values)
    return np.abs(coeffs).max(axis=1) * (sums.max() * (1.0 + gamma)) + slack


def _image_lower_bounds(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row of ``coeffs``, at most ``min _images(coeffs, values)``: from
    ``min(c)`` over a nonnegative basis, else from ``-max|c|``."""
    sums, nonnegative, gamma, slack = _bound_terms(values)
    if not nonnegative:
        return -_image_upper_bounds(coeffs, values)
    s_max = sums.max()
    c_min = coeffs.min(axis=1)
    return (c_min * np.where(c_min >= 0.0, sums.min(), s_max)
            - (np.abs(coeffs).max(axis=1) * (s_max * gamma) + slack))


def verify_positivity(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                      trials: int = 100, tol: float = WITNESS_RESIDUAL_TOL,
                      seed: int = 42) -> CheckResult:
    """Minimum of ``Tf`` over the grid across seeded nonnegative ``f``; the
    first trial to reach the minimum names it.

    Pass 1 forms every trial's coefficients and a lower bound of its image
    (see :func:`_image_lower_bounds`); pass 2 computes the images in ascending
    order of that bound and stops at the first bound above the worst found,
    which no later trial can reach or tie."""
    grid = nonempty_grid(grid, values, "positivity")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    draw = draw_test_functions(np.random.default_rng(seed), trials, nonnegative=True)
    coeffs = np.empty((trials, op.n))
    nodes = op.functionals.nodes
    for rows, on_nodes in draw.blocks(TRIAL_BLOCK_VALUES // nodes.size, nodes):
        coeffs[rows] = op.functionals.apply(on_nodes)
    lower = _image_lower_bounds(coeffs, values)
    # The worst is the least (value, trial) pair, so a tie goes to the
    # first trial: a trial whose bound equals the worst value is computed.
    worst = (np.inf, trials)
    worst_x = None
    order = np.argsort(lower, kind="stable")
    size = max(1, TRIAL_BLOCK_VALUES // grid.size)
    for start in range(0, trials, size):
        rows = order[start:start + size]
        rows = np.sort(rows[lower[rows] <= worst[0]])
        if rows.size == 0:
            break
        images = _images(coeffs[rows], values)
        cols = np.argmin(images, axis=1)
        mins = images[np.arange(rows.size), cols]
        k = int(np.argmin(mins))
        if (mins[k], rows[k]) < worst:
            worst = (float(mins[k]), int(rows[k]))
            worst_x = float(grid[cols[k]])
    worst_val, worst_trial = worst
    worst_name = draw.name(worst_trial) if worst_trial < trials else ""
    return CheckResult(
        name="positivity",
        passed=bool(worst_val >= -tol),
        value=worst_val,
        threshold=tol,
        worst_x=worst_x,
        detail=f"worst over {trials} nonnegative samples, at f = {worst_name}",
    )


def estimate_operator_norm(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                           trials: int = 200, seed: int = 42) -> float:
    """Max of ``||Tf||_inf / ||f||_inf`` over the constant one plus seeded
    random test functions (sup norms on the grid); a function with
    ``||f||_inf < 1e-12`` is skipped. The constant attains the exact norm 1,
    so the estimate is a tight lower bound of it.

    Pass 1 evaluates each block of drawn functions once, on the joined
    nodes followed by the grid, and keeps the coefficients, ``||f||`` and an
    upper bound of the ratio (see :func:`_image_upper_bounds`); pass 2 computes
    the images in descending order of that bound and stops at the first
    bound at or below the best ratio found."""
    grid = nonempty_grid(grid, values, "norm-estimate")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    require_in_domain(grid, "norm-estimate check grid")
    draw = draw_test_functions(np.random.default_rng(seed), trials)
    nodes = op.functionals.nodes.size
    # The constant one, ||1||_inf = 1 on the grid.
    best = float(np.abs(_images(op.functionals.apply(np.ones((1, nodes))), values)).max())
    points = np.concatenate((op.functionals.nodes, grid))
    coeffs = np.empty((trials, op.n))
    denom = np.empty(trials)
    for rows, block_values in draw.blocks(TRIAL_BLOCK_VALUES // points.size, points):
        on_grid = block_values[:, nodes:]
        denom[rows] = np.abs(on_grid, out=on_grid).max(axis=1)
        coeffs[rows] = op.functionals.apply(block_values[:, :nodes])
    # Rounding is monotone: a computed max |Tf| at most the bound gives a
    # computed ratio at most the bound over the same ||f||.
    upper = np.full(trials, -np.inf)
    np.divide(_image_upper_bounds(coeffs, values), denom, out=upper, where=denom >= 1e-12)
    order = np.argsort(-upper, kind="stable")
    size = max(1, TRIAL_BLOCK_VALUES // grid.size)
    for start in range(0, trials, size):
        rows = order[start:start + size]
        rows = rows[upper[rows] > best]
        if rows.size == 0:
            break
        images = _images(coeffs[rows], values)
        np.abs(images, out=images)
        best = float(np.max(images.max(axis=1) / denom[rows], initial=best))
    return best


def verify_norm_bound(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                      trials: int = 200, seed: int = 42,
                      tol: float = WITNESS_RESIDUAL_TOL) -> CheckResult:
    """Norm estimate on the grid packaged as a check: passes iff the estimate
    lies in ``[1 - 1e-12, 1 + tol]`` (the unit ball bound, attained at one)."""
    estimate = estimate_operator_norm(op, grid, values, trials=trials, seed=seed)
    passed = 1.0 - 1e-12 <= estimate <= 1.0 + tol
    return CheckResult(
        name="norm_estimate",
        passed=bool(passed),
        value=estimate,
        threshold=tol,
        detail=f"max ||Tf||/||f|| over constant one and {trials} samples",
    )


# --------------------------------------------------------------------------
# Kernel witness
# --------------------------------------------------------------------------

def kernel_witness_report(op: OperatorSpec, grid: np.ndarray,
                          values: np.ndarray) -> CheckResult:
    """``||Tw||`` on the grid as a check, passed iff at most
    ``WITNESS_RESIDUAL_TOL``, for ``w`` the hat of height one on ``[lo,
    mid]`` minus the hat on ``[mid, hi]``, on the first widest gap ``[lo,
    hi]`` between points of {0, 1}, the joined nodes and the cell ends of
    the averages. No node lies inside the gap, so every ``a_k(w)`` is
    exactly 0; each cell holds the whole gap or none of it, so each exact
    average is 0. The peaks bring ``||w||`` to 1 on any grid."""
    grid = nonempty_grid(grid, values, "kernel-witness")
    fs = op.functionals
    average = fs.kinds == AVERAGE
    # The bump serves mixed kinds too; they are refused only while the
    # benchmark references record these operators as failing (ROADMAP item 2).
    if average.any() and not average.all():
        kinds = sorted({KIND_NAMES[kind] for kind in fs.kinds.tolist()})
        return CheckResult(name="kernel_residual", passed=False, value=None,
                           threshold=WITNESS_RESIDUAL_TOL,
                           detail=f"{op.name}: no analytic kernel witness for mixed "
                                  f"functional kinds {kinds}")
    ends = np.unique(np.concatenate(([0.0, 1.0], fs.nodes, fs.a[average], fs.b[average])))
    k = int(np.argmax(np.diff(ends)))
    lo, hi = ends[k], ends[k + 1]
    mid = lo + (hi - lo) / 2
    peaks = [lo + (mid - lo) / 2, mid + (hi - mid) / 2]
    points = np.concatenate((grid, peaks, fs.nodes))
    left, right = (np.maximum(np.minimum(points - a, b - points), 0.0) / ((b - a) / 2)
                   for a, b in ((lo, mid), (mid, hi)))
    w = left - right
    residual = float(np.max(np.abs(fs.apply(w[grid.size + 2:]) @ values)))
    return CheckResult(
        name="kernel_residual",
        passed=bool(residual <= WITNESS_RESIDUAL_TOL),
        value=residual,
        threshold=WITNESS_RESIDUAL_TOL,
        detail=f"witness odd bump on [{lo:.6g}, {hi:.6g}], "
               f"||w||_inf = {float(np.abs(w[:grid.size + 2]).max()):.6g}",
    )
