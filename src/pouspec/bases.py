"""Positive basis systems that form partitions of unity.

Three constructions are provided: Bernstein polynomials, clamped B-splines
and piecewise-linear hat functions. Each returns a :class:`BasisSystem`, an
ordered family ``e_1 .. e_n`` of nonnegative functions on [0, 1] whose
pointwise sum is the constant one there. Each kind has one evaluator of the
whole family: the binomial formula (Bernstein), de Boor's recurrence over
all points at once (B-spline) or one binary search writing two nonzero rows
per point (hat). The module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import CheckResult, nonempty_grid
from .errors import ConfigError
from .functions import require_in_domain

#: Default tolerance for partition-of-unity verification.
TOL_POU = 1e-10

#: Default number of verification grid points: the config's ``grid_points``
#: default and the grid an operator's basis is validated on when built.
DEFAULT_GRID_POINTS = 1001


@dataclass(frozen=True)
class BasisSystem:
    """Ordered family of ``n`` basis functions on [0, 1]. ``evaluate`` maps a
    1-D array of points already checked against [0, 1] (so within
    ``DOMAIN_SLACK`` of it) to the whole family's values, shape ``(n, len(xs))``."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    n: int
    name: str

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("basis system needs at least one function")

    def values(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate all basis functions on ``xs``; shape ``(n, len(xs))``."""
        arr = np.atleast_1d(np.asarray(xs, dtype=float))
        if arr.size == 0:
            return np.empty((self.n, 0))
        require_in_domain(arr, self.name)
        return self.evaluate(arr)

    def __repr__(self) -> str:
        return f"BasisSystem({self.name!r}, n={self.n})"


# --------------------------------------------------------------------------
# Bernstein basis
# --------------------------------------------------------------------------

def make_bernstein_basis(n: int) -> BasisSystem:
    """Bernstein basis of degree ``n`` on [0, 1]: the ``n + 1`` functions
    ``C(n, k) x^k (1 - x)^(n - k)``, ``k = 0 .. n``. The binomial
    coefficients are computed once, with the basis."""
    if n < 1:
        raise ConfigError(f"Bernstein degree must be >= 1, got {n}")
    binomials = [float(math.comb(n, k)) for k in range(n + 1)]

    def evaluate(xs: np.ndarray) -> np.ndarray:
        out = np.empty((n + 1, xs.size))
        rest = 1.0 - xs
        for k, binomial in enumerate(binomials):
            out[k] = binomial * xs ** k * rest ** (n - k)
        return out

    return BasisSystem(evaluate, n + 1, name=f"bernstein({n})")


# --------------------------------------------------------------------------
# B-spline basis (clamped)
# --------------------------------------------------------------------------

def make_bspline_basis(knots: Sequence[float], degree: int) -> BasisSystem:
    """B-spline basis for a clamped knot vector spanning [0, 1].

    ``knots`` must be the full nondecreasing vector with the first and last
    values, 0 and 1, each repeated ``degree + 1`` times, and no knot repeated
    more often, so every B-spline has a nonempty support. Each span is closed
    on the left and the last nonempty one also on the right, so the partition
    of unity holds on the whole of [0, 1].

    Values come from de Boor's recurrence (de Boor, *A Practical Guide to
    Splines*, ch. X), run over all points at once in the order of operations
    of scipy's ``_deBoor_D``, so they equal scipy's
    ``BSpline.design_matrix(x, t, degree).toarray().T`` bit for bit. The
    result is the transpose of a ``(points, n)`` array, the Fortran-ordered
    layout that expression has too: summing over it downstream keeps the
    same order, and so the same roundings.
    """
    t = np.array(knots, dtype=float)
    if degree < 0:
        raise ConfigError(f"degree must be >= 0, got {degree}")
    if t.ndim != 1 or t.size < 2 * (degree + 1):
        raise ConfigError(
            f"need at least {2 * (degree + 1)} knots for degree {degree}, got {t.size}")
    if not np.all(np.diff(t) >= 0):
        raise ConfigError("knot vector must be nondecreasing")
    if not (np.all(t[:degree + 1] == t[0]) and np.all(t[-degree - 1:] == t[-1])):
        raise ConfigError(
            f"knot vector must be clamped: first and last knot repeated {degree + 1} times")
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ConfigError("knot vector must span [0.0, 1.0] exactly, "
                          f"got [{float(t[0])!r}, {float(t[-1])!r}]")
    empty = np.flatnonzero(t[:-degree - 1] == t[degree + 1:])
    if empty.size:
        knot = t[empty[0]]
        raise ConfigError(f"knot {float(knot)!r} is repeated {np.count_nonzero(t == knot)} "
                          f"times, more than degree + 1 = {degree + 1}: "
                          f"B-spline {int(empty[0])} has empty support")
    t.flags.writeable = False
    n = t.size - degree - 1
    # Knot offsets from a point's span ell that the recurrence reads:
    # t[ell - degree + 1] .. t[ell + degree].
    reach = np.arange(1 - degree, degree + 1)[:, None]
    columns = np.arange(degree + 1)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        # Points within DOMAIN_SLACK outside [0, 1] pass the domain check.
        # Adding 0.0 turns -0.0 into 0.0, so no value is a negative zero, as
        # none is in the design matrix, whose toarray adds each to a zero.
        x = np.clip(xs, 0.0, 1.0) + 0.0
        # The span t[ell] <= x < t[ell + 1], and ell = n - 1 at x = 1.
        ell = np.clip(np.searchsorted(t, x, side="right") - 1, degree, n - 1)
        near = t[ell + reach]
        h = np.empty((degree + 1, x.size))
        h[0] = 1.0
        # Knots closer than 1 / DBL_MAX overflow w to inf, as in the compiled
        # recurrence, and the partition-of-unity check reports the result.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, degree + 1):
                hh = h[:j].copy()
                h[0] = 0.0
                for q in range(1, j + 1):
                    # xb > xa: the span ell is nonempty, as no knot repeats
                    # more than degree + 1 times.
                    xb = near[q + degree - 1]
                    xa = near[q - j + degree - 1]
                    w = hh[q - 1] / (xb - xa)
                    h[q - 1] += w * (xb - x)
                    h[q] = w * (x - xa)
        out = np.zeros((x.size, n))
        out[np.arange(x.size)[:, None], (ell - degree)[:, None] + columns] = h.T
        return out.T

    return BasisSystem(evaluate, n, name=f"bspline(deg {degree}, {t.size} knots)")


# --------------------------------------------------------------------------
# Hat basis
# --------------------------------------------------------------------------

def make_hat_basis(nodes: Sequence[float]) -> BasisSystem:
    """Piecewise-linear nodal basis over a partition of [0, 1].

    One hat per node, ``e_k(x_j) = delta_kj``; the partition of unity is
    exact since linear interpolation reproduces the constant one. Row ``k``
    equals ``np.interp`` of the ``k``-th unit vector bit for bit, at points
    within ``DOMAIN_SLACK`` outside [0, 1] too (both clamp to the ends).
    """
    pts = np.array(nodes, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ConfigError("hat basis needs at least 2 nodes")
    if not np.all(np.diff(pts) > 0):
        raise ConfigError("hat basis nodes must be strictly increasing")
    if pts[0] != 0.0 or pts[-1] != 1.0:
        raise ConfigError("hat basis nodes must span the domain [0.0, 1.0] exactly")
    with np.errstate(over="ignore"):
        slopes = 1.0 / np.diff(pts)
    if not np.all(np.isfinite(slopes)):
        k = int(np.argmin(np.isfinite(slopes)))
        raise ConfigError(f"hat basis nodes {float(pts[k])!r} and {float(pts[k + 1])!r} "
                          "are too close: the slope between them overflows")
    # x == pts[-1] lands in a cell past the last node; slope 0 there makes
    # w = 0, so the last hat is 1 and the extra row receiving w is cut off.
    slopes = np.append(slopes, 0.0)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        x = np.clip(xs, pts[0], pts[-1])
        cell = np.searchsorted(pts, x, side="right") - 1
        w = slopes[cell] * (x - pts[cell])
        out = np.zeros((pts.size + 1, x.size))
        cols = np.arange(x.size)
        out[cell, cols] = 1.0 - w
        out[cell + 1, cols] = w
        return out[:-1]

    return BasisSystem(evaluate, pts.size, name=f"hat({pts.size})")


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

def check_partition_of_unity(values: np.ndarray, grid: np.ndarray,
                             tol: float = TOL_POU) -> CheckResult:
    """Max deviation of ``sum_k e_k`` from one over the grid; ``values`` is
    the basis evaluated on ``grid``, shape ``(n, len(grid))``."""
    grid = nonempty_grid(grid, values, "partition-of-unity")
    return CheckResult.deviation_from_one(
        "partition_of_unity", values.sum(axis=0), grid, tol)


def check_nonnegativity(values: np.ndarray, grid: np.ndarray,
                        tol: float = TOL_POU) -> CheckResult:
    """Minimum of any basis function over the grid; passes iff >= -tol.
    ``values`` is the basis evaluated on ``grid``, shape ``(n, len(grid))``."""
    grid = nonempty_grid(grid, values, "nonnegativity")
    k, j = np.unravel_index(np.argmin(values), values.shape)
    return CheckResult(
        name="nonnegativity",
        passed=bool(values[k, j] >= -tol),
        value=float(values[k, j]),
        threshold=tol,
        worst_x=float(grid[j]),
        detail=f"attained by basis function {int(k)}",
    )
