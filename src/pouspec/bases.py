"""Positive basis systems that form partitions of unity.

Three constructions are provided: Bernstein polynomials, clamped B-splines
and piecewise-linear hat functions. Each returns a :class:`BasisSystem`, an
ordered family ``e_1 .. e_n`` of nonnegative functions whose pointwise sum
is the constant one on the domain. Each kind has one evaluator of the whole
family: the binomial formula (Bernstein), scipy's design matrix (B-spline)
or one binary search writing two nonzero rows per point (hat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import CheckResult
from .errors import ConfigError
from .functions import Interval, UNIT_INTERVAL

#: Default tolerance for partition-of-unity verification.
TOL_POU = 1e-10

#: Default number of verification grid points: the config's ``grid_points``
#: default and the grid an operator's basis is validated on when built.
DEFAULT_GRID_POINTS = 1001


@dataclass(frozen=True)
class BasisSystem:
    """Ordered family of ``n`` basis functions on a shared domain. ``evaluate``
    maps a 1-D array of points already checked against ``domain`` (so within
    ``DOMAIN_SLACK`` of it) to the whole family's values, shape ``(n, len(xs))``."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    n: int
    domain: Interval
    name: str

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("basis system needs at least one function")

    def values(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate all basis functions on ``xs``; shape ``(n, len(xs))``."""
        arr = np.atleast_1d(np.asarray(xs, dtype=float))
        if arr.size == 0:
            return np.empty((self.n, 0))
        self.domain.require(arr, self.name)
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

    return BasisSystem(evaluate, n + 1, UNIT_INTERVAL, name=f"bernstein({n})")


# --------------------------------------------------------------------------
# B-spline basis (clamped)
# --------------------------------------------------------------------------

def clamped_knots(breakpoints: Sequence[float], degree: int) -> np.ndarray:
    """Full clamped knot vector from strictly increasing breakpoints:
    the first and last breakpoints are repeated ``degree + 1`` times."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ConfigError("need at least two breakpoints")
    if np.any(np.diff(bp) <= 0):
        raise ConfigError("breakpoints must be strictly increasing")
    if degree < 0:
        raise ConfigError("degree must be >= 0")
    return np.concatenate((np.repeat(bp[0], degree), bp, np.repeat(bp[-1], degree)))


def make_bspline_basis(knots: Sequence[float], degree: int) -> BasisSystem:
    """B-spline basis for a clamped knot vector spanning [0, 1].

    ``knots`` must be the full nondecreasing vector with the first and last
    values, 0 and 1, each repeated ``degree + 1`` times. Values come from
    :meth:`scipy.interpolate.BSpline.design_matrix`; each span is closed on
    the left and the last nonempty one also on the right, so the partition
    of unity holds on the whole of [0, 1].
    """
    t = np.array(knots, dtype=float)
    if degree < 0:
        raise ConfigError(f"degree must be >= 0, got {degree}")
    if t.ndim != 1 or t.size < 2 * (degree + 1):
        raise ConfigError(
            f"need at least {2 * (degree + 1)} knots for degree {degree}, got {t.size}")
    if np.any(np.diff(t) < 0):
        raise ConfigError("knot vector must be nondecreasing")
    if not (np.all(t[:degree + 1] == t[0]) and np.all(t[-degree - 1:] == t[-1])):
        raise ConfigError(
            f"knot vector must be clamped: first and last knot repeated {degree + 1} times")
    domain = UNIT_INTERVAL
    if t[0] != domain.lo or t[-1] != domain.hi:
        raise ConfigError(f"knot vector must span [{domain.lo}, {domain.hi}] exactly, "
                          f"got [{float(t[0])!r}, {float(t[-1])!r}]")
    t.flags.writeable = False
    # Imported here: scipy.interpolate is a large package that only B-spline
    # bases need, so other runs do not pay for loading it.
    from scipy.interpolate import BSpline

    def evaluate(xs: np.ndarray) -> np.ndarray:
        # Points within DOMAIN_SLACK outside [0, 1] pass the domain check.
        return BSpline.design_matrix(np.clip(xs, 0.0, 1.0), t, degree).toarray().T

    return BasisSystem(evaluate, t.size - degree - 1, domain,
                       name=f"bspline(deg {degree}, {t.size} knots)")


# --------------------------------------------------------------------------
# Hat basis
# --------------------------------------------------------------------------

def make_hat_basis(nodes: Sequence[float], domain: Interval = UNIT_INTERVAL) -> BasisSystem:
    """Piecewise-linear nodal basis over a partition of the domain.

    One hat per node, ``e_k(x_j) = delta_kj``; the partition of unity is
    exact since linear interpolation reproduces the constant one. Row ``k``
    equals ``np.interp`` of the ``k``-th unit vector bit for bit, at points
    within ``DOMAIN_SLACK`` outside the domain too (both clamp to the ends).
    """
    pts = np.array(nodes, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ConfigError("hat basis needs at least 2 nodes")
    if np.any(np.diff(pts) <= 0):
        raise ConfigError("hat basis nodes must be strictly increasing")
    if pts[0] != domain.lo or pts[-1] != domain.hi:
        raise ConfigError(
            f"hat basis nodes must span the domain [{domain.lo}, {domain.hi}] exactly")
    # x == pts[-1] lands in a cell past the last node; slope 0 there makes
    # w = 0, so the last hat is 1 and the extra row receiving w is cut off.
    slopes = np.append(1.0 / np.diff(pts), 0.0)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        x = np.clip(xs, pts[0], pts[-1])
        cell = np.searchsorted(pts, x, side="right") - 1
        w = slopes[cell] * (x - pts[cell])
        out = np.zeros((pts.size + 1, x.size))
        cols = np.arange(x.size)
        out[cell, cols] = 1.0 - w
        out[cell + 1, cols] = w
        return out[:-1]

    return BasisSystem(evaluate, pts.size, domain, name=f"hat({pts.size})")


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

def check_partition_of_unity(basis: BasisSystem, grid: np.ndarray,
                             tol: float = TOL_POU) -> CheckResult:
    """Max deviation of ``sum_k e_k`` from one over the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError("partition-of-unity check needs a non-empty grid")
    return CheckResult.deviation_from_one(
        "partition_of_unity", basis.values(grid).sum(axis=0), grid, tol)


def check_nonnegativity(basis: BasisSystem, grid: np.ndarray,
                        tol: float = TOL_POU) -> CheckResult:
    """Minimum of any basis function over the grid; passes iff >= -tol."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError("nonnegativity check needs a non-empty grid")
    vals = basis.values(grid)
    k, j = np.unravel_index(np.argmin(vals), vals.shape)
    return CheckResult(
        name="nonnegativity",
        passed=bool(vals[k, j] >= -tol),
        value=float(vals[k, j]),
        threshold=tol,
        worst_x=float(grid[j]),
        detail=f"attained by basis function {int(k)}",
    )
