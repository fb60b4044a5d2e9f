"""Positive basis systems that form partitions of unity.

Three constructions are provided: Bernstein polynomials, clamped B-splines
and piecewise-linear hat functions. Each returns a :class:`BasisSystem`, an
ordered family ``e_1 .. e_n`` of nonnegative functions on [0, 1] whose
pointwise sum is the constant one there. Each kind has one evaluator, which
returns its local form: per point, the index of the first of the ``width``
functions that may be nonzero there and their values. That is two hats from
one binary search (hat), ``degree + 1`` B-splines from de Boor's recurrence
over all points at once (B-spline), or every function from index 0 by the
binomial formula (Bernstein). :meth:`BasisSystem.local` is the one way in:
it checks the points against [0, 1], clamps them to it once and returns the
evaluator's local form, for callers that need only the nonzero values.
:meth:`BasisSystem.values` scatters that form into the dense ``(n,
points)`` array.

:meth:`BasisSystem.on` holds the basis on a point set, such as a
verification grid, as a :class:`LocalForm`, which keeps the points with
their values, so that a check takes the form alone and no form can be
paired with the wrong points. :meth:`LocalForm.combine` is the one
routine that combines coefficient rows with it: ``Tf`` on the points.
Below ``LOCAL_CROSSOVER`` functions per nonzero one it is the
BLAS product with the dense values, and the form keeps them; from there on
it adds ``width`` products per point and the form holds no dense array.
The module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import CheckResult
from .errors import ConfigError
from .functions import require_in_domain

#: Default tolerance for partition-of-unity verification.
TOL_POU = 1e-10

#: Default number of verification grid points: the config's ``grid_points``
#: default and the grid an operator's basis is validated on when built.
DEFAULT_GRID_POINTS = 1001

#: Ratio ``n / width`` from which :meth:`LocalForm.combine` adds each
#: point's ``width`` products instead of taking the BLAS product with the
#: dense values; a Bernstein basis (``width == n``) always takes the dense
#: product. The local routine costs about 30 us per block of 8 trials on
#: 1001 points whatever ``n``, the product 13 us at n = 40 and 180 us at
#: n = 300: on one BLAS thread an analysis breaks even near 9 linear
#: B-splines per nonzero one, 20 cubic ones and 30 hats (ROADMAP, "Where
#: the time goes now").
LOCAL_CROSSOVER = 20


@dataclass(frozen=True)
class BasisSystem:
    """Ordered family of ``n`` basis functions on [0, 1], at most ``width``
    of which are nonzero at any point.

    ``evaluate`` maps a 1-D array of points in [0, 1] to their local form
    ``(first, values)``: per point the index ``first`` of its first
    function, with ``first + width <= n``, and the values of its ``width``
    functions from there, shape ``(width, len(xs))``. It is called only
    through :meth:`local`, which checks the points and clamps them to
    [0, 1], so it clamps nothing itself. ``point_major`` sets the layout of
    the dense values: the transpose of a ``(points, n)`` array, else a
    C-ordered ``(n, points)`` one. Summing over them downstream follows the
    layout, so it sets the roundings."""

    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    n: int
    name: str
    width: int
    point_major: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("basis system needs at least one function")

    def local(self, xs: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The local form ``(first, values)`` on ``xs``: ``values`` has shape
        ``(width, len(xs))``, and row ``c`` of column ``i`` is function
        ``first[i] + c`` at ``xs[i]``. Points within ``DOMAIN_SLACK`` outside
        [0, 1] pass the domain check and are evaluated at its nearest end;
        adding 0.0 turns -0.0 into 0.0, so no point is a negative zero."""
        arr = np.atleast_1d(np.asarray(xs, dtype=float))
        require_in_domain(arr, self.name)
        return self.evaluate(np.clip(arr, 0.0, 1.0) + 0.0)

    def values(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate all basis functions on ``xs``; shape ``(n, len(xs))``."""
        return self._scatter(*self.local(xs))

    def on(self, xs: Sequence[float] | np.ndarray) -> "LocalForm":
        """The basis on ``xs`` for the checks, evaluated once: the points (a
        read-only view, so that the caller's array stays writeable), the
        local form, and the dense values too below ``LOCAL_CROSSOVER``. An
        empty point set is a :class:`ConfigError`."""
        arr = np.atleast_1d(np.asarray(xs, dtype=float))
        if arr.size == 0:
            raise ConfigError(f"{self.name}: the checks need a non-empty grid")
        first, local = self.local(arr)
        dense = self._scatter(first, local) if self.n < LOCAL_CROSSOVER * self.width else None
        return LocalForm(arr.view(), first, local, self.n, dense)

    def _scatter(self, first: np.ndarray, local: np.ndarray) -> np.ndarray:
        """The dense ``(n, points)`` values of the local form ``(first,
        local)``, zeros elsewhere, in the basis' layout."""
        # Values of every function from index 0 are already dense, and in
        # the C layout; a point-major basis takes its own layout below.
        if self.width == self.n and not self.point_major:
            return local
        points = np.arange(first.size)
        if self.point_major:
            out = np.zeros((first.size, self.n))
            out[points[:, None], first[:, None] + np.arange(self.width)] = local.T
            return out.T
        out = np.zeros((self.n, first.size))
        out[first + np.arange(self.width)[:, None], points] = local
        return out

    def __repr__(self) -> str:
        return f"BasisSystem({self.name!r}, n={self.n})"


@dataclass(frozen=True)
class LocalForm:
    """A basis of ``n`` functions on the points ``xs``, read-only: row
    ``q`` of ``values`` (shape ``(width, len(xs))``) is function ``first +
    q`` at each point, and every other function is 0 there. ``dense`` is
    the same values scattered as :meth:`BasisSystem.values` lays them out,
    kept only where :meth:`combine` takes the dense product, else
    ``None``."""

    xs: np.ndarray
    first: np.ndarray
    values: np.ndarray
    n: int
    dense: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.xs, self.first, self.values, self.dense):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def width(self) -> int:
        return self.values.shape[0]

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """``Tf`` on the points for each coefficient row: ``coeffs @ dense``,
        over any leading axes of ``coeffs`` (last axis ``n``). Where the form
        keeps the dense values it is that product, with its bits. Otherwise
        each point's ``width`` products are added one ``q`` at a time,
        ``(c[first] v[0] + c[first + 1] v[1]) + ...``, with no temporary
        larger than the result; each row has the bits it has on its own."""
        if self.dense is not None:
            return coeffs @ self.dense
        out = np.take(coeffs, self.first, axis=-1)
        out *= self.values[0]
        for q in range(1, self.width):
            term = np.take(coeffs[..., q:], self.first, axis=-1)
            term *= self.values[q]
            out += term
        return out

    def sums(self, absolute: bool = False) -> np.ndarray:
        """``sum_k e_k`` at each point, or ``sum_k |e_k|``: numpy's sum over
        the functions of the dense values where the form keeps them, else of
        the ``width`` local values."""
        values = self.values if self.dense is None else self.dense
        return (np.abs(values) if absolute else values).sum(axis=0)


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

    def evaluate(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = np.empty((n + 1, xs.size))
        rest = 1.0 - xs
        for k, binomial in enumerate(binomials):
            out[k] = binomial * xs ** k * rest ** (n - k)
        return np.zeros(xs.size, dtype=np.intp), out

    return BasisSystem(evaluate, n + 1, name=f"bernstein({n})", width=n + 1)


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
    of scipy's ``_deBoor_D``: the local form is the ``degree + 1`` B-splines
    from ``ell - degree`` of each point's span ``ell``. The dense values
    equal scipy's ``BSpline.design_matrix(x, t, degree).toarray().T`` bit
    for bit, in the same layout, the transpose of a ``(points, n)`` array:
    summing over them downstream keeps the same order, and so the same
    roundings. Every divisor of the recurrence is at least one positive gap
    between consecutive knots, so from degree 1 on a gap whose reciprocal
    overflows is a :class:`ConfigError` naming its two knots.
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
    # Degree 0 divides by nothing.
    spaced = np.flatnonzero(t[1:] > t[:-1]) if degree else np.empty(0, dtype=np.intp)
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite(1.0 / (t[spaced + 1] - t[spaced]))
    if overflows.any():
        k = spaced[np.argmax(overflows)]
        raise ConfigError(f"knots {float(t[k])!r} and {float(t[k + 1])!r} are too close: "
                          "the reciprocal of their spacing overflows")
    t.flags.writeable = False
    n = t.size - degree - 1
    # Knot offsets from a point's span ell that the recurrence reads:
    # t[ell - degree + 1] .. t[ell + degree].
    reach = np.arange(1 - degree, degree + 1)[:, None]

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The span t[ell] <= x < t[ell + 1], and ell = n - 1 at x = 1.
        ell = np.clip(np.searchsorted(t, x, side="right") - 1, degree, n - 1)
        near = t[ell + reach]
        h = np.empty((degree + 1, x.size))
        h[0] = 1.0
        for j in range(1, degree + 1):
            hh = h[:j].copy()
            h[0] = 0.0
            for q in range(1, j + 1):
                # xb - xa >= t[ell + 1] - t[ell] > 0: the span ell is
                # nonempty, as no knot repeats more than degree + 1 times.
                xb = near[q + degree - 1]
                xa = near[q - j + degree - 1]
                w = hh[q - 1] / (xb - xa)
                h[q - 1] += w * (xb - x)
                h[q] = w * (x - xa)
        return ell - degree, h

    return BasisSystem(evaluate, n, name=f"bspline(deg {degree}, {t.size} knots)",
                       width=degree + 1, point_major=True)


# --------------------------------------------------------------------------
# Hat basis
# --------------------------------------------------------------------------

def make_hat_basis(nodes: Sequence[float]) -> BasisSystem:
    """Piecewise-linear nodal basis over a partition of [0, 1].

    One hat per node, ``e_k(x_j) = delta_kj``; the partition of unity is
    exact since linear interpolation reproduces the constant one. The local
    form is the two hats of each point's cell. Row ``k`` of the dense values
    equals ``np.interp`` of the ``k``-th unit vector bit for bit, at points
    within ``DOMAIN_SLACK`` outside [0, 1] too, which both read at the
    nearest end, and at -0.0, which :meth:`BasisSystem.local` reads as 0.0.
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
    inner = pts[1:-1]

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The cell pts[cell] <= x < pts[cell + 1], and the last cell at x = 1.
        cell = np.searchsorted(inner, x, side="right")
        local = np.empty((2, x.size))
        w = local[1]
        np.multiply(slopes[cell], x - pts[cell], out=w)
        # The last node takes the last hat's 1 as it is, not as a slope
        # times the last cell's width.
        w[x == pts[-1]] = 1.0
        np.subtract(1.0, w, out=local[0])
        return cell, local

    return BasisSystem(evaluate, pts.size, name=f"hat({pts.size})", width=2)


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

def check_partition_of_unity(form: LocalForm, tol: float = TOL_POU) -> CheckResult:
    """Max deviation of ``sum_k e_k`` from one over the points of ``form``,
    the basis on a grid (:meth:`BasisSystem.on`)."""
    return CheckResult.deviation_from_one("partition_of_unity", form.sums(), form.xs, tol)


def check_nonnegativity(form: LocalForm, tol: float = TOL_POU) -> CheckResult:
    """Least value over the points of ``form``, the basis on a grid
    (:meth:`BasisSystem.on`), of a basis function that may be nonzero there
    (every other one is 0); passes iff >= -tol. Of equal values the one of
    the lowest function, then of the first point, is reported."""
    least = form.values.min()
    q, j = np.nonzero(np.isnan(form.values) if np.isnan(least) else form.values == least)
    k = form.first[j] + q
    at = np.lexsort((j, k))[0]
    return CheckResult(
        name="nonnegativity",
        passed=bool(least >= -tol),
        value=float(least),
        threshold=tol,
        worst_x=float(form.xs[j[at]]),
        detail=f"attained by basis function {int(k[at])}",
    )
