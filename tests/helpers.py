"""Shared test utilities: seeded generators and independent oracles."""

from __future__ import annotations

import importlib.util
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from pouspec.bases import BasisSystem
from pouspec.checks import CheckResult
from pouspec.errors import ConfigError
from pouspec.functionals import (AVERAGE, DEFAULT_QUAD_ORDER, DEFAULT_QUAD_PANELS,
                                 Functionals, check_functional_normalization,
                                 dirac_functionals, interval_average_functionals, join,
                                 quadrature_functionals)
from pouspec.functions import (COSINE, PIECEWISE_LINEAR, POLYNOMIAL, TEST_POLYNOMIAL_WIDTH,
                               _horner, outside_domain, require_in_domain)
from pouspec.operators import coefficient_vector, estimate_operator_norm, verify_norm_bound
from pouspec.report import AnalysisConfig
from pouspec.spectra import (ITERATE_TOL, TOL_STOCHASTIC, IterateResult,
                             check_row_stochastic, closed_classes)


def _overflowing_rule(nodes: list[float], weights: list[float]) -> str:
    return json.dumps({"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 1.0]},
                       "functionals": [{"kind": "weighted-quadrature", "nodes": nodes,
                                        "weights": weights}, {"kind": "dirac", "x": 1.0}]})


#: Configs whose first functional's weights overflow as they are summed, to
#: an infinite mass or, across numpy's pairwise partial sums, a NaN one; by
#: id, the config and the one line ``pouspec analyze`` writes to stderr.
OVERFLOWING_WEIGHT_CONFIGS = {
    "two-nodes": (_overflowing_rule([0.4, 0.6], [1e308, 1e308]),
                  "error: custom: functional 0 (quad(2 nodes)) is not a nonnegative rule "
                  "of unit mass (min weight 1e+308 at node 0.4, |sum w - 1| = inf)\n"),
    "three-nodes": (_overflowing_rule([0.4, 0.5, 0.6], [1e308, 1e308, -1e308]),
                    "error: custom: functional 0 (quad(3 nodes)) is not a nonnegative rule "
                    "of unit mass (min weight -1e+308 at node 0.6, |sum w - 1| = inf)\n"),
    "nan-mass": (_overflowing_rule([0.3 + 0.01 * i for i in range(16)],
                                   ([1e308, -1e308] + [0.0] * 6) * 2),
                 "error: custom: functional 0 (quad(16 nodes)) is not a nonnegative rule "
                 "of unit mass (min weight -1e+308 at node 0.31, |sum w - 1| = nan)\n"),
}


def one(xs: np.ndarray) -> np.ndarray:
    """The constant function one."""
    return np.ones_like(xs)


def image(op, f, xs: np.ndarray) -> np.ndarray:
    """``Tf`` on ``xs`` for a vectorized callable ``f``."""
    return coefficient_vector(op, f) @ op.basis.values(xs)


def dirac(x: float) -> Functionals:
    """The one point evaluation at ``x``."""
    return dirac_functionals([x])


def average(a: float, b: float) -> Functionals:
    """The one normalized average over ``[a, b]``."""
    return interval_average_functionals([a], [b])


def quadrature(nodes: Sequence[float], weights: Sequence[float]) -> Functionals:
    """The one finite rule of ``nodes`` and ``weights``."""
    return quadrature_functionals([nodes], [weights])


def in_order(*parts: Functionals) -> Functionals:
    """The members of ``parts``, in the order given."""
    return join(parts, range(sum(part.n for part in parts)))


def unchecked_operator(basis, functionals: Functionals, name: str = "operator"):
    """An operator that ``OperatorSpec`` would refuse (wrong mass, negative
    weights, a basis off the partition of unity), for failure-path tests:
    the ``basis``, ``functionals``, ``n`` and ``name`` that the checks read."""
    return SimpleNamespace(basis=basis, functionals=functionals, n=basis.n, name=name)


def dense_basis(dense, n: int, name: str) -> BasisSystem:
    """A basis of ``n`` functions from ``dense``, a map from points to their
    ``(n, points)`` values: its local form starts every point at index 0."""
    return BasisSystem(lambda xs: (np.zeros(xs.size, dtype=np.intp), dense(xs)), n,
                       name=name, width=n)


def rules(functionals: Functionals) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(nodes, weights)`` of each member, in order."""
    return [functionals.rule(k) for k in range(functionals.n)]


def pairing(functionals: Functionals, f, k: int = 0) -> float:
    """``a_k(f) = sum_i w_i f(x_i)`` for a vectorized callable ``f``."""
    nodes, weights = functionals.rule(k)
    return float(weights @ f(nodes))


def widest_gap(op) -> tuple[float, float]:
    """The widest gap between consecutive distinct points of {0, 1}, the
    joined nodes and the cell ends of the interval averages, the first of
    equal widths, by a loop over them."""
    fs = op.functionals
    average = fs.kinds == AVERAGE
    ends = sorted({0.0, 1.0, *fs.nodes.tolist(), *fs.a[average].tolist(),
                   *fs.b[average].tolist()})
    return max(zip(ends, ends[1:]), key=lambda gap: gap[1] - gap[0])


def bump(lo: float, hi: float):
    """The odd bump on ``[lo, hi]``: the hat of height one on its left half
    minus the hat on its right half, zero outside ``[lo, hi]``."""
    mid = lo + (hi - lo) / 2

    def hat(xs, a, b):
        return np.clip(np.minimum(xs - a, b - xs), 0.0, None) / ((b - a) / 2)

    return lambda xs: hat(xs, lo, mid) - hat(xs, mid, hi)


def bump_breakpoints(lo: float, hi: float) -> list[float]:
    """The points where :func:`bump` changes slope, in order: ``lo``, the
    first peak, the midpoint, the second peak and ``hi``."""
    mid = lo + (hi - lo) / 2
    return [lo, lo + (mid - lo) / 2, mid, mid + (hi - mid) / 2, hi]


def bump_peaks(lo: float, hi: float) -> list[float]:
    """The peaks of :func:`bump`, the quarter points of ``[lo, hi]``."""
    return bump_breakpoints(lo, hi)[1::2]


def cell_integrals(op, w, breakpoints: Sequence[float]) -> list[float]:
    """``integral_a^b w`` over each interval-average cell ``[a, b]`` of
    ``op``, by the trapezoid rule over ``a``, ``b`` and the ``breakpoints``
    inside the cell: exact, up to rounding, for a ``w`` that is linear
    between its breakpoints."""
    fs = op.functionals
    integrals = []
    for kind, a, b in zip(fs.kinds.tolist(), fs.a.tolist(), fs.b.tolist()):
        if kind == AVERAGE:
            xs = np.array(sorted({a, b, *(x for x in breakpoints if a < x < b)}))
            ys = w(xs)
            integrals.append(float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2)))
    return integrals


def adjoint_pairing(op, dual, f) -> float:
    """``sum_k dual(e_k) a_k(f)``, which equals ``dual(Tf)``."""
    dual_on_basis = op.basis.values(dual.nodes) @ dual.weights
    return float(dual_on_basis @ coefficient_vector(op, f))


def verify_adjoint_identity(op, pairs: int = 50, tol: float = 1e-10,
                            seed: int = 42) -> CheckResult:
    """Residual ``|T* dual (f) - dual(Tf)|`` over seeded (dual, f) pairs,
    cycling through the three functional kinds for the dual."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(pairs):
        f = random_function_oracle(rng)
        kind = i % 3
        if kind == 0:
            dual = dirac(rng.uniform())
        elif kind == 1:
            a, b = np.sort(rng.uniform(size=2))
            if b - a < 1e-3:
                b = min(1.0, a + 1e-3)
                a = b - 1e-3
            dual = average(a, b)
        else:
            nodes = rng.uniform(size=4)
            weights = rng.dirichlet(np.ones(4))
            dual = quadrature(nodes, weights)
        lhs = adjoint_pairing(op, dual, f)
        rhs = float(dual.weights @ image(op, f, dual.nodes))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        name="adjoint_identity",
        passed=bool(worst <= tol),
        value=float(worst),
        threshold=tol,
        detail=f"max residual over {pairs} (dual, f) pairs",
    )


def clamped_knots(breakpoints: Sequence[float], degree: int) -> np.ndarray:
    """Full clamped knot vector from strictly increasing breakpoints:
    the first and last breakpoints are repeated ``degree + 1`` times."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ConfigError("need at least two breakpoints")
    if not np.all(np.diff(bp) > 0):
        raise ConfigError("breakpoints must be strictly increasing")
    if degree < 0:
        raise ConfigError("degree must be >= 0")
    return np.concatenate((np.repeat(bp[0], degree), bp, np.repeat(bp[-1], degree)))


def random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random row-stochastic matrix: each row uniform on the simplex."""
    return rng.dirichlet(np.ones(n), size=n)


def random_breakpoints(rng: np.random.Generator, interior: int,
                       min_gap: float = 0.05) -> np.ndarray:
    """Random strictly increasing breakpoints on [0, 1] including both
    endpoints, with every gap at least ``min_gap / (1 + k * min_gap)``."""
    k = interior + 1
    gaps = rng.dirichlet(np.ones(k))
    gaps = (gaps + min_gap) / (1.0 + k * min_gap)
    pts = np.concatenate(([0.0], np.cumsum(gaps)))
    pts[-1] = 1.0
    return pts


def bernstein_value(n: int, k: int, x: float) -> float:
    """Direct binomial evaluation, independent of the package."""
    return math.comb(n, k) * x**k * (1.0 - x) ** (n - k)


def bernstein_antiderivative(n: int, k: int, x: float) -> float:
    """Exact ``integral_0^x b_{n,k}(t) dt`` via the classical identity
    ``(n+1) * integral = sum_{j>k} b_{n+1,j}(x)``."""
    return sum(bernstein_value(n + 1, j, x) for j in range(k + 1, n + 2)) / (n + 1)


def kantorovich_matrix_oracle(n: int) -> np.ndarray:
    """Kantorovich collocation matrix from the antiderivative formula:
    ``M[k][j] = (n+1) * integral over the k-th cell of b_{n,j}``."""
    cells = n + 1
    out = np.empty((cells, cells))
    for k in range(cells):
        a, b = k / cells, (k + 1) / cells
        for j in range(cells):
            out[k, j] = cells * (bernstein_antiderivative(n, j, b)
                                 - bernstein_antiderivative(n, j, a))
    return out


def kantorovich_matrix_exact(n: int) -> np.ndarray:
    """Kantorovich collocation matrix in exact rational arithmetic, rounded
    once per entry: ``M[k][j] = T_j((k+1)/(n+1)) - T_j(k/(n+1))`` with the
    tail sum ``T_j(x) = sum_{i>j} b_{n+1,i}(x)``, which is ``n + 1`` times
    the antiderivative of ``b_{n,j}`` (see ``bernstein_antiderivative``)."""
    m = n + 1

    def tails(edge: int) -> list[Fraction]:
        x = Fraction(edge, m)
        b = [math.comb(m, i) * x**i * (1 - x) ** (m - i) for i in range(1, m + 1)]
        return list(accumulate(reversed(b)))[::-1]  # T_0 .. T_n

    t = [tails(edge) for edge in range(m + 1)]
    return np.array([[float(t[k + 1][j] - t[k][j]) for j in range(m)] for k in range(m)])


def bernstein_eigenvalue_oracle(n: int) -> np.ndarray:
    """Closed-form spectrum of the point-evaluation Bernstein collocation
    matrix: ``lambda_k = prod_{i<k} (1 - i/n)`` for ``k = 0 .. n``."""
    return np.array([np.prod([1.0 - i / n for i in range(k)]) for k in range(n + 1)])


def kantorovich_eigenvalue_oracle(n: int) -> np.ndarray:
    """Closed-form spectrum of the Kantorovich collocation matrix:
    ``lambda_k = prod_{i<k} (n - i) / (n + 1) = n! / ((n-k)! (n+1)^k)`` for
    ``k = 0 .. n``. ``K_n f = (B_{n+1} F)'`` with ``F`` the antiderivative
    of ``f``, so ``K_n`` maps the polynomials of degree ``k`` to themselves
    with leading coefficient ``lambda_k``. The product form cannot overflow."""
    return np.cumprod(np.concatenate(([1.0], (n - np.arange(n)) / (n + 1))))


def bspline_value(knots: np.ndarray, i: int, degree: int, xs: np.ndarray) -> np.ndarray:
    """B-spline ``N[i, degree]`` by the Cox-de Boor recursion, independent
    of the package. Spans are closed on the left, and the last nonempty one
    also on the right; 0/0 terms are dropped."""
    hi = knots[-1]
    if degree == 0:
        inside = (knots[i] <= xs) & ((xs < knots[i + 1]) | ((xs == hi) & (knots[i + 1] == hi)))
        return inside.astype(float)
    out = np.zeros_like(xs)
    left_den = knots[i + degree] - knots[i]
    if left_den > 0.0:
        out += (xs - knots[i]) / left_den * bspline_value(knots, i, degree - 1, xs)
    right_den = knots[i + degree + 1] - knots[i + 1]
    if right_den > 0.0:
        out += (knots[i + degree + 1] - xs) / right_den * bspline_value(
            knots, i + 1, degree - 1, xs)
    return out


def hat_values(pts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Hat basis on the nodes ``pts``, one ``np.interp`` of a unit vector
    per hat, independent of the package."""
    return np.vstack([np.interp(xs, pts, row) for row in np.eye(pts.size)])


def collocation_rowwise(op) -> np.ndarray:
    """Collocation matrix one row at a time, each row from its own basis
    evaluation: ``basis.values(nodes_k) @ weights_k`` for each rule, or, on
    a basis with fewer than ``n`` functions nonzero at a point, the sum of
    ``w_i e(x_i)`` over the rule in node order, starting from zero."""
    if op.basis.width == op.n:
        return np.vstack([op.basis.values(x) @ w for x, w in rules(op.functionals)])
    rows = np.zeros((op.n, op.n))
    for row, (x, w) in zip(rows, rules(op.functionals)):
        for column, weight in zip(op.basis.values(x).T, w):
            row += weight * column
    return rows


def dirac_rule_one_by_one(x: float) -> tuple[np.ndarray, np.ndarray, str]:
    """``(nodes, weights, name)`` of the point evaluation at ``x``, built on
    its own: one node of weight one."""
    x = float(x)
    return np.array([x]), np.array([1.0]), f"dirac({x:g})"


def interval_average_rule_one_by_one(a: float, b: float) -> tuple[
        np.ndarray, np.ndarray, str]:
    """``(nodes, weights, name)`` of the normalized average over ``[a, b]``,
    built on its own: the composite Gauss-Legendre rule of the cell from its
    own ``np.linspace``, its weights divided by ``b - a``."""
    a, b = float(a), float(b)
    reference_nodes, reference_weights = np.polynomial.legendre.leggauss(DEFAULT_QUAD_ORDER)
    edges = np.linspace(a, b, DEFAULT_QUAD_PANELS + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    xs = (mid[:, None] + half[:, None] * reference_nodes[None, :]).ravel()
    ws = (half[:, None] * reference_weights[None, :]).ravel()
    return xs, ws / (b - a), f"avg[{a:g},{b:g}]"


def greville_loop(knots: Sequence[float], degree: int) -> np.ndarray:
    """Greville abscissae one knot average at a time."""
    t = np.asarray(knots, dtype=float)
    return np.array([t[k + 1:k + degree + 1].mean() for k in range(t.size - degree - 1)])


def sort_eigenvalues_by_key(values) -> np.ndarray:
    """Canonical eigenvalue order by Python's ``sorted`` with a per-element
    key: descending ``abs``, then descending real part, then descending
    imaginary part."""
    arr = np.asarray(values, dtype=complex)
    key = sorted(range(arr.size),
                 key=lambda i: (-abs(arr[i]), -arr[i].real, -arr[i].imag))
    return arr[key]


def gershgorin_rowwise(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disk centers and radii one row at a time: ``M[k][k]`` and
    ``sum_j |M[k][j]| - |M[k][k]|`` over the contiguous row ``k``."""
    arr = np.array(matrix, dtype=float, order="C")
    centers = np.array([arr[k, k] for k in range(arr.shape[0])])
    radii = np.array([np.sum(np.abs(arr[k, :])) - abs(arr[k, k])
                      for k in range(arr.shape[0])])
    return centers, radii


def dumps_json_oracle(obj) -> str:
    """``report.dumps_json`` rebuilt on :func:`json.dumps`, sharing no code
    with it: each float (numpy floats included) is replaced by a unique
    placeholder string, the standard library lays the nest out with
    ``indent=2``, and each quoted placeholder is replaced by ``"%.17g"`` of
    its float. Numpy integers are written as Python ints. Finite floats
    only."""
    floats: list[float] = []

    def stand_in(x):
        if isinstance(x, dict):
            return {str(k): stand_in(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [stand_in(v) for v in x]
        if isinstance(x, np.integer):
            return int(x)
        if isinstance(x, (float, np.floating)):
            assert math.isfinite(x), x
            floats.append(float(x))
            return f"<float {len(floats) - 1}>"
        return x

    text = json.dumps(stand_in(obj), indent=2)
    return re.sub(r'"<float (\d+)>"', lambda m: "%.17g" % floats[int(m.group(1))],
                  text) + "\n"


@dataclass(frozen=True)
class CatalogDraw:
    """One test-catalog draw as the oracles hold it: its kind (``"poly"``,
    ``"sin"``, ``"cos"`` or ``"pwl"``), its name and its parameters. Called
    on points, it evaluates through :func:`catalog_values_oracle`."""

    kind: str
    name: str
    params: dict

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return catalog_values_oracle(self, xs)


def random_function_oracle(rng: np.random.Generator, nonnegative: bool = False) -> CatalogDraw:
    """One test-catalog draw, sharing no code with ``draw_test_functions``:
    the same generator calls in the same order. The package's draw must
    match it bit for bit and name for name."""
    kind = rng.integers(0, 3)
    if kind == 0:
        if nonnegative:
            base = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 5)))
            sq = np.convolve(base, base)
            return CatalogDraw("poly", f"poly(deg {base.size - 1})^2", {"coefficients": sq})
        coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 8)))
        return CatalogDraw("poly", f"poly(deg {coeffs.size - 1})", {"coefficients": coeffs})
    if kind == 1:
        freq = int(rng.integers(1, 9))
        amp = float(rng.uniform(-1.0, 1.0))
        trig = "cos" if rng.integers(0, 2) else "sin"
        offset = 1.0 if nonnegative else 0.0
        return CatalogDraw(trig, f"{offset:g}+{amp:g}*{trig}(2pi*{freq}x)",
                           {"omega": 2.0 * np.pi * freq, "amplitude": amp, "offset": offset})
    breaks = int(rng.integers(2, 17))
    inner = np.sort(rng.uniform(0.0, 1.0, size=breaks))
    xs = np.concatenate(([0.0], inner, [1.0]))
    xs = xs[np.concatenate(([True], xs[1:] > xs[:-1]))]  # np.unique of the sorted xs
    lo_val = 0.0 if nonnegative else -1.0
    ys = rng.uniform(lo_val, 1.0, size=xs.size)
    return CatalogDraw("pwl", f"pwl({xs.size})", {"xs": xs, "ys": ys})


def positivity_oracle(op, grid: np.ndarray, values: np.ndarray, trials: int = 100,
                      tol: float = 1e-10, seed: int = 42) -> CheckResult:
    """``verify_positivity`` one test function at a time: ``Tf`` on the grid
    as ``coefficient_vector(op, f) @ values`` per draw, the first trial to
    reach the minimum naming it."""
    rng = np.random.default_rng(seed)
    worst_val = np.inf
    worst_x = None
    worst_name = ""
    for _ in range(trials):
        f = random_function_oracle(rng, nonnegative=True)
        image = coefficient_vector(op, f) @ values
        j = int(np.argmin(image))
        if image[j] < worst_val:
            worst_val = float(image[j])
            worst_x = float(grid[j])
            worst_name = f.name
    return CheckResult(
        name="positivity",
        passed=bool(worst_val >= -tol),
        value=worst_val,
        threshold=tol,
        worst_x=worst_x,
        detail=f"worst over {trials} nonnegative samples, at f = {worst_name}",
    )


def norm_estimate_oracle(op, grid: np.ndarray, values: np.ndarray, trials: int = 200,
                         seed: int = 42) -> float:
    """``estimate_operator_norm`` one test function at a time: the constant
    one, then each draw, skipping ``||f|| < 1e-12``, with ``||f||`` and
    ``Tf`` from separate evaluations on the grid and on the nodes."""
    rng = np.random.default_rng(seed)
    best = 0.0
    samples = [one]
    samples.extend(random_function_oracle(rng) for _ in range(trials))
    for f in samples:
        denom = float(np.max(np.abs(f(grid))))
        if denom < 1e-12:
            continue
        image = coefficient_vector(op, f) @ values
        best = max(best, float(np.max(np.abs(image))) / denom)
    return float(best)


def dictionary_weight_norm(f) -> float:
    """``P``: the 1-norm of the weights of the draw ``f`` over the 23
    dictionary functions ``1, x, .., x^6, sin(2 pi k x), cos(2 pi k x)``,
    from the draw's own parameters; 0 for a piecewise-linear draw and for
    the constant one, which the package computes as the oracle does."""
    if f is one or f.kind == "pwl":
        return 0.0
    if f.kind == "poly":
        return float(np.abs(f.params["coefficients"]).sum())
    return abs(f.params["amplitude"]) + abs(f.params["offset"])


def norm_estimate_bound(op, grid: np.ndarray, values: np.ndarray, trials: int = 200,
                        seed: int = 42) -> tuple[float, float]:
    """``(oracle, bound)``: :func:`norm_estimate_oracle` and a bound on its
    distance from ``estimate_operator_norm``, derived below; the bound is
    infinite when a trial's ``||f||`` may fall on either side of the skip
    threshold 1e-12.

    Both computations take the same draws and the same maximum, but round
    differently: the package evaluates a polynomial or wave ``f = sum_j W_j
    g_j`` through the 23 dictionary functions ``g_j`` (a power by repeated
    products from 1; ``sin`` or ``cos`` of the same float argument
    ``fl(omega x)`` as the oracle's), forms coefficients from the dictionary
    moments ``m_jk = a_k(g_j)``, and computes images by one matrix product
    per block; the oracle evaluates ``f`` by Horner's rule or ``amplitude *
    trig``, applies each functional to it and takes one matrix-vector
    product per image. A piecewise-linear draw and the constant one are the
    same operations on both sides up to the image product.

    Error model (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., sections 2.2, 3.1, 5.1): ``u = 2**-53``, ``gamma_k = k u / (1 -
    k u)``, and a product that underflows is off by at most ``eta =
    2**-1075``, sums being exact there. A computed sum of ``k`` products,
    in any order and with or without FMA, is within ``gamma_k sum |a_i b_i|
    + 2 k eta`` of the exact one. numpy's float64 ``sin`` and ``cos`` are
    within 1 ulp of the rounded value (numpy's own accuracy tests), so
    within ``3 u |s|`` or ``3 eta`` of the exact one. Per trial ``i`` take
    ``P_i`` from :func:`dictionary_weight_norm`, ``G = max(1, max|x|)**6``
    over the nodes and the grid, which bounds every ``|g_j|``, ``r`` the
    longest rule, ``M`` the largest rule mass ``sum |w|``, ``n`` the basis
    size, ``S = max_j sum_k |v_kj|``, and ``c_i``, ``d_i``, ``rho_i`` the
    oracle's coefficients, ``||f||`` and ratio.

    - A dictionary value is within ``gamma_8 G + 8 G eta`` of ``g_j``: five
      products for ``x^6``, ``3 u`` for a sine.
    - ``f`` on a point: the package's ``sum_j W_j g_j`` (23 products) is
      within ``gamma_31 P_i G + (46 + 16 P_i) G eta`` of the exact value;
      the oracle's Horner's rule of degree at most 6 (``gamma_12``) or
      ``amplitude * trig`` within ``gamma_12 P_i G + 12 G eta``. So
      ``|d_hat - d_i| <= delta_d = gamma_43 P_i G + (58 + 16 P_i) G eta``.
    - A moment is within ``gamma_{r+8} M G + (2r + 16 M G) eta`` of its
      exact value, so the package's coefficient (23 products) is within
      ``gamma_{r+31} P_i M G + (2 P_i (2r + 16 M G) + 46) eta``; the
      oracle's (``r`` products of values within the bound above) within
      ``gamma_{r+12} P_i M G + (2r + 24 M G) eta``. Together:
      ``delta_c = gamma_{2r+43} P_i M G + (4 P_i r + 32 P_i M G + 2r + 24 M
      G + 46) eta``, and 0 when ``P_i = 0``.
    - Each image entry is a sum of ``n`` products on each side, so the two
      differ by at most ``gap_i = S (delta_c + gamma_n (2 max|c_i| +
      delta_c)) + 4 n eta``, and so do the two maxima ``A`` of ``|Tf|``.
    - The exact ratios differ by at most ``E_i = (gap_i + rho_i (1 +
      gamma_1) delta_d) / (d_i - delta_d)``; each side's division rounds,
      so the computed ratios differ by at most ``E_i (1 + u) + 2 u rho_i (1
      + gamma_1)``.

    The two estimates are maxima over the same trials, so they differ by at
    most the largest of these. ``S``, ``M`` and ``G`` are rounded up by
    ``1 + gamma`` of their own sums, and the result by ``1 + gamma_64`` and
    ``64 eta`` for the few dozen roundings of the bound itself. ``eta`` is
    half the least subnormal, so ``k eta`` is taken as ``ceil(k / 2)``
    subnormals."""
    u = 2.0 ** -53

    def gamma(k: int) -> float:
        return k * u / (1.0 - k * u)

    def eta(k: float) -> float:
        return math.ceil(k / 2) * 2.0 ** -1074

    fs, n = op.functionals, op.n
    r = int(np.diff(fs.starts, append=fs.nodes.size).max())
    mass = max(float(np.abs(fs.rule(k)[1]).sum()) for k in range(n)) * (1.0 + gamma(r))
    sums = float(np.abs(values).sum(axis=0).max()) * (1.0 + gamma(n))
    reach = max(1.0, float(np.abs(fs.nodes).max()), float(np.abs(grid).max()))
    g = reach ** 6 * (1.0 + gamma(6))
    oracle, worst = 0.0, 0.0
    rng = np.random.default_rng(seed)
    for f in [one] + [random_function_oracle(rng) for _ in range(trials)]:
        p = dictionary_weight_norm(f)
        delta_d = gamma(43) * p * g + eta((58 + 16 * p) * g) if p else 0.0
        denom = float(np.max(np.abs(f(grid))))
        if denom - delta_d < 1e-12 <= denom + delta_d:
            worst = np.inf
        if denom < 1e-12:
            continue
        delta_c = (gamma(2 * r + 43) * p * mass * g
                   + eta(4 * p * r + 32 * p * mass * g + 2 * r + 24 * mass * g + 46)
                   if p else 0.0)
        coefficients = coefficient_vector(op, f)
        rho = float(np.max(np.abs(coefficients @ values))) / denom
        gap = (sums * (delta_c + gamma(n) * (2.0 * float(np.abs(coefficients).max()) + delta_c))
               + eta(4 * n))
        spread = (gap + rho * (1.0 + gamma(1)) * delta_d) / (denom - delta_d)
        oracle = max(oracle, rho)
        worst = max(worst, spread * (1.0 + u) + 2.0 * u * rho * (1.0 + gamma(1)))
    return oracle, worst * (1.0 + gamma(64)) + eta(64)


def assert_norm_estimate_near_oracle(op, grid: np.ndarray, values: np.ndarray,
                                     trials: int = 200, seed: int = 42) -> None:
    """``estimate_operator_norm`` lies within :func:`norm_estimate_bound` of
    the one-at-a-time oracle, the bound is below ``1e-12 * max(1,
    estimate)``, so that it cannot hide a real difference, and
    ``verify_norm_bound`` passes exactly when the oracle's estimate would."""
    oracle, bound = norm_estimate_bound(op, grid, values, trials, seed)
    estimate = estimate_operator_norm(op, grid, values, trials=trials, seed=seed)
    assert abs(estimate - oracle) <= bound, (estimate, oracle, bound)
    assert bound <= 1e-12 * max(1.0, estimate), (bound, estimate)
    check = verify_norm_bound(op, grid, values, trials=trials, seed=seed)
    assert check.passed == (1.0 - 1e-12 <= oracle <= 1.0 + check.threshold), (oracle, check)


def catalog_values_oracle(f: CatalogDraw, xs: np.ndarray) -> np.ndarray:
    """A random-catalog draw on ``xs`` by its own one-dimensional formula,
    from its parameters: Horner from ``full(c[-1])`` for a polynomial,
    ``offset + amplitude * trig(omega * xs)`` for a wave, ``np.interp`` for
    sampled data."""
    p = f.params
    if f.kind == "poly":
        c = p["coefficients"]
        out = np.full_like(xs, c[-1])
        for a in c[-2::-1]:
            out = out * xs + a
        return out
    if f.kind == "pwl":
        return np.interp(xs, p["xs"], p["ys"])
    trig = np.cos if f.kind == "cos" else np.sin
    return p["offset"] + p["amplitude"] * trig(p["omega"] * xs)


_SVG_SIZE = 800
_SVG_SPAN = 1.2  # plot window is [-SPAN, SPAN]^2


def _svg_x(re: float) -> float:
    return (re + _SVG_SPAN) * _SVG_SIZE / (2 * _SVG_SPAN)


def _svg_y(im: float) -> float:
    return (_SVG_SPAN - im) * _SVG_SIZE / (2 * _SVG_SPAN)


def _svg_r(r: float) -> float:
    return r * _SVG_SIZE / (2 * _SVG_SPAN)


def emit_svg_oracle(report) -> str:
    """``report.emit_svg`` as it was written one element at a time, sharing
    no code with the package: one f-string per disk and per eigenvalue
    marker, over Python floats and numpy scalars."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'  <rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="#ffffff"/>',
        f'  <line x1="0" y1="{_svg_y(0):.2f}" x2="{_SVG_SIZE}" y2="{_svg_y(0):.2f}" '
        'stroke="#cccccc" stroke-width="1"/>',
        f'  <line x1="{_svg_x(0):.2f}" y1="0" x2="{_svg_x(0):.2f}" y2="{_SVG_SIZE}" '
        'stroke="#cccccc" stroke-width="1"/>',
        f'  <circle cx="{_svg_x(0):.2f}" cy="{_svg_y(0):.2f}" r="{_svg_r(1.0):.2f}" '
        'fill="none" stroke="#444444" stroke-width="1.5" stroke-dasharray="6,4"/>',
    ]
    centers, radii = report.spectrum.disks
    for center, radius in zip(centers.tolist(), radii.tolist()):
        parts.append(
            f'  <circle cx="{_svg_x(center):.2f}" cy="{_svg_y(0):.2f}" '
            f'r="{max(_svg_r(radius), 1.0):.2f}" fill="#1f77b4" '
            'fill-opacity="0.08" stroke="#1f77b4" stroke-width="1"/>')
    arm = 6.0
    for lam in report.spectrum.eigenvalues:
        cx, cy = _svg_x(lam.real), _svg_y(lam.imag)
        parts.append(
            f'  <path d="M {cx - arm:.2f} {cy - arm:.2f} L {cx + arm:.2f} {cy + arm:.2f} '
            f'M {cx - arm:.2f} {cy + arm:.2f} L {cx + arm:.2f} {cy - arm:.2f}" '
            'stroke="#d62728" stroke-width="2" fill="none"/>')
    parts.append(
        f'  <text x="16" y="28" font-family="monospace" font-size="16" fill="#222222">'
        f'{report.operator_name}: {report.spectrum.classification}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# The per-item loops that array passes replaced, kept verbatim as oracles:
# each array pass must give their bits (and their errors, in their order).
# --------------------------------------------------------------------------

def validate_functionals_one_by_one(name: str, functionals: Functionals) -> None:
    """The functionals' part of ``OperatorSpec`` validation, one functional
    at a time: the normalization of each functional in order of ``k`` up to
    the first with a node outside [0, 1], then that functional's domain
    error."""
    outside = [outside_domain(nodes).any() for nodes, _ in rules(functionals)]
    first_outside = outside.index(True) if True in outside else functionals.n
    for k in range(first_outside):
        norm = check_functional_normalization(functionals, k)
        if not norm.passed:
            raise ConfigError(f"{name}: functional {k} ({functionals.name(k)}) "
                              f"is not a nonnegative rule of unit mass "
                              f"({norm.detail})")
    if first_outside < functionals.n:
        require_in_domain(functionals.rule(first_outside)[0],
                          f"{name}: functional {first_outside} "
                          f"({functionals.name(first_outside)})")


def _pairwise_sum(terms: list[float]) -> float:
    """numpy's pairwise summation of ``terms``: left to right from -0.0
    below eight terms; up to 128, eight running sums over interleaved
    terms, added in pairs, then the remainder left to right; beyond, the
    two halves (the first a multiple of eight long) on their own."""
    n = len(terms)
    if n < 8:
        total = -0.0
        for term in terms:
            total += term
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    sums = terms[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        sums = [s + term for s, term in zip(sums, terms[i:i + 8])]
    total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5])
                                                           + (sums[6] + sums[7]))
    for term in terms[stop:]:
        total += term
    return total


def apply_rule_by_rule(functionals: Functionals, on_nodes: np.ndarray) -> np.ndarray:
    """``Functionals.apply`` one rule and one row at a time, in Python
    floats: each product ``w_i * f(x_i)`` on its own, summed as
    ``np.add.reduceat`` sums a segment, the first product plus the pairwise
    sum of the rest."""
    rows = np.atleast_2d(on_nodes)
    out = np.empty((rows.shape[0], functionals.n))
    for r, row in enumerate(rows.tolist()):
        for k in range(functionals.n):
            start = int(functionals.starts[k])
            products = [w * f for w, f in zip(functionals.rule(k)[1].tolist(),
                                               row[start:])]
            out[r, k] = products[0] + _pairwise_sum(products[1:])
    return out.reshape(np.shape(on_nodes)[:-1] + (functionals.n,))


def drawn_values_per_block(draw, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Trials ``rows`` (all of one kind) of ``draw`` on ``xs``, each wave
    block by its own ``trig(omega x)``."""
    kind = draw.kinds[rows[0]]
    if kind == POLYNOMIAL:
        width = int(draw.terms[rows].max())
        return _horner(draw.coefficients[rows, TEST_POLYNOMIAL_WIDTH - width:], xs)
    if kind == PIECEWISE_LINEAR:
        return np.array([np.interp(xs, *draw.samples[i]) for i in rows])
    trig = np.cos if kind == COSINE else np.sin
    out = draw.omega[rows, None] * xs
    trig(out, out=out)
    out *= draw.amplitude[rows, None]
    out += draw.offset
    return out


def iterate_limit_dense(matrix, tol: float = ITERATE_TOL) -> IterateResult:
    """``iterate_limit`` by the dense formula: one solve for all stationary
    vectors together, the absorption probabilities against an ``(n,
    components)`` indicator, and the residual from the two ``n x n x |S|``
    products."""
    arr = np.asarray(matrix, dtype=float)
    stochastic = check_row_stochastic(arr, TOL_STOCHASTIC)
    if not stochastic.passed:
        raise ConfigError(f"iterate limit needs a row-stochastic matrix: {stochastic.detail}")
    labels, periods = closed_classes(arr)
    states, transient = np.flatnonzero(periods[labels]), np.flatnonzero(periods[labels] == 0)
    owner = labels[states]
    generator = -arr
    np.fill_diagonal(generator, 0.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    hits = np.zeros((arr.shape[0], periods.size))
    hits[states, owner] = 1.0
    jump = generator[transient] / np.diagonal(generator)[transient, None]
    hits[transient] = np.linalg.solve(jump[:, transient], -jump[:, states] @ hits[states])
    system = generator[np.ix_(states, states)].T
    first = np.unique(owner, return_index=True)[1]
    system[first] = owner[first, None] == owner
    rhs = np.zeros(states.size)
    rhs[first] = 1.0
    block = hits[:, owner] * np.linalg.solve(system, rhs)
    limit = np.zeros_like(arr)
    limit[:, states] = block
    residual = float(max(np.abs(block @ arr[states] - limit).sum(axis=1).max(),
                         np.abs(arr @ block - block).sum(axis=1).max()))

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


def closed_classes_by_graph(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The independent oracle of ``closed_classes``: the support graph's
    strong components from scipy's ``csgraph`` and its periods from BFS
    levels by ``dijkstra``, with no short-cut for a positive tridiagonal
    band or a diagonal support. Classes are renumbered in order of their
    first state, as ``closed_classes`` numbers them; the labels keep
    ``connected_components``' dtype."""
    arr = np.asarray(matrix, dtype=float)
    support = arr > 0
    rows, cols = np.divmod(np.flatnonzero(support), arr.shape[0])
    indptr = np.concatenate(([0], np.cumsum(support.sum(axis=1))))
    graph = scipy.sparse.csr_array((np.ones(cols.size), cols, indptr), shape=arr.shape)
    count, labels = connected_components(graph, connection="strong")
    src, dst = labels[rows], labels[cols]
    closed = np.bincount(src[src != dst], minlength=count) == 0
    periods = (closed & (np.bincount(labels, np.diagonal(arr) > 0, count) > 0)).astype(int)
    cyclic = closed & (periods == 0)
    if cyclic.any():
        roots = np.unique(labels, return_index=True)[1][cyclic]
        level = dijkstra(graph, indices=roots, min_only=True, unweighted=True)
        edges = cyclic[src]
        steps = level[rows[edges]] + 1 - level[cols[edges]]
        np.gcd.at(periods, src[edges], np.abs(steps).astype(int))
    order = np.argsort(np.unique(labels, return_index=True)[1])
    rank = np.empty_like(labels, shape=count)
    rank[order] = np.arange(count)
    return rank[labels], periods[order]


ROOT = Path(__file__).resolve().parent.parent


def output_diff_tool():
    """``tools/output_diff.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("output_diff", ROOT / "tools" / "output_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mirrored(points: Sequence[float]) -> list[float]:
    """``1 - x`` of each point, in reverse order."""
    return [1.0 - x for x in reversed(points)]


def _mirror_functional(spec: dict) -> dict:
    if spec["kind"] == "dirac":
        return {**spec, "x": 1.0 - spec["x"]}
    if spec["kind"] == "interval-average":
        return {**spec, "a": 1.0 - spec["b"], "b": 1.0 - spec["a"]}
    return {**spec, "nodes": _mirrored(spec["nodes"]), "weights": spec["weights"][::-1]}


def mirror_config(config: dict) -> dict:
    """``config`` under ``x -> 1 - x``, with the basis and the functionals
    reversed: hat nodes and B-spline knots ``1 - x`` in reverse order, a
    Dirac at ``1 - x``, a cell ``[a, b]`` as ``[1 - b, 1 - a]`` and a
    quadrature's nodes ``1 - x`` (nodes and weights reversed). Its matrix
    is ``J M J``, ``J`` the reversal, up to the rounding of ``1 - x``. A
    Bernstein basis and the catalog Bernstein and Kantorovich operators are
    their own mirrors; every other field is kept."""
    mirrored = dict(config)
    if config["operator"] == "hat-dirac":
        mirrored["nodes"] = _mirrored(config["nodes"])
    elif config["operator"] == "schoenberg":
        mirrored["knots"] = _mirrored(config["knots"])
    elif config["operator"] == "custom":
        basis = dict(config["basis"])
        for key in ("nodes", "knots"):
            if key in basis:
                basis[key] = _mirrored(basis[key])
        mirrored["basis"] = basis
        mirrored["functionals"] = [_mirror_functional(spec)
                                   for spec in reversed(config["functionals"])]
    return mirrored


def benchmark_seeds() -> list[int]:
    """The sorted distinct seeds of the well-formed configs of the three
    benchmark pools (``perfbench/workloads.py``), the default seed of a
    config without one included."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    import workloads
    return sorted({entry.config.get("seed", AnalysisConfig.seed)
                   for workload in workloads.WORKLOADS
                   for entry in workloads.pool(workload).values() if not entry.malformed})


def well_formed_configs(*groups: str) -> dict[str, str]:
    """``name -> config text`` of every well-formed config of the three
    benchmark pools (``perfbench/workloads.py``), then of each config group
    of ``tools/output_diff.py`` named in ``groups`` (``"largest"``,
    ``"witness"``), each named as ``output_diff.py`` names it."""
    # The benchmark's modules import one another by their bare names.
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    import workloads
    configs = {f"{workload} {entry_id}": entry.text()
               for workload in workloads.WORKLOADS
               for entry_id, entry in workloads.pool(workload).items() if not entry.malformed}
    tool = output_diff_tool()
    for group in groups:
        configs.update((c["config"], c["text"]) for c in getattr(tool, f"{group}_configs")())
    return configs
