"""Shared test utilities: seeded generators and independent oracles."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from pouspec.checks import CheckResult
from pouspec.errors import ConfigError, NotConstructibleError
from pouspec.functionals import (AVERAGE, DEFAULT_QUAD_ORDER, DEFAULT_QUAD_PANELS,
                                 KIND_NAMES, Functionals, check_functional_normalization,
                                 dirac_functionals, interval_average_functionals, join,
                                 quadrature_functionals)
from pouspec.functions import (COSINE, PIECEWISE_LINEAR, POLYNOMIAL, TEST_POLYNOMIAL_WIDTH,
                               _horner, outside_domain, require_in_domain)
from pouspec.operators import (_equally_spaced, _point_annihilation_nodes,
                               coefficient_vector)
from pouspec.spectra import (ITERATE_TOL, TOL_STOCHASTIC, IterateResult,
                             check_row_stochastic, closed_classes)


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


def rules(functionals: Functionals) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(nodes, weights)`` of each member, in order."""
    return [functionals.rule(k) for k in range(functionals.n)]


def pairing(functionals: Functionals, f, k: int = 0) -> float:
    """``a_k(f) = sum_i w_i f(x_i)`` for a vectorized callable ``f``."""
    nodes, weights = functionals.rule(k)
    return float(weights @ f(nodes))


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
    evaluation: ``basis.values(nodes_k) @ weights_k`` for each rule."""
    return np.vstack([op.basis.values(x) @ w for x, w in rules(op.functionals)])


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


def candidate_witness_two_pass(op, grid: np.ndarray) -> tuple[
        str, Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """``(name, w, w_on_grid)`` of the kernel witness, built by a loop over
    the nodes or the cells; ``w`` is evaluated on the grid here and again
    on the nodes by :func:`verified_two_pass`."""
    fs = op.functionals
    kinds = [int(fs.kinds[k]) for k in range(fs.n)]
    all_point = all(kind != AVERAGE for kind in kinds)
    all_average = all(kind == AVERAGE for kind in kinds)

    if all_point:
        nodes = _point_annihilation_nodes(op)
        if _equally_spaced(nodes):
            cells = nodes.size - 1
            name = f"sin({cells}pi(x-0)/1)"

            def w(xs: np.ndarray) -> np.ndarray:
                return np.sin(cells * np.pi * xs)
        else:
            def product_of_sines(xs: np.ndarray) -> np.ndarray:
                out = np.ones_like(xs)
                for x0 in nodes:
                    out *= np.sin(np.pi * (xs - x0))
                return out

            raw_on_grid = product_of_sines(grid)
            peak = float(np.max(np.abs(raw_on_grid)))
            if peak <= 0.0:
                raise NotConstructibleError(
                    f"{op.name}: node-vanishing product is identically zero "
                    f"on the verification grid")
            return (f"node-vanishing product ({nodes.size} nodes)",
                    lambda xs: product_of_sines(xs) / peak, raw_on_grid / peak)
    elif all_average:
        cells = sorted(((float(fs.a[k]), float(fs.b[k])) for k in range(fs.n)),
                       key=lambda c: c[0])
        for (a0, b0), (a1, _) in zip(cells, cells[1:]):
            if b0 > a1 + 1e-12:
                raise NotConstructibleError(
                    f"{op.name}: interval-average supports overlap "
                    f"([{a0:g}, {b0:g}] and [{a1:g}, ...]); no cellwise witness")
        widths = np.array([b - a for a, b in cells])
        starts = np.array([a for a, _ in cells])
        contiguous = (abs(starts[0]) <= 1e-12
                      and abs(cells[-1][1] - 1.0) <= 1e-12
                      and np.all(np.abs(starts[1:] - np.array(
                          [b for _, b in cells[:-1]])) <= 1e-12))
        if contiguous and np.max(np.abs(widths - widths[0])) <= 1e-9:
            m = len(cells)
            name = f"sin({2 * m}pi(x-0)/1)"

            def w(xs: np.ndarray) -> np.ndarray:
                return np.sin(2.0 * m * np.pi * xs)
        else:
            name = f"cellwise sine ({len(cells)} cells)"

            def w(xs: np.ndarray) -> np.ndarray:
                out = np.zeros_like(xs)
                for a, cw in zip(starts, widths):
                    inside = (xs >= a) & (xs <= a + cw)
                    out[inside] = np.sin(2.0 * np.pi * (xs[inside] - a) / cw)
                return out
    else:
        names = sorted({KIND_NAMES[kind] for kind in kinds})
        raise NotConstructibleError(
            f"{op.name}: no analytic kernel witness for mixed functional "
            f"kinds {names}")

    return name, w, w(grid)


def verified_two_pass(op, values: np.ndarray, w: Callable[[np.ndarray], np.ndarray],
                      w_on_grid: np.ndarray) -> tuple[float, float]:
    """``(||w||, ||Tw||)`` on the grid, ``w`` evaluated again on the nodes."""
    witness_norm = float(np.max(np.abs(w_on_grid)))
    residual = float(np.max(np.abs(coefficient_vector(op, w) @ values)))
    if witness_norm < 0.5 or residual > 1e-10:
        raise NotConstructibleError(
            f"{op.name}: witness verification failed "
            f"(||w|| = {witness_norm:.3e}, ||Tw|| = {residual:.3e})")
    return witness_norm, residual


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
