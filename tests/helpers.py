"""Shared test utilities: seeded generators and independent oracles."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np

from pouspec.checks import CheckResult
from pouspec.functions import (ONE, Function, Polynomial, SampledFunction, Wave,
                               cosine_wave, polynomial, sine_wave)
from pouspec.operators import coefficient_vector


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
    evaluation: ``basis.values(a_k.nodes) @ a_k.weights``."""
    return np.vstack([op.basis.values(a.nodes) @ a.weights for a in op.functionals])


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


def random_function_oracle(rng: np.random.Generator, nonnegative: bool = False) -> Function:
    """One test-catalog draw built straight into its function object,
    sharing no code with ``draw_test_functions``: the same generator calls
    in the same order. The package's draw must match it bit for bit and name
    for name."""
    kind = rng.integers(0, 3)
    if kind == 0:
        if nonnegative:
            base = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 5)))
            sq = np.convolve(base, base)
            return polynomial(sq, name=f"poly(deg {base.size - 1})^2")
        coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 8)))
        return polynomial(coeffs)
    if kind == 1:
        freq = int(rng.integers(1, 9))
        amp = float(rng.uniform(-1.0, 1.0))
        use_cos = bool(rng.integers(0, 2))
        offset = 1.0 if nonnegative else 0.0
        make = cosine_wave if use_cos else sine_wave
        return make(freq, amplitude=amp, offset=offset)
    breaks = int(rng.integers(2, 17))
    inner = np.sort(rng.uniform(0.0, 1.0, size=breaks))
    xs = np.concatenate(([0.0], inner, [1.0]))
    xs = xs[np.concatenate(([True], xs[1:] > xs[:-1]))]  # np.unique of the sorted xs
    lo_val = 0.0 if nonnegative else -1.0
    ys = rng.uniform(lo_val, 1.0, size=xs.size)
    return SampledFunction(xs, ys, name=f"pwl({xs.size})")


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
    samples = [ONE]
    samples.extend(random_function_oracle(rng) for _ in range(trials))
    for f in samples:
        denom = f.sup_norm(grid)
        if denom < 1e-12:
            continue
        image = coefficient_vector(op, f) @ values
        best = max(best, float(np.max(np.abs(image))) / denom)
    return float(best)


def catalog_values_oracle(f, xs: np.ndarray) -> np.ndarray:
    """A random-catalog function on ``xs`` by its own one-dimensional
    formula, from its parameters: Horner from ``full(c[-1])`` for a
    polynomial, ``offset + amplitude * trig(omega * xs)`` for a wave,
    ``np.interp`` for sampled data."""
    if isinstance(f, Polynomial):
        c = f.coefficients
        out = np.full_like(xs, c[-1])
        for a in c[-2::-1]:
            out = out * xs + a
        return out
    if isinstance(f, Wave):
        return f.offset + f.amplitude * f.trig(f.omega * xs)
    assert isinstance(f, SampledFunction), f
    return np.interp(xs, f.xs, f.ys)
