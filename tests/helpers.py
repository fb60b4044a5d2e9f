"""Shared test utilities: seeded generators and independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np


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
