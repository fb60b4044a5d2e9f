"""Positive normalized linear functionals as nonnegative discrete measures.

Every functional is a finite rule ``f -> sum_i w_i f(x_i)`` on read-only
``nodes`` and ``weights`` arrays. The three kinds differ only in how they
set them: point evaluation (Dirac) is one node of weight one, a normalized
interval average a composite Gauss-Legendre rule scaled by ``1 / (b - a)``,
a weighted quadrature its given rule. Nonnegative weights of unit sum make
a positive functional with ``a(1) = 1`` and dual norm exactly one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .checks import CheckResult
from .errors import ConfigError, DomainError
from .functions import Function

#: Default composite Gauss-Legendre rule: exact for polynomials of degree
#: 15 on each of 4 panels, far beyond any catalog basis function.
DEFAULT_QUAD_ORDER = 8
DEFAULT_QUAD_PANELS = 4


@lru_cache(maxsize=32)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre_rule(a: float, b: float, order: int,
                         panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on ``[a, b]``."""
    if a >= b:
        raise DomainError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    if order < 1:
        raise ConfigError(f"quadrature order must be >= 1, got {order}")
    if panels < 1:
        raise ConfigError(f"panel count must be >= 1, got {panels}")
    ref_nodes, ref_weights = _reference_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    xs = (mid[:, None] + half[:, None] * ref_nodes[None, :]).ravel()
    ws = (half[:, None] * ref_weights[None, :]).ravel()
    return xs, ws


def integrate_gauss_legendre(f: Function, a: float, b: float,
                             order: int = DEFAULT_QUAD_ORDER,
                             panels: int = DEFAULT_QUAD_PANELS) -> float:
    """Composite Gauss-Legendre approximation of the integral of ``f`` over
    ``[a, b]``; exact to round-off for polynomials of degree ``2*order - 1``
    on each panel."""
    xs, ws = _gauss_legendre_rule(a, b, order, panels)
    return float(ws @ f.values(xs))


class Functional:
    """Discrete measure ``f -> sum_i w_i f(x_i)``.

    The constructor checks only shapes; weight positivity and normalization
    are verified by :func:`check_functional_normalization` so that broken
    rules can still be built for failure-path tests.
    """

    def __init__(self, nodes: Sequence[float] | np.ndarray,
                 weights: Sequence[float] | np.ndarray, name: str = "functional"):
        nodes = np.array(nodes, dtype=float)
        weights = np.array(weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ConfigError("functional needs at least one node")
        if weights.shape != nodes.shape:
            raise ConfigError("functional nodes and weights differ in length")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        self.nodes = nodes
        self.weights = weights
        self.name = name

    def __call__(self, f: Function) -> float:
        return float(self.weights @ f.values(self.nodes))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class DiracFunctional(Functional):
    """Point evaluation ``f -> f(x)``."""

    def __init__(self, x: float):
        self.x = float(x)
        super().__init__([self.x], [1.0], name=f"dirac({self.x:g})")


class IntervalAverageFunctional(Functional):
    """Normalized average ``f -> (b - a)^{-1} * integral_a^b f`` by the
    composite Gauss-Legendre rule of ``DEFAULT_QUAD_ORDER`` points on each
    of ``DEFAULT_QUAD_PANELS`` panels, with ``1 / (b - a)`` folded into the
    weights."""

    def __init__(self, a: float, b: float):
        if a >= b:
            raise ConfigError(f"interval average requires a < b, got [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)
        xs, ws = _gauss_legendre_rule(self.a, self.b, DEFAULT_QUAD_ORDER,
                                      DEFAULT_QUAD_PANELS)
        super().__init__(xs, ws / (self.b - self.a), name=f"avg[{self.a:g},{self.b:g}]")


class WeightedQuadratureFunctional(Functional):
    """Finite rule ``f -> sum_i w_i f(x_i)`` with the given nodes and weights."""

    def __init__(self, nodes: Sequence[float], weights: Sequence[float]):
        super().__init__(nodes, weights)
        self.name = f"quad({self.nodes.size} nodes)"


def make_kantorovich_functionals(n: int) -> tuple[IntervalAverageFunctional, ...]:
    """The ``n + 1`` normalized cell averages over ``[k/(n+1), (k+1)/(n+1)]``
    for ``k = 0 .. n``."""
    if n < 1:
        raise ConfigError(f"Kantorovich index must be >= 1, got {n}")
    cells = n + 1
    return tuple(
        IntervalAverageFunctional(k / cells, (k + 1) / cells) for k in range(cells)
    )


def check_functional_normalization(functional: Functional,
                                   tol: float = 1e-12) -> CheckResult:
    """Exact structural check: every weight is ``>= -tol`` and the total
    mass is within ``tol`` of one. The value is the larger of the mass
    deviation and the magnitude of the most negative weight."""
    weights = functional.weights
    i = int(np.argmin(weights))
    negative = max(0.0, -float(weights[i]))
    mass_dev = abs(float(weights.sum()) - 1.0)
    return CheckResult(
        name="functional_normalization",
        passed=bool(negative <= tol and mass_dev <= tol),
        value=max(mass_dev, negative),
        threshold=tol,
        detail=(f"min weight {float(weights[i])!r} at node {float(functional.nodes[i])!r}, "
                f"|sum w - 1| = {mass_dev:.3e}"),
    )
