"""Positive normalized linear functionals as nonnegative discrete measures.

Every functional is a finite rule ``f -> sum_i w_i f(x_i)`` on read-only
``nodes`` and ``weights`` arrays. The three kinds differ only in how they
set them: point evaluation (Dirac) is one node of weight one, a normalized
interval average a composite Gauss-Legendre rule scaled by ``1 / (b - a)``,
a weighted quadrature its given rule. Nonnegative weights of unit sum make
a positive functional with ``a(1) = 1`` and dual norm exactly one. A
functional is applied to values, not to a function object: ``a(f)`` is
``weights @ f(nodes)``, and an operator joins the rules of all its
functionals to apply them at once.

Diracs and interval averages are built as families: :func:`dirac_functionals`
and :func:`interval_average_functionals` compute the rules of all their
members in one array pass (one ``(count, 1)`` node array; one
``np.linspace`` over all cells), and each member holds read-only row views
of the family's arrays. ``DiracFunctional(x)`` and
``IntervalAverageFunctional(a, b)`` are the one-row case of the same pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import CheckResult
from .errors import ConfigError

#: Default composite Gauss-Legendre rule: exact for polynomials of degree
#: 15 on each of 4 panels. Kantorovich cell averages reach degree 499, so
#: the rule is not exact for them, but its error stays below rounding: at
#: n = 499 its matrix differs from the exact cell averages (mpmath, 50
#: digits) by at most 2.2e-15.
DEFAULT_QUAD_ORDER = 8
DEFAULT_QUAD_PANELS = 4

#: Default slack of the normalization check, on each negative weight and on
#: the mass.
NORMALIZATION_TOL = 1e-12

#: Gauss-Legendre nodes and weights of ``DEFAULT_QUAD_ORDER`` points on [-1, 1].
_REFERENCE_NODES, _REFERENCE_WEIGHTS = np.polynomial.legendre.leggauss(DEFAULT_QUAD_ORDER)


def _gauss_legendre_rule(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on ``[a, b]``: the reference
    rule on each of ``DEFAULT_QUAD_PANELS`` equal panels. For arrays ``a``
    and ``b`` of one shape, the rules of all intervals ``[a_k, b_k]`` at
    once, one row each, from one ``np.linspace`` along the last axis; each
    row has the bits of the rule on its own interval."""
    edges = np.linspace(a, b, DEFAULT_QUAD_PANELS + 1, axis=-1)
    half = np.diff(edges, axis=-1) / 2.0
    mid = (edges[..., :-1] + edges[..., 1:]) / 2.0
    shape = (*np.shape(a), DEFAULT_QUAD_PANELS * DEFAULT_QUAD_ORDER)
    xs = (mid[..., None] + half[..., None] * _REFERENCE_NODES).reshape(shape)
    ws = (half[..., None] * _REFERENCE_WEIGHTS).reshape(shape)
    return xs, ws


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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class DiracFunctional(Functional):
    """Point evaluation ``f -> f(x)``."""

    def __init__(self, x: float):
        vars(self).update(vars(dirac_functionals([x])[0]))


class IntervalAverageFunctional(Functional):
    """Normalized average ``f -> (b - a)^{-1} * integral_a^b f`` by the
    composite Gauss-Legendre rule of ``DEFAULT_QUAD_ORDER`` points on each
    of ``DEFAULT_QUAD_PANELS`` panels, with ``1 / (b - a)`` folded into the
    weights."""

    def __init__(self, a: float, b: float):
        vars(self).update(vars(interval_average_functionals([a], [b])[0]))


class WeightedQuadratureFunctional(Functional):
    """Finite rule ``f -> sum_i w_i f(x_i)`` with the given nodes and weights."""

    def __init__(self, nodes: Sequence[float], weights: Sequence[float]):
        super().__init__(nodes, weights)
        self.name = f"quad({self.nodes.size} nodes)"


def _family(cls, nodes: np.ndarray, weights: np.ndarray, names: list[str],
            **fields: list) -> tuple:
    """One functional of ``cls`` per row of ``nodes`` and ``weights``, in
    order: member ``k`` holds read-only views of row ``k``, the name
    ``names[k]`` and ``fields[attr][k]`` as each further attribute."""
    nodes.flags.writeable = False
    weights.flags.writeable = False
    members = []
    for k, name in enumerate(names):
        member = cls.__new__(cls)
        member.nodes, member.weights, member.name = nodes[k], weights[k], name
        for attr, column in fields.items():
            setattr(member, attr, column[k])
        members.append(member)
    return tuple(members)


def dirac_functionals(x: Sequence[float] | np.ndarray) -> tuple[DiracFunctional, ...]:
    """The point evaluations at the points ``x``, in order, from one
    ``(count, 1)`` node array and its weights of one."""
    nodes = np.array(x, dtype=float).reshape(-1, 1)
    points = nodes[:, 0].tolist()
    return _family(DiracFunctional, nodes, np.ones_like(nodes),
                   [f"dirac({v:g})" for v in points], x=points)


def interval_average_functionals(a: Sequence[float] | np.ndarray,
                                 b: Sequence[float] | np.ndarray
                                 ) -> tuple[IntervalAverageFunctional, ...]:
    """The normalized averages over ``[a[k], b[k]]``, in order, from one
    :func:`_gauss_legendre_rule` over all cells; :class:`ConfigError` names
    the first cell with ``a[k] >= b[k]``."""
    lo = np.array(a, dtype=float)
    hi = np.array(b, dtype=float)
    bad = np.flatnonzero(lo >= hi)
    if bad.size:
        k = int(bad[0])
        raise ConfigError(f"interval average requires a < b, got [{a[k]}, {b[k]}]")
    xs, ws = _gauss_legendre_rule(lo, hi)
    ws /= (hi - lo)[:, None]
    lo_list, hi_list = lo.tolist(), hi.tolist()
    return _family(IntervalAverageFunctional, xs, ws,
                   [f"avg[{p:g},{q:g}]" for p, q in zip(lo_list, hi_list)],
                   a=lo_list, b=hi_list)


def make_kantorovich_functionals(n: int) -> tuple[IntervalAverageFunctional, ...]:
    """The ``n + 1`` normalized cell averages over ``[k/(n+1), (k+1)/(n+1)]``
    for ``k = 0 .. n``."""
    if n < 1:
        raise ConfigError(f"Kantorovich index must be >= 1, got {n}")
    cells = n + 1
    return interval_average_functionals(np.arange(cells) / cells,
                                        np.arange(1, cells + 1) / cells)


def check_functional_normalization(functional: Functional,
                                   tol: float = NORMALIZATION_TOL) -> CheckResult:
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


def first_unnormalized(weights: np.ndarray, starts: np.ndarray) -> int:
    """Index of the first rule that :func:`check_functional_normalization`
    fails at its default tolerance, or the number of rules when none does;
    rule ``k`` is ``weights[starts[k]:starts[k + 1]]`` (the last runs to
    the end).

    One pass over all rules instead of a call per rule. The least weight of
    each rule is ``np.minimum.reduceat``, which is exact. The mass of each
    rule is a row sum over the rules of one size gathered as a ``(count,
    size)`` matrix, which has the bits of that rule's own ``weights.sum()``
    (``np.add.reduceat`` sums in another order)."""
    sizes = np.diff(starts, append=weights.size)
    mass = np.empty(starts.size)
    for size in np.unique(sizes).tolist():
        rules = np.flatnonzero(sizes == size)
        mass[rules] = weights[starts[rules, None] + np.arange(size)].sum(axis=1)
    passed = ((np.minimum.reduceat(weights, starts) >= -NORMALIZATION_TOL)
              & (np.abs(mass - 1.0) <= NORMALIZATION_TOL))
    return starts.size if passed.all() else int(np.argmin(passed))
