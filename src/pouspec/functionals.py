"""Positive normalized linear functionals as nonnegative discrete measures.

Every functional is a finite rule ``f -> sum_i w_i f(x_i)``. The three
kinds differ only in how they set it: point evaluation (Dirac) is one node
of weight one, a normalized interval average a composite Gauss-Legendre
rule scaled by ``1 / (b - a)``, a weighted quadrature its given rule.
Nonnegative weights of unit sum make a positive functional with
``a(1) = 1`` and dual norm exactly one.

The functionals of an operator are one :class:`Functionals`, their rules
joined. They apply to values, not to a function object: all at once are
:meth:`Functionals.apply` of ``f(nodes)``. Each kind has a builder
of all its members in one array pass (:func:`dirac_functionals`,
:func:`interval_average_functionals` by one ``np.linspace`` over all
cells, :func:`quadrature_functionals`); :func:`join` gathers whole rules
of several kinds into one order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .checks import CheckResult
from .errors import ConfigError

#: Default composite Gauss-Legendre rule: exact for degree <= 15 on each of
#: 4 panels. On Kantorovich cells (degree up to 499) it stays within
#: rounding: 2.2e-15 from the exact matrix at n = 499 (mpmath, 50 digits).
#: A hat with a kink inside a panel is another matter: the large hat-average
#: matrices are 5.2e-4 to 9.2e-4 from the exact cell averages. Verdicts are
#: about the operator that the rule defines.
DEFAULT_QUAD_ORDER = 8
DEFAULT_QUAD_PANELS = 4

#: Default slack of the normalization check, on each negative weight and on
#: the mass.
NORMALIZATION_TOL = 1e-12

#: Kind codes of the members of a :class:`Functionals`, and the name of
#: each kind in messages.
DIRAC, AVERAGE, QUADRATURE = 0, 1, 2
KIND_NAMES = ("DiracFunctional", "IntervalAverageFunctional",
              "WeightedQuadratureFunctional")

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


@dataclass(frozen=True, eq=False, repr=False)
class Functionals:
    """``n`` discrete measures as one joined rule of read-only arrays.

    Member ``k`` is ``nodes[starts[k]:starts[k + 1]]`` with its weights (the
    last runs to the end), of kind ``kinds[k]``; ``a[k]`` and ``b[k]`` are
    the cell of an average, the point twice for a Dirac and NaN for a
    quadrature. Builders check only shapes and cells: normalization is
    :func:`check_functional_normalization`'s, so that broken rules can
    still be built for failure-path tests.
    """

    nodes: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    kinds: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for array in (self.nodes, self.weights, self.starts, self.kinds, self.a, self.b):
            array.flags.writeable = False

    @property
    def n(self) -> int:
        return self.starts.size

    def rule(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(nodes, weights)`` of member ``k``, read-only views."""
        stop = self.starts[k + 1] if k + 1 < self.n else self.nodes.size
        return self.nodes[self.starts[k]:stop], self.weights[self.starts[k]:stop]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``(a_k(f))_k`` from ``f`` on ``nodes``, for each row of ``values``;
        a row has the bits of its values applied on their own."""
        return np.add.reduceat(values * self.weights, self.starts, axis=-1)

    def name(self, k: int) -> str:
        """Member ``k`` in messages, by its kind."""
        return (f"dirac({self.a[k]:g})", f"avg[{self.a[k]:g},{self.b[k]:g}]",
                f"quad({self.rule(k)[0].size} nodes)")[self.kinds[k]]

    def __repr__(self) -> str:
        return f"Functionals(n={self.n})"


def _uniform(kind: int, nodes: np.ndarray, weights: np.ndarray,
             a: np.ndarray, b: np.ndarray) -> Functionals:
    """Members of one kind, one rule per row of ``nodes`` and ``weights``."""
    count, size = nodes.shape
    return Functionals(nodes.reshape(-1), weights.reshape(-1),
                       np.arange(count) * size, np.full(count, kind, dtype=np.int8), a, b)


def dirac_functionals(x: Sequence[float] | np.ndarray) -> Functionals:
    """The point evaluations at the points ``x``, in order: a node of weight one."""
    points = np.array(x, dtype=float).reshape(-1)
    return _uniform(DIRAC, points[:, None], np.ones((points.size, 1)), points, points)


def interval_average_functionals(a: Sequence[float] | np.ndarray,
                                 b: Sequence[float] | np.ndarray) -> Functionals:
    """The normalized averages ``f -> (b - a)^{-1} * integral_a^b f`` over
    the cells ``[a[k], b[k]]``, in order, by one :func:`_gauss_legendre_rule`
    with ``1 / (b - a)`` folded into the weights; :class:`ConfigError`
    names the first cell with ``a[k] >= b[k]``."""
    lo, hi = np.array(a, dtype=float), np.array(b, dtype=float)
    bad = np.flatnonzero(lo >= hi)
    if bad.size:
        k = int(bad[0])
        raise ConfigError(f"interval average requires a < b, got [{a[k]}, {b[k]}]")
    xs, ws = _gauss_legendre_rule(lo, hi)
    ws /= (hi - lo)[:, None]
    return _uniform(AVERAGE, xs, ws, lo, hi)


def quadrature_functionals(nodes: Sequence[Sequence[float]],
                           weights: Sequence[Sequence[float]]) -> Functionals:
    """The finite rules ``f -> sum_i weights[k][i] f(nodes[k][i])``, in
    order; :class:`ConfigError` names the first rule without a node or with
    nodes and weights of different lengths."""
    if len(nodes) != len(weights):
        raise ConfigError("functional nodes and weights differ in length")
    for x, w in zip(nodes, weights):
        if np.ndim(x) != 1 or len(x) < 1:
            raise ConfigError("functional needs at least one node")
        if np.shape(w) != np.shape(x):
            raise ConfigError("functional nodes and weights differ in length")
    sizes = np.array([len(x) for x in nodes], dtype=np.intp)
    return Functionals(np.fromiter(chain.from_iterable(nodes), float, sizes.sum()),
                       np.fromiter(chain.from_iterable(weights), float, sizes.sum()),
                       np.cumsum(sizes) - sizes,
                       np.full(sizes.size, QUADRATURE, dtype=np.int8),
                       *[np.full(sizes.size, np.nan)] * 2)


def join(parts: Sequence[Functionals], order: Sequence[int]) -> Functionals:
    """The members of ``parts``, taken in sequence, placed so that member
    ``i`` is member ``order[i]`` of the result (``order`` a permutation).
    Whole rules are gathered in one pass: each result node and weight is a
    copy of its member's own."""
    parts = [dirac_functionals(()), *parts]  # no parts at all join to no members
    joined = {attr: np.concatenate([getattr(p, attr) for p in parts])
              for attr in ("nodes", "weights", "kinds", "a", "b")}
    offsets = np.cumsum([0] + [p.nodes.size for p in parts[:-1]])
    first = np.concatenate([p.starts + offset for p, offset in zip(parts, offsets)])
    source = np.argsort(order)
    sizes = np.diff(first, append=joined["nodes"].size)[source]
    starts = np.cumsum(sizes) - sizes
    gather = np.arange(sizes.sum()) + np.repeat(first[source] - starts, sizes)
    return Functionals(joined["nodes"][gather], joined["weights"][gather], starts,
                       joined["kinds"][source], joined["a"][source], joined["b"][source])


def make_kantorovich_functionals(n: int) -> Functionals:
    """The ``n + 1`` normalized cell averages over ``[k/(n+1), (k+1)/(n+1)]``
    for ``k = 0 .. n``."""
    if n < 1:
        raise ConfigError(f"Kantorovich index must be >= 1, got {n}")
    cells = n + 1
    return interval_average_functionals(np.arange(cells) / cells,
                                        np.arange(1, cells + 1) / cells)


def check_functional_normalization(functionals: Functionals, k: int,
                                   tol: float = NORMALIZATION_TOL) -> CheckResult:
    """Exact structural check of member ``k``: every weight is ``>= -tol``
    and the total mass is within ``tol`` of one. The value is the larger of
    the mass deviation and the magnitude of the most negative weight."""
    nodes, weights = functionals.rule(k)
    i = int(np.argmin(weights))
    negative = max(0.0, -float(weights[i]))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite or NaN mass fails
        mass_dev = abs(float(weights.sum()) - 1.0)
    return CheckResult(
        name="functional_normalization",
        passed=bool(negative <= tol and mass_dev <= tol),
        value=max(mass_dev, negative),
        threshold=tol,
        detail=(f"min weight {float(weights[i])!r} at node {float(nodes[i])!r}, "
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
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite or NaN mass fails
        for size in np.unique(sizes).tolist():
            rules = np.flatnonzero(sizes == size)
            mass[rules] = weights[starts[rules, None] + np.arange(size)].sum(axis=1)
    passed = ((np.minimum.reduceat(weights, starts) >= -NORMALIZATION_TOL)
              & (np.abs(mass - 1.0) <= NORMALIZATION_TOL))
    return starts.size if passed.all() else int(np.argmin(passed))
