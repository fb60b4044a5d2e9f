"""Positive finite-rank operators ``Tf = sum_k a_k(f) e_k`` and their checks.

An :class:`OperatorSpec` pairs a partition-of-unity basis with one
normalized positive functional per basis function, all held as one
joined rule (:class:`~pouspec.functionals.Functionals`). The catalog
factories cover point-evaluation operators on Bernstein and hat bases, the
Kantorovich operator (cell averages against the Bernstein basis), and the
Schoenberg variational operator (point evaluation at Greville abscissae
against a clamped B-spline basis).

A function enters only through its values: :func:`coefficient_vector`
takes a plain vectorized callable and evaluates it once on the joined
nodes ``op.functionals.nodes``. Construction checks the normalization of
every functional in one pass over the joined rule
(:func:`~pouspec.functionals.first_unnormalized`). The verification
helpers measure, on a grid the caller passes in and with seeded random
test functions: constant reproduction, positivity, the unit operator norm
and an explicit nonzero kernel witness. Each takes the grid and
``values``, the basis evaluated on it once by the caller (shape ``(n,
len(grid))``); none evaluates the basis itself. The kernel witness is
evaluated once, on the grid and the joined nodes together, by array
passes: a 2-D sine reduced along the node axis for a product of sines
(written as a signed zero, without sines, at the joined nodes that are its
own nodes), one ``searchsorted`` for a cellwise sine.

The positivity and norm checks draw all their test functions first, as
parameter arrays (:func:`~pouspec.functions.draw_test_functions`), and
run in two passes. Pass 1 works through them in kind-pure blocks of at
most ``TRIAL_BLOCK_VALUES`` values: the block's values on the joined nodes
(the norm check adds the grid, for ``||f||``) in one pass (one Horner loop
for polynomials, a row of the check's table of ``trig(omega x)``, one per
distinct frequency (on too many points, the block's own ``trig(omega
x)``), scaled and shifted for each wave, one ``np.interp``
per piecewise-linear trial), and the coefficients of the whole block by
one ``np.add.reduceat`` along its rows. It keeps the ``(trials, n)``
coefficient matrix and one bound per trial. ``Tf(x)`` combines the
coefficients ``c`` with the basis values at ``x``, which for a partition
of unity sum to one, so ``|Tf| <= max|c|`` and ``Tf >= min(c)``; the
bounds scale these by the basis' column sums and widen them by Higham's
rounding-error bound for a dot product. Pass 2 computes images on the
grid, by one stacked product (one matrix-vector product per row), only
for the trials whose bound can still change the result, in bound order,
and stops at the first that cannot. Each computed image has the bits of
``coefficient_vector(op, f) @ values`` taken one function at a time, and a
skipped trial provably cannot reach, or for positivity tie, the reported
value, so every result has the bits of the one-at-a-time check. The
trial that positivity reports is named from its parameters
(:meth:`~pouspec.functions.DrawnTestFunctions.name`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bases import (BasisSystem, DEFAULT_GRID_POINTS, TOL_POU, check_nonnegativity,
                    check_partition_of_unity, make_bernstein_basis,
                    make_bspline_basis, make_hat_basis)
from .checks import CheckResult, nonempty_grid
from .errors import ConfigError, NotConstructibleError
from .functions import draw_test_functions, grid, outside_domain, require_in_domain
from .functionals import (AVERAGE, KIND_NAMES, Functionals, check_functional_normalization,
                          dirac_functionals, first_unnormalized,
                          make_kantorovich_functionals)

#: Residual bound a kernel witness must meet on the verification grid.
WITNESS_RESIDUAL_TOL = 1e-10

#: Minimal sup norm a kernel witness must have (it is nonzero by a margin).
WITNESS_MIN_NORM = 0.5

#: Most values (test functions times points) the positivity and norm checks
#: hold in one block, 64 KB of float64; a block always holds at least one
#: test function. Smaller blocks pay more Python overhead per function;
#: larger ones raise peak memory: against 2**13, the benchmark's
#: catalog-sweep measured +0.4 MB of peak RSS at 2**14 and +4.7 MB at 2**18.
TRIAL_BLOCK_VALUES = 2 ** 13

#: Most factors (points times nodes) the node-vanishing product of sines
#: holds at once, 512 KB of float64; a block always holds at least one point.
WITNESS_BLOCK_VALUES = 2 ** 16


@dataclass(frozen=True)
class OperatorSpec:
    """Basis plus functionals of equal count; immutable once built.

    Every functional node lies in [0, 1]: whatever ``validate`` says,
    construction raises :class:`~pouspec.errors.DomainError` naming the
    first functional with a node outside, so no check and no collocation
    assembly tests the nodes again. With ``validate=True`` (the default)
    construction also verifies the partition of unity and basis
    nonnegativity on one evaluation of the basis on the default grid, and
    the normalization of every functional (nonnegative weights of unit
    mass). ``validate=False`` builds deliberately broken operators for
    failure-path tests: wrong mass, negative weights or a broken basis,
    never a node outside [0, 1].

    ``default_values`` is the basis on ``grid(DEFAULT_GRID_POINTS)`` that
    validation evaluated (read-only), kept so that checks on that grid
    reuse it; it is ``None`` when ``validate=False``, and takes no part in
    eq, hash or repr.
    """

    basis: BasisSystem
    functionals: Functionals
    name: str = "operator"
    validate: InitVar[bool] = True
    default_values: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, validate: bool):
        fs = self.functionals
        if fs.n != self.basis.n:
            raise ConfigError(
                f"{self.name}: basis has {self.basis.n} functions but "
                f"{fs.n} functionals were given")
        # The first functional with a node outside [0, 1], or n, from one
        # domain test over the joined nodes.
        outside = outside_domain(fs.nodes)
        first_outside = self.n
        if outside.any():
            first_outside = int(np.searchsorted(fs.starts, np.argmax(outside),
                                                side="right")) - 1
        object.__setattr__(self, "default_values", None)
        if validate:
            xs = grid(DEFAULT_GRID_POINTS)
            values = self.basis.values(xs)
            values.flags.writeable = False
            pou = check_partition_of_unity(values, xs)
            if not pou.passed:
                raise ConfigError(
                    f"{self.name}: basis violates the partition of unity "
                    f"(deviation {pou.value:.3e} at x={pou.worst_x:.6g})")
            # The least value decides; only a failure locates it.
            if not values.min() >= -TOL_POU:
                nn = check_nonnegativity(values, xs)
                raise ConfigError(
                    f"{self.name}: basis takes negative values "
                    f"({nn.value:.3e} at x={nn.worst_x:.6g})")
            object.__setattr__(self, "default_values", values)
            # Functional k is checked for its nodes, then for its mass, in
            # order of k: the first functional with a node outside [0, 1]
            # raises after the normalization of those before it. One pass
            # finds the first unnormalized functional; only that one is
            # checked on its own, for the message.
            k = first_unnormalized(fs.weights, fs.starts)
            if k < first_outside:
                norm = check_functional_normalization(fs, k)
                raise ConfigError(f"{self.name}: functional {k} ({fs.name(k)}) "
                                  f"is not a nonnegative rule of unit mass "
                                  f"({norm.detail})")
        if first_outside < self.n:
            require_in_domain(fs.rule(first_outside)[0],
                              f"{self.name}: functional {first_outside} "
                              f"({fs.name(first_outside)})")

    @property
    def n(self) -> int:
        return self.basis.n


# --------------------------------------------------------------------------
# Catalog operators
# --------------------------------------------------------------------------

def bernstein_operator(n: int) -> OperatorSpec:
    """Point-evaluation operator on the Bernstein basis: samples at the
    equally spaced nodes ``k/n``."""
    basis = make_bernstein_basis(n)
    return OperatorSpec(basis, dirac_functionals(np.arange(n + 1) / n),
                        name=f"bernstein(n={n})")


def kantorovich_operator(n: int) -> OperatorSpec:
    """Cell averages over the ``n + 1`` equal subintervals paired with the
    Bernstein basis of degree ``n``."""
    basis = make_bernstein_basis(n)
    return OperatorSpec(basis, make_kantorovich_functionals(n),
                        name=f"kantorovich(n={n})")


def greville_abscissae(knots: Sequence[float], degree: int) -> np.ndarray:
    """Knot averages ``(t_{k+1} + ... + t_{k+degree}) / degree`` for each
    basis function of a clamped knot vector: one ``mean`` over the sliding
    windows of the inner knots, with the bits of each average taken on its
    own."""
    t = np.asarray(knots, dtype=float)
    if degree < 1:
        raise ConfigError(f"Greville abscissae need degree >= 1, got {degree}")
    if t.size < degree + 2:
        return np.empty(0)
    return sliding_window_view(t[1:-1], degree).mean(axis=1)


def schoenberg_operator(knots: Sequence[float], degree: int) -> OperatorSpec:
    """Point evaluation at the Greville abscissae against the clamped
    B-spline basis for ``knots``."""
    basis = make_bspline_basis(knots, degree)
    return OperatorSpec(basis, dirac_functionals(greville_abscissae(knots, degree)),
                        name=f"schoenberg(deg {degree}, n={basis.n})")


def hat_dirac_operator(nodes: Sequence[float]) -> OperatorSpec:
    """Nodal interpolation: hat basis over a partition with point evaluation
    at the same nodes. Its collocation matrix is the identity."""
    basis = make_hat_basis(nodes)
    return OperatorSpec(basis, dirac_functionals(nodes), name=f"hat-dirac({basis.n})")


# --------------------------------------------------------------------------
# Application
# --------------------------------------------------------------------------

def coefficient_vector(op: OperatorSpec,
                       f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The vector ``(a_k(f))_k``: the vectorized callable ``f`` is evaluated
    once on the operator's joined nodes, then weighted and summed per
    functional. ``Tf`` on points ``xs`` is this vector times the basis
    values there."""
    fs = op.functionals
    return np.add.reduceat(fs.weights * f(fs.nodes), fs.starts)


# --------------------------------------------------------------------------
# Lemma verification
# --------------------------------------------------------------------------

def verify_constant_reproduction(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                                 tol: float = WITNESS_RESIDUAL_TOL) -> CheckResult:
    """Max deviation of ``T1`` from one on the grid; the coefficients of the
    constant one are the functionals' masses."""
    grid = nonempty_grid(grid, values, "constant-reproduction")
    return CheckResult.deviation_from_one(
        "constant_reproduction", coefficient_vector(op, np.ones_like) @ values, grid, tol)


def _coefficients(op: OperatorSpec, on_nodes: np.ndarray) -> np.ndarray:
    """The coefficients ``(a_k(f_i))_k`` for each row of ``on_nodes``, the
    functions' values on ``op.functionals.nodes`` (overwritten). Row ``i``
    has the bits of ``coefficient_vector(op, f_i)``: ``reduceat`` along the
    rows sums each functional's nodes in the same order."""
    on_nodes *= op.functionals.weights
    return np.add.reduceat(on_nodes, op.functionals.starts, axis=1)


def _images(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``Tf`` on the grid for each row of ``coeffs``. Row ``i`` has the bits
    of ``coeffs[i] @ values``: numpy runs the stacked product as one
    matrix-vector product per row (one ``coeffs @ values`` matrix product
    would not give the same bits)."""
    return (coeffs[:, None, :] @ values)[:, 0]


# Bounds on computed images. For a coefficient row ``c``, every computed
# entry of ``c @ values`` lies within ``gamma_n sum_k |c_k v_kj|`` plus
# ``n 2**-1075`` of the exact sum, in any summation order, with or without
# FMA (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
# section 3.1; ``gamma_m = m u / (1 - m u)``, ``u = 2**-53``). With
# ``S_j = sum_k |v_kj|`` that gives ``|Tf(x_j)| <= max|c| S_j (1 + gamma)``
# and, for a nonnegative basis, ``Tf(x_j) >= min(c) S_j - max|c| S_j gamma``,
# each up to the underflow slack. The bounds take ``gamma = gamma_m`` and
# the slack ``m 2**-1074`` with ``m = 2n + 8``, which covers the product's
# own ``n`` terms, the ``n + 1`` of the computed column sums ``S_j`` and
# the few roundings that form each bound.

def _bound_terms(values: np.ndarray) -> tuple[np.ndarray, bool, float, float]:
    """``(S, nonnegative, gamma, slack)``: the column sums ``sum_k |v_kj|``,
    whether every basis value is >= 0, and the error factor and slack."""
    nonnegative = bool(values.min() >= 0.0)
    sums = (values if nonnegative else np.abs(values)).sum(axis=0)
    m = 2 * values.shape[0] + 8
    u = np.finfo(float).eps / 2
    return sums, nonnegative, m * u / (1.0 - m * u), m * 2.0 ** -1074


def _image_upper_bounds(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row of ``coeffs``, at least ``max |_images(coeffs, values)|``."""
    sums, _, gamma, slack = _bound_terms(values)
    return np.abs(coeffs).max(axis=1) * (sums.max() * (1.0 + gamma)) + slack


def _image_lower_bounds(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row of ``coeffs``, at most ``min _images(coeffs, values)``: from
    ``min(c)`` over a nonnegative basis, else from ``-max|c|``."""
    sums, nonnegative, gamma, slack = _bound_terms(values)
    if not nonnegative:
        return -_image_upper_bounds(coeffs, values)
    s_max = sums.max()
    c_min = coeffs.min(axis=1)
    return (c_min * np.where(c_min >= 0.0, sums.min(), s_max)
            - (np.abs(coeffs).max(axis=1) * (s_max * gamma) + slack))


def verify_positivity(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                      trials: int = 100, tol: float = WITNESS_RESIDUAL_TOL,
                      seed: int = 42) -> CheckResult:
    """Minimum of ``Tf`` over the grid across seeded nonnegative ``f``; the
    first trial to reach the minimum names it.

    Pass 1 forms every trial's coefficients and a lower bound of its image
    (see :func:`_image_lower_bounds`); pass 2 computes the images in ascending
    order of that bound and stops at the first bound above the worst found,
    which no later trial can reach or tie."""
    grid = nonempty_grid(grid, values, "positivity")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    draw = draw_test_functions(np.random.default_rng(seed), trials, nonnegative=True)
    coeffs = np.empty((trials, op.n))
    nodes = op.functionals.nodes
    for rows, on_nodes in draw.blocks(TRIAL_BLOCK_VALUES // nodes.size, nodes):
        coeffs[rows] = _coefficients(op, on_nodes)
    lower = _image_lower_bounds(coeffs, values)
    # The worst is the least (value, trial) pair, so a tie goes to the
    # first trial: a trial whose bound equals the worst value is computed.
    worst = (np.inf, trials)
    worst_x = None
    order = np.argsort(lower, kind="stable")
    size = max(1, TRIAL_BLOCK_VALUES // grid.size)
    for start in range(0, trials, size):
        rows = order[start:start + size]
        rows = np.sort(rows[lower[rows] <= worst[0]])
        if rows.size == 0:
            break
        images = _images(coeffs[rows], values)
        cols = np.argmin(images, axis=1)
        mins = images[np.arange(rows.size), cols]
        k = int(np.argmin(mins))
        if (mins[k], rows[k]) < worst:
            worst = (float(mins[k]), int(rows[k]))
            worst_x = float(grid[cols[k]])
    worst_val, worst_trial = worst
    worst_name = draw.name(worst_trial) if worst_trial < trials else ""
    return CheckResult(
        name="positivity",
        passed=bool(worst_val >= -tol),
        value=worst_val,
        threshold=tol,
        worst_x=worst_x,
        detail=f"worst over {trials} nonnegative samples, at f = {worst_name}",
    )


def estimate_operator_norm(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                           trials: int = 200, seed: int = 42) -> float:
    """Max of ``||Tf||_inf / ||f||_inf`` over the constant one plus seeded
    random test functions (sup norms on the grid); a function with
    ``||f||_inf < 1e-12`` is skipped. The constant attains the exact norm 1,
    so the estimate is a tight lower bound of it.

    Pass 1 evaluates each block of drawn functions once, on the joined
    nodes followed by the grid, and keeps the coefficients, ``||f||`` and an
    upper bound of the ratio (see :func:`_image_upper_bounds`); pass 2 computes
    the images in descending order of that bound and stops at the first
    bound at or below the best ratio found."""
    grid = nonempty_grid(grid, values, "norm-estimate")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    require_in_domain(grid, "norm-estimate check grid")
    draw = draw_test_functions(np.random.default_rng(seed), trials)
    nodes = op.functionals.nodes.size
    # The constant one, ||1||_inf = 1 on the grid.
    best = float(np.abs(_images(_coefficients(op, np.ones((1, nodes))), values)).max())
    points = np.concatenate((op.functionals.nodes, grid))
    coeffs = np.empty((trials, op.n))
    denom = np.empty(trials)
    for rows, block_values in draw.blocks(TRIAL_BLOCK_VALUES // points.size, points):
        on_grid = block_values[:, nodes:]
        denom[rows] = np.abs(on_grid, out=on_grid).max(axis=1)
        coeffs[rows] = _coefficients(op, block_values[:, :nodes])
    # Rounding is monotone: a computed max |Tf| at most the bound gives a
    # computed ratio at most the bound over the same ||f||.
    upper = np.full(trials, -np.inf)
    np.divide(_image_upper_bounds(coeffs, values), denom, out=upper, where=denom >= 1e-12)
    order = np.argsort(-upper, kind="stable")
    size = max(1, TRIAL_BLOCK_VALUES // grid.size)
    for start in range(0, trials, size):
        rows = order[start:start + size]
        rows = rows[upper[rows] > best]
        if rows.size == 0:
            break
        images = _images(coeffs[rows], values)
        np.abs(images, out=images)
        best = float(np.max(images.max(axis=1) / denom[rows], initial=best))
    return best


def verify_norm_bound(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                      trials: int = 200, seed: int = 42,
                      tol: float = WITNESS_RESIDUAL_TOL) -> CheckResult:
    """Norm estimate on the grid packaged as a check: passes iff the estimate
    lies in ``[1 - 1e-12, 1 + tol]`` (the unit ball bound, attained at one)."""
    estimate = estimate_operator_norm(op, grid, values, trials=trials, seed=seed)
    passed = 1.0 - 1e-12 <= estimate <= 1.0 + tol
    return CheckResult(
        name="norm_estimate",
        passed=bool(passed),
        value=estimate,
        threshold=tol,
        detail=f"max ||Tf||/||f|| over constant one and {trials} samples",
    )


# --------------------------------------------------------------------------
# Kernel witness
# --------------------------------------------------------------------------

def _point_annihilation_nodes(op: OperatorSpec) -> np.ndarray:
    nodes = np.sort(op.functionals.nodes)
    keep = np.concatenate(([True], np.diff(nodes) > 1e-12))
    return nodes[keep]


def _equally_spaced(values: np.ndarray) -> bool:
    if values.size < 2 or abs(values[0]) > 1e-12 or abs(values[-1] - 1.0) > 1e-12:
        return False
    gaps = np.diff(values)
    return bool(np.max(np.abs(gaps - gaps[0])) <= 1e-9)


def _sine_product(nodes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``prod_k sin(pi (x - nodes[k]))`` at each ``x`` of ``xs``. Each block
    of at most ``WITNESS_BLOCK_VALUES`` factors (at least one point) is one
    2-D ``np.sin`` reduced along the node axis by ``np.multiply.reduce``,
    which multiplies the factors in the order of ``nodes``, as a loop over
    the nodes would."""
    out = np.empty_like(xs)
    step = max(1, WITNESS_BLOCK_VALUES // nodes.size)
    for lo in range(0, xs.size, step):
        factors = xs[None, lo:lo + step] - nodes[:, None]
        factors *= np.pi
        np.sin(factors, out=factors)
        np.multiply.reduce(factors, axis=0, out=out[lo:lo + step])
    return out


def _node_vanishing_product(nodes: np.ndarray, points: np.ndarray,
                            grid_size: int) -> np.ndarray:
    """:func:`_sine_product` of the kept ``nodes`` at ``points``, the grid's
    ``grid_size`` points followed by the operator's joined nodes, with the
    bits of evaluating it at every point. A joined node that is a kept node
    has the exact factor ``sin(pi * +0) = +0``, so its product is a signed
    zero; when every kept node lies in [0, 1], each other factor there has
    the sign of ``x - node``, and the product is ``(-1)**(kept nodes above
    x) * 0.0``, written without a sine. Only the other points are
    evaluated."""
    joined = points[grid_size:]
    # Kept nodes at or below each joined node: at least one, the least
    # joined node being the first kept node.
    below = np.searchsorted(nodes, joined, side="right")
    gap = joined - nodes[below - 1]
    at_kept = (gap == 0.0) & ~np.signbit(gap) & (nodes[0] >= 0.0) & (nodes[-1] <= 1.0)
    evaluated = np.concatenate((np.ones(grid_size, dtype=bool), ~at_kept))
    out = np.empty_like(points)
    out[evaluated] = _sine_product(nodes, points[evaluated])
    out[grid_size:][at_kept] = np.where((nodes.size - below[at_kept]) % 2, -0.0, 0.0)
    return out


def _cellwise_sine(starts: np.ndarray, widths: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """One full sine period ``sin(2 pi (x - a) / width)`` on each cell ``[a,
    a + width]`` (``starts`` ascending) and zero outside every cell. A point
    in two cells, where cells meet or overlap by up to 1e-12, takes the
    value of the later cell. One ``searchsorted`` finds the last cell that
    starts at or before each point; a cell narrower than the overlap can
    end before a point that an earlier cell still holds, and such a point
    steps back to that cell. ``reach[k]`` is the furthest end of the cells
    before cell ``k``; it is read at every ``cell``, the -1 of a point
    before all cells included, so it has one entry more than there are
    cells."""
    ends = starts + widths
    reach = np.maximum.accumulate(np.concatenate(([-np.inf], ends)))
    cell = np.searchsorted(starts, xs, side="right") - 1
    back = (cell > 0) & (xs > ends[cell]) & (xs <= reach[cell])
    while back.any():
        cell[back] -= 1
        back &= (cell > 0) & (xs > ends[cell]) & (xs <= reach[cell])
    inside = (cell >= 0) & (xs <= ends[cell])
    out = np.zeros_like(xs)
    held = cell[inside]
    out[inside] = np.sin(2.0 * np.pi * (xs[inside] - starts[held]) / widths[held])
    return out


def _candidate_witness(op: OperatorSpec, grid: np.ndarray) -> tuple[
        str, np.ndarray, np.ndarray]:
    """``(name, on_grid, on_nodes)``: the name of a nonzero function ``w``
    annihilated by every functional, so ``Tw = 0``, and its values on the
    grid and on the operator's joined nodes, from one evaluation on both.

    Construction is analytic per functional kind. Point-type functionals
    (Dirac, finite quadrature) are killed by a sine vanishing at all node
    points when those are equally spaced across [0, 1], and otherwise by
    a normalized product of node-vanishing sine factors, which takes no
    sine at a joined node that is a kept product node: it is a signed zero
    there (:func:`_node_vanishing_product`). Interval averages
    over non-overlapping cells are killed by one full sine period per cell.
    Mixed point/average families have no such closed form and raise
    :class:`NotConstructibleError`.
    """
    # The sine witnesses print as "sin(...pi(x-0)/1)": reports carry that text.
    fs = op.functionals
    average = fs.kinds == AVERAGE
    points = np.concatenate((grid, fs.nodes))

    if not average.any():
        nodes = _point_annihilation_nodes(op)
        if _equally_spaced(nodes):
            cells = nodes.size - 1
            name = f"sin({cells}pi(x-0)/1)"
            w = np.sin(cells * np.pi * points)
        else:
            w = _node_vanishing_product(nodes, points, grid.size)
            peak = float(np.max(np.abs(w[:grid.size])))
            if peak <= 0.0:
                raise NotConstructibleError(
                    f"{op.name}: node-vanishing product is identically zero "
                    f"on the verification grid")
            name = f"node-vanishing product ({nodes.size} nodes)"
            w /= peak
    elif average.all():
        order = np.argsort(fs.a, kind="stable")
        starts = fs.a[order]
        stops = fs.b[order]
        overlaps = np.flatnonzero(stops[:-1] > starts[1:] + 1e-12)
        if overlaps.size:
            k = overlaps[0]
            raise NotConstructibleError(
                f"{op.name}: interval-average supports overlap "
                f"([{starts[k]:g}, {stops[k]:g}] and [{starts[k + 1]:g}, ...]); "
                f"no cellwise witness")
        widths = stops - starts
        contiguous = (abs(starts[0]) <= 1e-12 and abs(stops[-1] - 1.0) <= 1e-12
                      and np.all(np.abs(starts[1:] - stops[:-1]) <= 1e-12))
        if contiguous and np.max(np.abs(widths - widths[0])) <= 1e-9:
            m = starts.size
            name = f"sin({2 * m}pi(x-0)/1)"
            w = np.sin(2.0 * m * np.pi * points)
        else:
            name = f"cellwise sine ({starts.size} cells)"
            w = _cellwise_sine(starts, widths, points)
    else:
        kinds = sorted({KIND_NAMES[kind] for kind in fs.kinds.tolist()})
        raise NotConstructibleError(
            f"{op.name}: no analytic kernel witness for mixed functional "
            f"kinds {kinds}")

    return name, w[:grid.size], w[grid.size:]


def _verified(op: OperatorSpec, values: np.ndarray, on_grid: np.ndarray,
              on_nodes: np.ndarray) -> tuple[float, float]:
    """``(||w||, ||Tw||)`` on the grid, or :class:`NotConstructibleError`
    when ``w`` is too small (``||w||_inf < 0.5``) or not annihilated
    (``||Tw||_inf > 1e-10``); ``values`` is the basis on the grid and
    ``on_grid`` and ``on_nodes`` the witness on the grid and on the joined
    nodes."""
    witness_norm = float(np.max(np.abs(on_grid)))
    coeffs = np.add.reduceat(op.functionals.weights * on_nodes, op.functionals.starts)
    residual = float(np.max(np.abs(coeffs @ values)))
    if witness_norm < WITNESS_MIN_NORM or residual > WITNESS_RESIDUAL_TOL:
        raise NotConstructibleError(
            f"{op.name}: witness verification failed "
            f"(||w|| = {witness_norm:.3e}, ||Tw|| = {residual:.3e})")
    return witness_norm, residual


def kernel_witness_report(op: OperatorSpec, grid: np.ndarray,
                          values: np.ndarray) -> CheckResult:
    """Kernel-witness residual on the grid as a check; a non-constructible
    witness is reported as a failed check rather than silently skipped."""
    grid = nonempty_grid(grid, values, "kernel-witness")
    try:
        name, on_grid, on_nodes = _candidate_witness(op, grid)
        witness_norm, residual = _verified(op, values, on_grid, on_nodes)
    except NotConstructibleError as exc:
        return CheckResult(name="kernel_residual", passed=False, value=None,
                           threshold=WITNESS_RESIDUAL_TOL, detail=str(exc))
    return CheckResult(
        name="kernel_residual",
        passed=bool(residual <= WITNESS_RESIDUAL_TOL),
        value=float(residual),
        threshold=WITNESS_RESIDUAL_TOL,
        detail=f"witness {name}, ||w||_inf = {witness_norm:.6g}",
    )
