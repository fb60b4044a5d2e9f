"""Positive finite-rank operators ``Tf = sum_k a_k(f) e_k`` and their checks.

An :class:`OperatorSpec` pairs a partition-of-unity basis with one
normalized positive functional per basis function. The catalog factories
cover point-evaluation operators on Bernstein and hat bases, the
Kantorovich operator (cell averages against the Bernstein basis), and the
Schoenberg variational operator (point evaluation at Greville abscissae
against a clamped B-spline basis).

The verification helpers measure, on a grid the caller passes in and with
seeded random test functions: constant reproduction, positivity, the unit
operator norm and an explicit nonzero kernel witness. Each takes the grid
and ``values``, the basis evaluated on it once by the caller (shape
``(n, len(grid))``); none evaluates the basis itself. The positivity and
norm checks draw all their test functions first, as parameter arrays
(:func:`~pouspec.functions.draw_test_functions`), then work through them
in kind-pure blocks of at most ``TRIAL_BLOCK_VALUES`` values: the block's
values on the joined nodes (the norm check adds the grid) in one pass (one
Horner loop for polynomials, one ``np.sin`` or ``np.cos`` for waves, one
``np.interp`` per piecewise-linear trial), the coefficients of the whole
block by one ``np.add.reduceat`` along its rows, and the images on the
grid by one stacked product, one matrix-vector product per row. Each
result has the bits of ``coefficient_vector(op, f) @ values`` taken one
function at a time, and only the trial that positivity reports is built as
a :class:`~pouspec.functions.Function`, for its name. The adjoint pairing
identity is checked at seeded random functionals instead.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .bases import (BasisSystem, DEFAULT_GRID_POINTS, check_nonnegativity,
                    check_partition_of_unity, make_bernstein_basis,
                    make_bspline_basis, make_hat_basis)
from .checks import CheckResult, nonempty_grid
from .errors import ConfigError, NotConstructibleError
from .functions import (BasisCombination, ClosedForm, Function, ONE,
                        draw_test_functions, grid, outside_domain, random_function,
                        require_in_domain)
from .functionals import (DiracFunctional, Functional, IntervalAverageFunctional,
                          WeightedQuadratureFunctional,
                          check_functional_normalization,
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


@dataclass(frozen=True)
class OperatorSpec:
    """Basis plus functionals of equal count; immutable once built.

    With ``validate=True`` (the default) construction verifies the partition
    of unity and basis nonnegativity on one evaluation of the basis on the
    default grid, that every functional node lies in [0, 1], and the
    normalization of every functional (nonnegative weights of unit mass);
    pass ``validate=False`` to build deliberately broken operators for
    failure-path tests.

    ``nodes``, ``weights`` and ``starts`` are the functionals' rules joined
    once (read-only; functional ``k`` starts at ``starts[k]``). They take no
    part in eq, hash or repr.
    """

    basis: BasisSystem
    functionals: tuple[Functional, ...]
    name: str = "operator"
    validate: InitVar[bool] = True
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, validate: bool):
        object.__setattr__(self, "functionals", tuple(self.functionals))
        if len(self.functionals) != self.basis.n:
            raise ConfigError(
                f"{self.name}: basis has {self.basis.n} functions but "
                f"{len(self.functionals)} functionals were given")
        joined = {
            "nodes": np.concatenate([a.nodes for a in self.functionals]),
            "weights": np.concatenate([a.weights for a in self.functionals]),
            "starts": np.cumsum([0] + [a.nodes.size for a in self.functionals[:-1]]),
        }
        for attr, array in joined.items():
            array.flags.writeable = False
            object.__setattr__(self, attr, array)
        if validate:
            xs = grid(DEFAULT_GRID_POINTS)
            values = self.basis.values(xs)
            pou = check_partition_of_unity(values, xs)
            if not pou.passed:
                raise ConfigError(
                    f"{self.name}: basis violates the partition of unity "
                    f"(deviation {pou.value:.3e} at x={pou.worst_x:.6g})")
            nn = check_nonnegativity(values, xs)
            if not nn.passed:
                raise ConfigError(
                    f"{self.name}: basis takes negative values "
                    f"({nn.value:.3e} at x={nn.worst_x:.6g})")
            # Functional k is checked for its nodes, then for its mass, in
            # order of k: the first functional with a node outside [0, 1]
            # raises after the normalization of those before it.
            outside = _first_functional_outside_domain(self)
            for k, functional in enumerate(self.functionals[:outside]):
                norm = check_functional_normalization(functional)
                if not norm.passed:
                    raise ConfigError(f"{self.name}: functional {k} ({functional.name}) "
                                      f"is not a nonnegative rule of unit mass "
                                      f"({norm.detail})")
            if outside < self.n:
                _require_nodes_in_domain(self)

    @property
    def n(self) -> int:
        return self.basis.n


def _first_functional_outside_domain(op: OperatorSpec) -> int:
    """Index of the first functional with a node outside [0, 1], or ``op.n``
    when there is none, from one domain test over the joined nodes."""
    outside = outside_domain(op.nodes)
    if not outside.any():
        return op.n
    return int(np.searchsorted(op.starts, np.argmax(outside), side="right")) - 1


def _require_nodes_in_domain(op: OperatorSpec, context: str = "") -> None:
    """Raise :class:`DomainError` when a node of ``op`` lies outside [0, 1],
    naming ``context``, the operator, the first such functional ``k`` and
    its first node outside, as in ``"positivity check, bernstein(n=3):
    functional 2 (dirac(1.5)): x=1.5 outside domain [0.0, 1.0]"``."""
    k = _first_functional_outside_domain(op)
    if k < op.n:
        functional = op.functionals[k]
        require_in_domain(functional.nodes,
                          f"{context}{op.name}: functional {k} ({functional.name})")


# --------------------------------------------------------------------------
# Catalog operators
# --------------------------------------------------------------------------

def bernstein_operator(n: int) -> OperatorSpec:
    """Point-evaluation operator on the Bernstein basis: samples at the
    equally spaced nodes ``k/n``."""
    basis = make_bernstein_basis(n)
    funcs = tuple(DiracFunctional(k / n) for k in range(n + 1))
    return OperatorSpec(basis, funcs, name=f"bernstein(n={n})")


def kantorovich_operator(n: int) -> OperatorSpec:
    """Cell averages over the ``n + 1`` equal subintervals paired with the
    Bernstein basis of degree ``n``."""
    basis = make_bernstein_basis(n)
    return OperatorSpec(basis, make_kantorovich_functionals(n),
                        name=f"kantorovich(n={n})")


def greville_abscissae(knots: Sequence[float], degree: int) -> np.ndarray:
    """Knot averages ``(t_{k+1} + ... + t_{k+degree}) / degree`` for each
    basis function of a clamped knot vector."""
    t = np.asarray(knots, dtype=float)
    if degree < 1:
        raise ConfigError(f"Greville abscissae need degree >= 1, got {degree}")
    n_basis = t.size - degree - 1
    return np.array([t[k + 1:k + degree + 1].mean() for k in range(n_basis)])


def schoenberg_operator(knots: Sequence[float], degree: int) -> OperatorSpec:
    """Point evaluation at the Greville abscissae against the clamped
    B-spline basis for ``knots``."""
    basis = make_bspline_basis(knots, degree)
    nodes = greville_abscissae(knots, degree)
    funcs = tuple(DiracFunctional(x) for x in nodes)
    return OperatorSpec(basis, funcs, name=f"schoenberg(deg {degree}, n={basis.n})")


def hat_dirac_operator(nodes: Sequence[float]) -> OperatorSpec:
    """Nodal interpolation: hat basis over a partition with point evaluation
    at the same nodes. Its collocation matrix is the identity."""
    basis = make_hat_basis(nodes)
    funcs = tuple(DiracFunctional(x) for x in np.asarray(nodes, dtype=float))
    return OperatorSpec(basis, funcs, name=f"hat-dirac({basis.n})")


# --------------------------------------------------------------------------
# Application
# --------------------------------------------------------------------------

def coefficient_vector(op: OperatorSpec, f: Function) -> np.ndarray:
    """The vector ``(a_k(f))_k``: ``f`` is evaluated once on the operator's
    joined nodes, then weighted and summed per functional."""
    return np.add.reduceat(op.weights * f.values(op.nodes), op.starts)


def apply_operator(op: OperatorSpec, f: Function) -> BasisCombination:
    """``Tf`` as a basis combination; the coefficient vector rides along on
    the result for reuse."""
    coeffs = coefficient_vector(op, f)
    return BasisCombination(op.basis, coeffs, name=f"T[{op.name}]({f.name})")


def apply_adjoint(op: OperatorSpec, dual: Functional, f: Function) -> float:
    """Adjoint pairing ``sum_k dual(e_k) a_k(f)``; equals ``dual(Tf)``."""
    dual_on_basis = op.basis.values(dual.nodes) @ dual.weights
    return float(dual_on_basis @ coefficient_vector(op, f))


def operator_power_apply(op: OperatorSpec, f: Function, m: int) -> BasisCombination:
    """``T^m f`` through the coefficient recursion ``a <- M a`` applied
    ``m - 1`` times, followed by a single basis combination."""
    if m < 1:
        raise ConfigError(f"power must be >= 1, got {m}")
    from .spectra import build_collocation_matrix
    coeffs = coefficient_vector(op, f)
    if m > 1:
        matrix = build_collocation_matrix(op).entries
        for _ in range(m - 1):
            coeffs = matrix @ coeffs
    return BasisCombination(op.basis, coeffs, name=f"T^{m}[{op.name}]({f.name})")


# --------------------------------------------------------------------------
# Lemma verification
# --------------------------------------------------------------------------

def verify_constant_reproduction(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                                 tol: float = WITNESS_RESIDUAL_TOL) -> CheckResult:
    """Max deviation of ``T1`` from one on the grid."""
    grid = nonempty_grid(grid, values, "constant-reproduction")
    _require_nodes_in_domain(op, "constant-reproduction check, ")
    return CheckResult.deviation_from_one(
        "constant_reproduction", coefficient_vector(op, ONE) @ values, grid, tol)


def _block_images(op: OperatorSpec, on_nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``Tf`` on the grid for each row of ``on_nodes``, the functions' values
    on ``op.nodes`` (overwritten). Row ``i`` has the bits of
    ``coefficient_vector(op, f_i) @ values``: ``reduceat`` along the rows sums
    each functional's nodes in the same order, and numpy runs the stacked
    product as one matrix-vector product per row. (One ``coeffs @ values``
    matrix product would not give the same bits.)"""
    on_nodes *= op.weights
    coeffs = np.add.reduceat(on_nodes, op.starts, axis=1)
    return (coeffs[:, None, :] @ values)[:, 0]


def verify_positivity(op: OperatorSpec, grid: np.ndarray, values: np.ndarray,
                      trials: int = 100, tol: float = WITNESS_RESIDUAL_TOL,
                      seed: int = 42) -> CheckResult:
    """Minimum of ``Tf`` over the grid across seeded nonnegative ``f``; the
    first trial to reach the minimum names it."""
    grid = nonempty_grid(grid, values, "positivity")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    _require_nodes_in_domain(op, "positivity check, ")
    draw = draw_test_functions(np.random.default_rng(seed), trials, nonnegative=True)
    # Blocks are kind-pure, not in draw order: the worst is the least
    # (value, trial) pair, so a tie goes to the first trial.
    worst = (np.inf, trials)
    worst_x = None
    for rows in draw.kind_blocks(TRIAL_BLOCK_VALUES // max(op.nodes.size, grid.size)):
        images = _block_images(op, draw.values(rows, op.nodes), values)
        cols = np.argmin(images, axis=1)
        mins = images[np.arange(rows.size), cols]
        k = int(np.argmin(mins))
        if (mins[k], rows[k]) < worst:
            worst = (float(mins[k]), int(rows[k]))
            worst_x = float(grid[cols[k]])
    worst_val, worst_trial = worst
    worst_name = draw.function(worst_trial).name if worst_trial < trials else ""
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
    so the estimate is a tight lower bound of it. Each block of drawn
    functions is evaluated once, on the joined nodes followed by the grid."""
    grid = nonempty_grid(grid, values, "norm-estimate")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    require_in_domain(grid, "norm-estimate check grid")
    _require_nodes_in_domain(op, "norm-estimate check, ")
    draw = draw_test_functions(np.random.default_rng(seed), trials)
    nodes = op.nodes.size
    # The constant one, ||1||_inf = 1 on the grid.
    best = float(np.abs(_block_images(op, np.ones((1, nodes)), values)).max())
    points = np.concatenate((op.nodes, grid))
    for rows in draw.kind_blocks(TRIAL_BLOCK_VALUES // points.size):
        block_values = draw.values(rows, points)
        on_grid = block_values[:, nodes:]
        denom = np.abs(on_grid, out=on_grid).max(axis=1)
        keep = denom >= 1e-12
        images = _block_images(op, block_values[keep, :nodes], values)
        np.abs(images, out=images)
        ratios = images.max(axis=1) / denom[keep]
        best = float(np.max(ratios, initial=best))
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


def verify_adjoint_identity(op: OperatorSpec, pairs: int = 50,
                            tol: float = WITNESS_RESIDUAL_TOL,
                            seed: int = 42) -> CheckResult:
    """Residual ``|T* dual (f) - dual(Tf)|`` over seeded (dual, f) pairs,
    cycling through the three functional kinds for the dual."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(pairs):
        f = random_function(rng)
        kind = i % 3
        if kind == 0:
            dual: Functional = DiracFunctional(rng.uniform())
        elif kind == 1:
            a, b = np.sort(rng.uniform(size=2))
            if b - a < 1e-3:
                b = min(1.0, a + 1e-3)
                a = b - 1e-3
            dual = IntervalAverageFunctional(a, b)
        else:
            nodes = rng.uniform(size=4)
            weights = rng.dirichlet(np.ones(4))
            dual = WeightedQuadratureFunctional(nodes, weights)
        lhs = apply_adjoint(op, dual, f)
        rhs = dual(apply_operator(op, f))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        name="adjoint_identity",
        passed=bool(worst <= tol),
        value=float(worst),
        threshold=tol,
        detail=f"max residual over {pairs} (dual, f) pairs",
    )


# --------------------------------------------------------------------------
# Kernel witness
# --------------------------------------------------------------------------

def _point_annihilation_nodes(op: OperatorSpec) -> np.ndarray:
    nodes = np.sort(op.nodes)
    keep = np.concatenate(([True], np.diff(nodes) > 1e-12))
    return nodes[keep]


def _equally_spaced(values: np.ndarray) -> bool:
    if values.size < 2 or abs(values[0]) > 1e-12 or abs(values[-1] - 1.0) > 1e-12:
        return False
    gaps = np.diff(values)
    return bool(np.max(np.abs(gaps - gaps[0])) <= 1e-9)


def kernel_witness(op: OperatorSpec, grid: np.ndarray) -> Function:
    """A nonzero function annihilated by every functional, so ``Tw = 0``.

    Construction is analytic per functional kind. Point-type functionals
    (Dirac, finite quadrature) are killed by a sine vanishing at all node
    points when those are equally spaced across [0, 1], and otherwise by
    a normalized product of node-vanishing sine factors. Interval averages
    over non-overlapping cells are killed by one full sine period per cell.
    Mixed point/average families have no such closed form and raise
    :class:`NotConstructibleError`, as does a constructed witness that fails
    its own verification on the grid (``||w||_inf >= 0.5`` and
    ``||Tw||_inf <= 1e-10``).
    """
    values = op.basis.values(grid)
    grid = nonempty_grid(grid, values, "kernel-witness")
    return _verified(op, values, *_candidate_witness(op, grid))[0]


def _candidate_witness(op: OperatorSpec, grid: np.ndarray) -> tuple[Function, np.ndarray]:
    """A witness ``w`` and its values on the grid."""
    # The sine witnesses print as "sin(...pi(x-0)/1)": reports carry that text.
    point_kinds = (DiracFunctional, WeightedQuadratureFunctional)
    all_point = all(isinstance(f, point_kinds) for f in op.functionals)
    all_average = all(isinstance(f, IntervalAverageFunctional) for f in op.functionals)

    if all_point:
        nodes = _point_annihilation_nodes(op)
        if _equally_spaced(nodes):
            cells = nodes.size - 1
            w: Function = ClosedForm(f"sin({cells}pi(x-0)/1)",
                                     lambda xs: np.sin(cells * np.pi * xs))
        else:
            def product_of_sines(xs: np.ndarray, nodes=nodes) -> np.ndarray:
                out = np.ones_like(xs)
                for x0 in nodes:
                    out *= np.sin(np.pi * (xs - x0))
                return out

            raw_on_grid = ClosedForm("node-vanishing product", product_of_sines).values(grid)
            peak = float(np.max(np.abs(raw_on_grid)))
            if peak <= 0.0:
                raise NotConstructibleError(
                    f"{op.name}: node-vanishing product is identically zero "
                    f"on the verification grid")
            w = ClosedForm(f"node-vanishing product ({nodes.size} nodes)",
                           lambda xs: product_of_sines(xs) / peak)
            return w, raw_on_grid / peak
    elif all_average:
        cells = sorted(((f.a, f.b) for f in op.functionals), key=lambda c: c[0])
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
            w = ClosedForm(f"sin({2 * m}pi(x-0)/1)",
                           lambda xs: np.sin(2.0 * m * np.pi * xs))
        else:
            def cellwise_sine(xs: np.ndarray, starts=starts, widths=widths) -> np.ndarray:
                out = np.zeros_like(xs)
                for a, cw in zip(starts, widths):
                    inside = (xs >= a) & (xs <= a + cw)
                    out[inside] = np.sin(2.0 * np.pi * (xs[inside] - a) / cw)
                return out

            w = ClosedForm(f"cellwise sine ({len(cells)} cells)", cellwise_sine)
    else:
        kinds = sorted({type(f).__name__ for f in op.functionals})
        raise NotConstructibleError(
            f"{op.name}: no analytic kernel witness for mixed functional "
            f"kinds {kinds}")

    return w, w.values(grid)


def _verified(op: OperatorSpec, values: np.ndarray, w: Function,
              w_on_grid: np.ndarray) -> tuple[Function, float, float]:
    """``(w, ||w||, ||Tw||)`` on the grid, or :class:`NotConstructibleError`
    when ``w`` is too small or not annihilated; ``values`` is the basis and
    ``w_on_grid`` the witness evaluated on the grid."""
    witness_norm = float(np.max(np.abs(w_on_grid)))
    residual = float(np.max(np.abs(coefficient_vector(op, w) @ values)))
    if witness_norm < WITNESS_MIN_NORM or residual > WITNESS_RESIDUAL_TOL:
        raise NotConstructibleError(
            f"{op.name}: witness verification failed "
            f"(||w|| = {witness_norm:.3e}, ||Tw|| = {residual:.3e})")
    return w, witness_norm, residual


def kernel_witness_report(op: OperatorSpec, grid: np.ndarray,
                          values: np.ndarray) -> CheckResult:
    """Kernel-witness residual on the grid as a check; a non-constructible
    witness is reported as a failed check rather than silently skipped."""
    grid = nonempty_grid(grid, values, "kernel-witness")
    _require_nodes_in_domain(op, "kernel-witness check, ")
    try:
        w, witness_norm, residual = _verified(op, values, *_candidate_witness(op, grid))
    except NotConstructibleError as exc:
        return CheckResult(name="kernel_residual", passed=False, value=None,
                           threshold=WITNESS_RESIDUAL_TOL, detail=str(exc))
    return CheckResult(
        name="kernel_residual",
        passed=bool(residual <= WITNESS_RESIDUAL_TOL),
        value=float(residual),
        threshold=WITNESS_RESIDUAL_TOL,
        detail=f"witness {w.name}, ||w||_inf = {witness_norm:.6g}",
    )
