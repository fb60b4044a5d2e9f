"""Real-valued functions on a compact interval.

Everything downstream (functionals, operators, spectra) consumes functions
through the small :class:`Function` interface: vectorized evaluation on a
grid plus scalar calls. Three concrete kinds exist: closed forms from a
named catalog, sampled data with piecewise-linear interpolation, and linear
combinations of a basis system. All instances are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError

#: Slack allowed when testing domain membership, absorbs grid round-off.
DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]`` with ``lo < hi``."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ConfigError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def require(self, xs: np.ndarray, who: str) -> None:
        """Raise :class:`DomainError` naming ``who`` and the first point of
        ``xs`` outside the interval (NaN counts as outside)."""
        inside = (xs >= self.lo - DOMAIN_SLACK) & (xs <= self.hi + DOMAIN_SLACK)
        if not inside.all():
            bad = float(xs[~inside][0])
            raise DomainError(f"{who}: x={bad!r} outside domain [{self.lo}, {self.hi}]")

    def grid(self, points: int) -> np.ndarray:
        """Uniform grid with ``points`` samples including both endpoints."""
        if points < 2:
            raise ConfigError(f"grid needs at least 2 points, got {points}")
        return np.linspace(self.lo, self.hi, points)


UNIT_INTERVAL = Interval(0.0, 1.0)


class Function:
    """Evaluable real-valued function on a closed interval."""

    def __init__(self, name: str, domain: Interval = UNIT_INTERVAL):
        self.name = name
        self.domain = domain

    def _values(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def values(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate on an array of points, all of which must lie in the domain."""
        arr = np.atleast_1d(np.asarray(xs, dtype=float))
        if arr.size == 0:
            return np.empty(0)
        self.domain.require(arr, self.name)
        return self._values(arr)

    def __call__(self, x: float) -> float:
        return float(self.values(np.array([x]))[0])

    def sup_norm(self, grid: np.ndarray) -> float:
        """Sup norm approximated as the max of ``|f|`` over ``grid``."""
        return float(np.max(np.abs(self.values(grid))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ClosedForm(Function):
    """Catalog closed form backed by a vectorized callable."""

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray],
                 domain: Interval = UNIT_INTERVAL):
        super().__init__(name, domain)
        self._fn = fn

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(xs), dtype=float)


class SampledFunction(Function):
    """Sampled data, evaluated by piecewise-linear interpolation."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float],
                 name: str = "sampled", domain: Interval | None = None):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise ConfigError("sampled function needs at least 2 grid points")
        if ys.shape != xs.shape:
            raise ConfigError("sampled function: grid and values differ in length")
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("sampled function grid must be strictly increasing")
        if domain is None:
            domain = Interval(float(xs[0]), float(xs[-1]))
        super().__init__(name, domain)
        self.xs = xs
        self.ys = ys
        self.xs.flags.writeable = False
        self.ys.flags.writeable = False

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return np.interp(xs, self.xs, self.ys)


class BasisCombination(Function):
    """Linear combination ``sum_k c_k e_k`` of a basis system.

    Operators return their output in this form so that the coefficient
    vector is available for reuse (e.g. by the power iteration).
    """

    def __init__(self, basis, coefficients: Sequence[float], name: str = "combination"):
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.shape != (basis.n,):
            raise ConfigError(
                f"coefficient count {coeffs.size} does not match basis size {basis.n}")
        super().__init__(name, basis.domain)
        self.basis = basis
        self.coefficients = coeffs
        self.coefficients.flags.writeable = False

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return self.coefficients @ self.basis.values(xs)


# --------------------------------------------------------------------------
# Closed-form catalog
# --------------------------------------------------------------------------

def constant(c: float) -> ClosedForm:
    return ClosedForm(f"const({c:g})", lambda xs: np.full_like(xs, float(c)))


ONE = constant(1.0)


def polynomial(coeffs: Sequence[float], name: str | None = None) -> ClosedForm:
    """Polynomial ``c[0] + c[1] x + ... + c[d] x^d`` (Horner evaluation)."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ConfigError("polynomial needs a non-empty coefficient sequence")

    def fn(xs: np.ndarray) -> np.ndarray:
        out = np.full_like(xs, c[-1])
        for a in c[-2::-1]:
            out = out * xs + a
        return out

    return ClosedForm(name or f"poly(deg {c.size - 1})", fn)


def monomial(power: int) -> ClosedForm:
    return ClosedForm(f"x^{power}", lambda xs: xs ** power)


def sine_wave(frequency: float, amplitude: float = 1.0, offset: float = 0.0) -> ClosedForm:
    """``offset + amplitude * sin(2 pi frequency x)``."""
    w = 2.0 * np.pi * frequency
    return ClosedForm(
        f"{offset:g}+{amplitude:g}*sin(2pi*{frequency:g}x)",
        lambda xs: offset + amplitude * np.sin(w * xs),
    )


def cosine_wave(frequency: float, amplitude: float = 1.0, offset: float = 0.0) -> ClosedForm:
    w = 2.0 * np.pi * frequency
    return ClosedForm(
        f"{offset:g}+{amplitude:g}*cos(2pi*{frequency:g}x)",
        lambda xs: offset + amplitude * np.cos(w * xs),
    )


def exponential() -> ClosedForm:
    return ClosedForm("exp(x)", np.exp)


def scaled(f: Function, factor: float, name: str | None = None) -> ClosedForm:
    """Pointwise rescaling ``factor * f``."""
    return ClosedForm(name or f"{factor:g}*{f.name}", lambda xs: factor * f.values(xs),
                      domain=f.domain)


# --------------------------------------------------------------------------
# Random test-function catalog
# --------------------------------------------------------------------------
# The draw is deliberately narrow and fully seeded: polynomials up to degree
# six, single sine/cosine modes up to frequency eight, and piecewise-linear
# functions with at most 16 interior breakpoints.

def random_function(rng: np.random.Generator, nonnegative: bool = False) -> Function:
    """Draw one function from the test catalog.

    With ``nonnegative=True`` every returned function is pointwise >= 0 by
    construction (squared polynomial, raised sine, or nonnegative samples),
    not merely on a sample grid.
    """
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
    xs = np.unique(np.concatenate(([0.0], inner, [1.0])))
    lo_val = 0.0 if nonnegative else -1.0
    ys = rng.uniform(lo_val, 1.0, size=xs.size)
    return SampledFunction(xs, ys, name=f"pwl({xs.size})")
