"""Real-valued functions on [0, 1].

Everything downstream (functionals, operators, spectra) consumes functions
through the small :class:`Function` interface: vectorized evaluation on a
grid plus scalar calls. The domain is [0, 1] throughout the package:
:func:`require_in_domain` checks points against it and :func:`grid` spreads
points over it. The concrete kinds are closed forms (polynomials and
sine/cosine waves among them, each holding its parameters), sampled data
with piecewise-linear interpolation, and linear combinations of a basis
system. :func:`values_block` evaluates many functions at once, the
functions of one kind together, with the same bits as one at a time. All
instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError

#: Slack allowed when testing domain membership, absorbs grid round-off.
DOMAIN_SLACK = 1e-12


def outside_domain(xs: np.ndarray) -> np.ndarray:
    """Mask of the points of ``xs`` outside [0, 1] (NaN counts as outside)."""
    return ~((xs >= -DOMAIN_SLACK) & (xs <= 1.0 + DOMAIN_SLACK))


def require_in_domain(xs: np.ndarray, who: str) -> None:
    """Raise :class:`DomainError` naming ``who`` and the first point of
    ``xs`` outside [0, 1] (NaN counts as outside)."""
    outside = outside_domain(xs)
    if outside.any():
        bad = float(xs[outside][0])
        raise DomainError(f"{who}: x={bad!r} outside domain [0.0, 1.0]")


def grid(points: int) -> np.ndarray:
    """Uniform grid on [0, 1] with ``points`` samples including both ends."""
    if points < 2:
        raise ConfigError(f"grid needs at least 2 points, got {points}")
    return np.linspace(0.0, 1.0, points)


class Function:
    """Evaluable real-valued function on [0, 1]."""

    def __init__(self, name: str):
        self.name = name

    def _values(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def _rows(cls, functions: Sequence[Function], xs: np.ndarray) -> np.ndarray:
        """Values of ``functions``, all of this class, on ``xs`` (already
        checked against [0, 1]) as the rows of one array. One ``_values``
        call per function unless a kind evaluates its functions together."""
        return np.array([f._values(xs) for f in functions])

    def values(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate on an array of points, all of which must lie in [0, 1]."""
        arr = np.atleast_1d(np.asarray(xs, dtype=float))
        if arr.size == 0:
            return np.empty(0)
        require_in_domain(arr, self.name)
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

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray]):
        super().__init__(name)
        self._fn = fn

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(xs), dtype=float)


class SampledFunction(Function):
    """Sampled data, evaluated by piecewise-linear interpolation. The sample
    points must span [0, 1] exactly."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float], name: str = "sampled"):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise ConfigError("sampled function needs at least 2 grid points")
        if ys.shape != xs.shape:
            raise ConfigError("sampled function: grid and values differ in length")
        if not np.all(xs[1:] > xs[:-1]):
            raise ConfigError("sampled function grid must be strictly increasing")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ConfigError("sampled function grid must span [0.0, 1.0] exactly, "
                              f"got [{float(xs[0])!r}, {float(xs[-1])!r}]")
        super().__init__(name)
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
        super().__init__(name)
        self.basis = basis
        self.coefficients = coeffs
        self.coefficients.flags.writeable = False

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return self.coefficients @ self.basis.values(xs)


# --------------------------------------------------------------------------
# Closed-form catalog
# --------------------------------------------------------------------------

class Polynomial(Function):
    """Polynomial ``c[0] + c[1] x + ... + c[d] x^d`` by Horner's rule. The
    polynomials of a block share one Horner loop over their coefficients
    zero-padded to the highest degree: a leading zero leaves each value at
    exactly zero until the row's own leading coefficient, so every row has
    the bits of Horner's rule on its own coefficients."""

    def __init__(self, coefficients: Sequence[float], name: str):
        c = np.array(coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ConfigError("polynomial needs a non-empty coefficient sequence")
        super().__init__(name)
        self.coefficients = c
        self.coefficients.flags.writeable = False

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return self._rows([self], xs)[0]

    @classmethod
    def _rows(cls, functions: Sequence[Polynomial], xs: np.ndarray) -> np.ndarray:
        width = max(p.coefficients.size for p in functions)
        coeffs = np.zeros((len(functions), width))
        for row, p in zip(coeffs, functions):
            row[width - p.coefficients.size:] = p.coefficients[::-1]
        out = np.empty((len(functions), xs.size))
        out[:] = coeffs[:, :1]
        for d in range(1, width):
            out *= xs
            out += coeffs[:, d:d + 1]
        return out


class Wave(Function):
    """``offset + amplitude * trig(2 pi frequency x)``, with ``trig`` set by
    the subclass. The waves of one kind in a block share one ``trig`` call."""

    trig: np.ufunc

    def __init__(self, frequency: float, amplitude: float = 1.0, offset: float = 0.0):
        super().__init__(f"{offset:g}+{amplitude:g}*{self.trig.__name__}(2pi*{frequency:g}x)")
        self.omega = 2.0 * np.pi * frequency
        self.amplitude = amplitude
        self.offset = offset

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return self._rows([self], xs)[0]

    @classmethod
    def _rows(cls, functions: Sequence[Wave], xs: np.ndarray) -> np.ndarray:
        def column(attr: str) -> np.ndarray:
            return np.array([getattr(w, attr) for w in functions])[:, None]

        out = column("omega") * xs
        cls.trig(out, out=out)
        out *= column("amplitude")
        out += column("offset")
        return out


class SineWave(Wave):
    trig = np.sin


class CosineWave(Wave):
    trig = np.cos


def constant(c: float) -> Polynomial:
    return Polynomial([c], f"const({c:g})")


ONE = constant(1.0)


def polynomial(coeffs: Sequence[float], name: str | None = None) -> Polynomial:
    """Polynomial ``c[0] + c[1] x + ... + c[d] x^d`` (Horner evaluation)."""
    return Polynomial(coeffs, name or f"poly(deg {np.size(coeffs) - 1})")


def monomial(power: int) -> ClosedForm:
    return ClosedForm(f"x^{power}", lambda xs: xs ** power)


def sine_wave(frequency: float, amplitude: float = 1.0, offset: float = 0.0) -> SineWave:
    """``offset + amplitude * sin(2 pi frequency x)``."""
    return SineWave(frequency, amplitude, offset)


def cosine_wave(frequency: float, amplitude: float = 1.0, offset: float = 0.0) -> CosineWave:
    return CosineWave(frequency, amplitude, offset)


def exponential() -> ClosedForm:
    return ClosedForm("exp(x)", np.exp)


def scaled(f: Function, factor: float, name: str | None = None) -> ClosedForm:
    """Pointwise rescaling ``factor * f``."""
    return ClosedForm(name or f"{factor:g}*{f.name}", lambda xs: factor * f.values(xs))


def values_block(functions: Sequence[Function], xs: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``functions[i].values(xs)``, bit for bit, but ``xs`` is
    not checked against [0, 1]: the caller checks it once. The functions of
    one class are evaluated together by its ``_rows``: polynomials by one
    padded Horner loop, sine and cosine waves by one ``np.sin`` or
    ``np.cos`` each, sampled functions by one ``np.interp`` per function."""
    out = np.empty((len(functions), xs.size))
    kinds: dict[type, list[int]] = {}
    for i, f in enumerate(functions):
        kinds.setdefault(type(f), []).append(i)
    for kind, rows in kinds.items():
        out[rows] = kind._rows([functions[i] for i in rows], xs)
    return out


# --------------------------------------------------------------------------
# Random test-function catalog
# --------------------------------------------------------------------------
# The draw is deliberately narrow and fully seeded: polynomials up to degree
# six, single sine/cosine modes up to frequency eight, and piecewise-linear
# functions with at most 16 interior breakpoints. Each draw is built by the
# constructors above, which hold its parameters and its name, so the checks
# draw their functions here one at a time and evaluate them together with
# :func:`values_block`.

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
    xs = np.concatenate(([0.0], inner, [1.0]))
    xs = xs[np.concatenate(([True], xs[1:] > xs[:-1]))]  # np.unique of the sorted xs
    lo_val = 0.0 if nonnegative else -1.0
    ys = rng.uniform(lo_val, 1.0, size=xs.size)
    return SampledFunction(xs, ys, name=f"pwl({xs.size})")
