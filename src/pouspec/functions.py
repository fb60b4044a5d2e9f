"""Real-valued functions on [0, 1].

Everything downstream (functionals, operators, spectra) consumes functions
through the small :class:`Function` interface: vectorized evaluation on a
grid plus scalar calls. The domain is [0, 1] throughout the package:
:func:`require_in_domain` checks points against it and :func:`grid` spreads
points over it. The concrete kinds are closed forms (polynomials and
sine/cosine waves among them, each holding its parameters), sampled data
with piecewise-linear interpolation, and linear combinations of a basis
system. :func:`draw_test_functions` draws the seeded test functions of the
lemma checks as parameter arrays rather than objects: a kind code per
trial, zero-padded polynomial coefficients, wave parameters and
piecewise-linear samples. Its :meth:`~DrawnTestFunctions.values` evaluates
a kind-pure block of trials in one pass, with the same bits as each
trial's :class:`Function` evaluated on its own, and
:meth:`~DrawnTestFunctions.function` builds that object (and its name) for
one trial. All instances are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
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

def _horner(reversed_coefficients: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Horner's rule on ``xs`` for the coefficients along the last axis of
    ``reversed_coefficients``, leading coefficient first: one row of values
    per row of coefficients. A row zero-padded on the left stays exactly
    zero until its own leading coefficient, so it has the bits of Horner's
    rule on its own coefficients."""
    out = np.empty(reversed_coefficients.shape[:-1] + xs.shape)
    out[...] = reversed_coefficients[..., :1]
    for d in range(1, reversed_coefficients.shape[-1]):
        out *= xs
        out += reversed_coefficients[..., d:d + 1]
    return out


def _wave_values(trig: np.ufunc, omega, amplitude, offset, xs: np.ndarray) -> np.ndarray:
    """``offset + amplitude * trig(omega * xs)``: scalar parameters give one
    row of values, column arrays one row per wave."""
    out = omega * xs
    trig(out, out=out)
    out *= amplitude
    out += offset
    return out


class Polynomial(Function):
    """Polynomial ``c[0] + c[1] x + ... + c[d] x^d`` by Horner's rule."""

    def __init__(self, coefficients: Sequence[float], name: str):
        c = np.array(coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ConfigError("polynomial needs a non-empty coefficient sequence")
        super().__init__(name)
        self.coefficients = c
        self.coefficients.flags.writeable = False

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return _horner(self.coefficients[::-1], xs)


class Wave(Function):
    """``offset + amplitude * trig(2 pi frequency x)``, with ``trig`` set by
    the subclass."""

    trig: np.ufunc

    def __init__(self, frequency: float, amplitude: float = 1.0, offset: float = 0.0):
        super().__init__(f"{offset:g}+{amplitude:g}*{self.trig.__name__}(2pi*{frequency:g}x)")
        self.omega = 2.0 * np.pi * frequency
        self.amplitude = amplitude
        self.offset = offset

    def _values(self, xs: np.ndarray) -> np.ndarray:
        return _wave_values(self.trig, self.omega, self.amplitude, self.offset, xs)


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


# --------------------------------------------------------------------------
# Random test-function catalog
# --------------------------------------------------------------------------
# The draw is deliberately narrow and fully seeded: polynomials up to degree
# six, single sine/cosine modes up to frequency eight, and piecewise-linear
# functions with at most 16 interior breakpoints. draw_test_functions is the
# one place that calls the generator for test functions and
# DrawnTestFunctions.function the one place that names them; random_function
# is a draw of one.

#: Kind codes of the drawn test functions.
POLYNOMIAL, SINE, COSINE, PIECEWISE_LINEAR = range(4)

#: Coefficient count of the highest-degree test polynomial (degree six).
TEST_POLYNOMIAL_WIDTH = 7


@dataclass(frozen=True)
class DrawnTestFunctions:
    """Seeded test functions held as parameter arrays, one entry per trial.

    ``kinds`` holds the kind code of each trial. A polynomial trial ``i``
    has ``terms[i]`` coefficients, stored in row ``i`` of the
    ``(count, TEST_POLYNOMIAL_WIDTH)`` matrix ``coefficients`` leading
    coefficient first and zero-padded on the left. A wave trial is
    ``offset + amplitude[i] * trig(omega[i] x)`` of frequency
    ``frequency[i]``. A piecewise-linear trial interpolates its samples
    ``samples[i] = (xs, ys)``; the entry is ``None`` for the other kinds.
    """

    kinds: np.ndarray
    terms: np.ndarray
    coefficients: np.ndarray
    frequency: np.ndarray
    omega: np.ndarray
    amplitude: np.ndarray
    offset: float
    samples: list
    nonnegative: bool

    def kind_blocks(self, size: int):
        """Index arrays of at most ``size`` trials (and at least one), all of
        one kind and in increasing order; every trial is in one block."""
        size = max(1, size)
        for kind in (POLYNOMIAL, SINE, COSINE, PIECEWISE_LINEAR):
            rows = np.flatnonzero(self.kinds == kind)
            for start in range(0, rows.size, size):
                yield rows[start:start + size]

    def values(self, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Row ``j`` is ``self.function(rows[j]).values(xs)``, bit for bit,
        for trials ``rows`` all of one kind, but ``xs`` is not checked against
        [0, 1]: the caller checks it once. Polynomials share one Horner loop
        over the block's widest coefficients, waves one ``np.sin`` or
        ``np.cos``; each piecewise-linear trial is one ``np.interp``."""
        kind = self.kinds[rows[0]]
        if kind == POLYNOMIAL:
            width = int(self.terms[rows].max())
            return _horner(self.coefficients[rows, TEST_POLYNOMIAL_WIDTH - width:], xs)
        if kind == PIECEWISE_LINEAR:
            return np.array([np.interp(xs, *self.samples[i]) for i in rows])
        trig = np.cos if kind == COSINE else np.sin
        return _wave_values(trig, self.omega[rows, None], self.amplitude[rows, None],
                            self.offset, xs)

    def function(self, i: int) -> Function:
        """Trial ``i`` as a :class:`Function`, with its name."""
        kind = self.kinds[i]
        if kind == POLYNOMIAL:
            terms = int(self.terms[i])
            coeffs = self.coefficients[i, TEST_POLYNOMIAL_WIDTH - terms:][::-1]
            if self.nonnegative:
                return polynomial(coeffs, name=f"poly(deg {(terms - 1) // 2})^2")
            return polynomial(coeffs)
        if kind == PIECEWISE_LINEAR:
            xs, ys = self.samples[i]
            return SampledFunction(xs, ys, name=f"pwl({xs.size})")
        make = cosine_wave if kind == COSINE else sine_wave
        return make(int(self.frequency[i]), amplitude=float(self.amplitude[i]),
                    offset=self.offset)


def draw_test_functions(rng: np.random.Generator, count: int,
                        nonnegative: bool = False) -> DrawnTestFunctions:
    """Draw ``count`` functions from the test catalog, in order.

    With ``nonnegative=True`` every drawn function is pointwise >= 0 by
    construction (squared polynomial, raised sine, or nonnegative samples),
    not merely on a sample grid.
    """
    kinds = [0] * count
    terms = [0] * count
    coefficients = np.zeros((count, TEST_POLYNOMIAL_WIDTH))
    frequency = [0] * count
    amplitude = [0.0] * count
    samples: list = [None] * count
    lo_val = 0.0 if nonnegative else -1.0
    for i in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            if nonnegative:
                base = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 5)))
                coeffs = np.convolve(base, base)
            else:
                coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 8)))
            kinds[i] = POLYNOMIAL
            terms[i] = coeffs.size
            coefficients[i, TEST_POLYNOMIAL_WIDTH - coeffs.size:] = coeffs[::-1]
        elif kind == 1:
            frequency[i] = int(rng.integers(1, 9))
            amplitude[i] = float(rng.uniform(-1.0, 1.0))
            kinds[i] = COSINE if rng.integers(0, 2) else SINE
        else:
            breaks = int(rng.integers(2, 17))
            xs = np.empty(breaks + 2)
            xs[0], xs[-1] = 0.0, 1.0
            xs[1:-1] = rng.uniform(0.0, 1.0, size=breaks)
            xs[1:-1].sort()
            # Sorted and without repeats means strictly increasing; a repeat
            # (a draw of exactly 0.0, or two equal draws) keeps its first.
            if len(set(xs.tolist())) < xs.size:
                xs = xs[np.concatenate(([True], xs[1:] > xs[:-1]))]
            kinds[i] = PIECEWISE_LINEAR
            samples[i] = (xs, rng.uniform(lo_val, 1.0, size=xs.size))
    frequency = np.array(frequency, dtype=float)
    return DrawnTestFunctions(kinds=np.array(kinds), terms=np.array(terms),
                              coefficients=coefficients, frequency=frequency,
                              omega=2.0 * np.pi * frequency,
                              amplitude=np.array(amplitude),
                              offset=1.0 if nonnegative else 0.0,
                              samples=samples, nonnegative=nonnegative)


def random_function(rng: np.random.Generator, nonnegative: bool = False) -> Function:
    """Draw one function from the test catalog: the first trial of
    :func:`draw_test_functions`, as a :class:`Function`."""
    return draw_test_functions(rng, 1, nonnegative).function(0)
