"""The domain [0, 1] and the seeded test functions of the lemma checks.

A function reaches the package only as its values: the operator needs
``f`` at its functionals' nodes (and a check at its grid points), never as
an object. :func:`require_in_domain` checks points against [0, 1] and
:func:`grid` spreads points over it. :func:`draw_test_functions` draws the
test functions of the positivity and norm checks as parameter arrays: a
kind code per trial, zero-padded polynomial coefficients, wave parameters
and piecewise-linear samples. Its :meth:`~DrawnTestFunctions.blocks`
evaluates the trials in kind-pure blocks, each block in one pass and each
wave frequency once per point set, with the same bits as each trial's own
one-dimensional formula, and :meth:`~DrawnTestFunctions.name` names one
trial. Instances are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# --------------------------------------------------------------------------
# Random test-function catalog
# --------------------------------------------------------------------------
# The draw is deliberately narrow and fully seeded: polynomials up to degree
# six, single sine/cosine modes up to frequency eight, and piecewise-linear
# functions with at most 16 interior breakpoints. draw_test_functions is the
# one place that calls the generator for test functions and
# DrawnTestFunctions.name the one place that names them.

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

    def blocks(self, size: int, xs: np.ndarray):
        """Yield ``(rows, values)`` for every trial once, in index arrays
        ``rows`` of at most ``size`` trials (and at least one), all of one
        kind and in increasing order; row ``j`` of the fresh array
        ``values`` is trial ``rows[j]`` on ``xs``, with the bits of that
        trial's own formula: Horner's rule from the leading coefficient,
        ``offset + amplitude * trig(omega x)`` or ``np.interp`` of its
        samples. ``xs`` is not checked against [0, 1]: the caller's points
        lie there already (an operator's nodes by construction, a check grid
        by the check's own test of it).

        Polynomials share one Horner loop over the block's widest
        coefficients; each piecewise-linear trial is one ``np.interp``. A
        wave kind evaluates ``trig(omega x)`` once per distinct frequency
        it draws, in one table of at most eight rows (the frequencies are 1
        to 8) held only while its blocks are yielded; a wave trial is then
        its table row times its amplitude plus the offset, the same
        operations in the same order as its own formula."""
        size = max(1, size)
        for kind in (POLYNOMIAL, SINE, COSINE, PIECEWISE_LINEAR):
            rows = np.flatnonzero(self.kinds == kind)
            table = None
            if kind in (SINE, COSINE) and rows.size:
                omegas, slot = np.unique(self.omega[rows], return_inverse=True)
                table = np.multiply.outer(omegas, xs)
                (np.cos if kind == COSINE else np.sin)(table, out=table)
            for start in range(0, rows.size, size):
                block = rows[start:start + size]
                if kind == POLYNOMIAL:
                    width = int(self.terms[block].max())
                    values = _horner(self.coefficients[block, TEST_POLYNOMIAL_WIDTH - width:],
                                     xs)
                elif kind == PIECEWISE_LINEAR:
                    values = np.array([np.interp(xs, *self.samples[i]) for i in block])
                else:
                    values = table[slot[start:start + size]]
                    values *= self.amplitude[block, None]
                    values += self.offset
                yield block, values

    def name(self, i: int) -> str:
        """Trial ``i``'s name: ``poly(deg d)^2`` (a squared polynomial),
        ``poly(deg d)``, ``pwl(k)`` (``k`` samples) or
        ``c+a*sin(2pi*fx)`` (or ``cos``), numbers in ``%g``."""
        kind = self.kinds[i]
        if kind == POLYNOMIAL:
            terms = int(self.terms[i])
            if self.nonnegative:
                return f"poly(deg {(terms - 1) // 2})^2"
            return f"poly(deg {terms - 1})"
        if kind == PIECEWISE_LINEAR:
            return f"pwl({self.samples[i][0].size})"
        trig = "cos" if kind == COSINE else "sin"
        return (f"{self.offset:g}+{float(self.amplitude[i]):g}*{trig}"
                f"(2pi*{int(self.frequency[i]):g}x)")

def draw_test_functions(rng: np.random.Generator, count: int,
                        nonnegative: bool = False) -> DrawnTestFunctions:
    """Draw ``count`` functions from the test catalog, in order.

    With ``nonnegative=True`` every drawn function is pointwise >= 0 by
    construction (squared polynomial, raised sine, or nonnegative samples),
    not merely on a sample grid.

    Each trial takes its integers from ``rng.integers`` and its unit values
    from ``rng.random``, in the order of its own draws. The unit values of
    the coefficients, amplitudes and samples are mapped onto their ranges
    ``[low, 1)`` in one pass after the loop, as ``low + (1 - low) * u``:
    ``1 - low`` is 1 or 2, so this has the bits of ``rng.uniform(low, 1.0)``
    on the same stream. Breakpoints are drawn on [0, 1) and need no map.
    """
    kinds = np.empty(count, dtype=int)
    coefficients = np.zeros((count, TEST_POLYNOMIAL_WIDTH))
    frequency = np.zeros(count)
    samples: list = [None] * count
    # units[i]: trial i's unit values, its coefficients, amplitude or samples.
    units = []
    for i in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            kinds[i] = POLYNOMIAL
            units.append(rng.random(size=int(rng.integers(1, 5 if nonnegative else 8))))
        elif kind == 1:
            frequency[i] = int(rng.integers(1, 9))
            units.append(rng.random(size=1))
            kinds[i] = COSINE if rng.integers(0, 2) else SINE
        else:
            breaks = int(rng.integers(2, 17))
            xs = np.empty(breaks + 2)
            xs[0], xs[-1] = 0.0, 1.0
            xs[1:-1] = rng.random(size=breaks)
            xs[1:-1].sort()
            # Sorted and without repeats means strictly increasing; a repeat
            # (a draw of exactly 0.0, or two equal draws) keeps its first.
            if len(set(xs.tolist())) < xs.size:
                xs = xs[np.concatenate(([True], xs[1:] > xs[:-1]))]
            kinds[i] = PIECEWISE_LINEAR
            samples[i] = xs  # paired with its mapped values after the loop
            units.append(rng.random(size=xs.size))
    sizes = np.array([u.size for u in units], dtype=int)
    starts = np.cumsum(sizes) - sizes
    lo_val = 0.0 if nonnegative else -1.0
    low = np.repeat(np.where(kinds == PIECEWISE_LINEAR, lo_val, -1.0), sizes)
    drawn = low + (1.0 - low) * np.concatenate([np.empty(0), *units])
    waves = np.flatnonzero((kinds == SINE) | (kinds == COSINE))
    amplitude = np.zeros(count)
    amplitude[waves] = drawn[starts[waves]]
    terms = np.zeros(count, dtype=int)
    for i in np.flatnonzero(kinds == POLYNOMIAL).tolist():
        coeffs = drawn[starts[i]:starts[i] + sizes[i]]
        if nonnegative:
            coeffs = np.convolve(coeffs, coeffs)
        terms[i] = coeffs.size
        coefficients[i, TEST_POLYNOMIAL_WIDTH - coeffs.size:] = coeffs[::-1]
    for i in np.flatnonzero(kinds == PIECEWISE_LINEAR).tolist():
        samples[i] = (samples[i], drawn[starts[i]:starts[i] + sizes[i]])
    return DrawnTestFunctions(kinds=kinds, terms=terms,
                              coefficients=coefficients, frequency=frequency,
                              omega=2.0 * np.pi * frequency,
                              amplitude=amplitude,
                              offset=1.0 if nonnegative else 0.0,
                              samples=samples, nonnegative=nonnegative)
