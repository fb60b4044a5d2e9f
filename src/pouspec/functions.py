"""The domain [0, 1] and the seeded test functions of the lemma checks.

A function reaches the package only as its values: the operator needs
``f`` at its functionals' nodes (and a check at its grid points), never as
an object. :func:`require_in_domain` checks points against [0, 1] and
:func:`grid` spreads points over it. :func:`draw_test_functions` draws the
test functions of the positivity and norm checks as parameter arrays: a
kind code per trial, zero-padded polynomial coefficients, wave parameters
and piecewise-linear samples. It decodes the generator's raw PCG64 words to
the numbers that one ``integers``/``uniform`` call after another would
give, in one loop over each trial's integers and array passes over the
rest. :meth:`~DrawnTestFunctions.blocks` evaluates the trials in
kind-pure blocks, each block in one pass and each wave frequency once per
point set, with the same bits as each trial's own one-dimensional formula,
and :meth:`~DrawnTestFunctions.name` names one trial. Every polynomial and
wave trial is a combination of the 23 functions of :func:`dictionary`,
with the weights of :meth:`~DrawnTestFunctions.dictionary_weights`, so a
check that needs only linear images of the trials can evaluate those 23 in
place of the trials. A draw's arrays are read-only and its samples a
tuple, so it is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import itertools
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
# one place that reads the generator for test functions and
# DrawnTestFunctions.name the one place that names them.

#: Kind codes of the drawn test functions.
POLYNOMIAL, SINE, COSINE, PIECEWISE_LINEAR = range(4)

#: Coefficient count of the highest-degree test polynomial (degree six).
TEST_POLYNOMIAL_WIDTH = 7


def dictionary(xs: np.ndarray) -> np.ndarray:
    """The 23 functions that every polynomial and wave of the test catalog
    combines, on ``xs``, one row each in a fresh ``(23, xs.size)`` array:
    the powers ``1, x, ..., x^6``, each the one before times ``x``, then
    ``sin(omega x)`` and then ``cos(omega x)`` for the catalog's
    ``omega = 2 pi f``, ``f = 1 .. 8``, with the bits of a wave trial's own
    ``omega`` and argument."""
    omega = 2.0 * np.pi * np.arange(1.0, 9.0)
    out = np.empty((TEST_POLYNOMIAL_WIDTH + 2 * omega.size, xs.size))
    out[0] = 1.0
    for d in range(1, TEST_POLYNOMIAL_WIDTH):
        np.multiply(out[d - 1], xs, out=out[d])
    sines, cosines = out[TEST_POLYNOMIAL_WIDTH:].reshape(2, omega.size, xs.size)
    np.multiply.outer(omega, xs, out=sines)
    np.cos(sines, out=cosines)
    np.sin(sines, out=sines)
    return out


@dataclass(frozen=True, eq=False)
class DrawnTestFunctions:
    """Seeded test functions held as parameter arrays, one entry per trial.

    ``kinds`` holds the kind code of each trial. A polynomial trial ``i``
    has ``terms[i]`` coefficients, stored in row ``i`` of the
    ``(count, TEST_POLYNOMIAL_WIDTH)`` matrix ``coefficients`` leading
    coefficient first and zero-padded on the left. A wave trial is
    ``offset + amplitude[i] * trig(omega[i] x)`` of frequency
    ``frequency[i]``. A piecewise-linear trial interpolates its samples
    ``samples[i] = (xs, ys)``; the entry is ``None`` for the other kinds.
    Every array is read-only. Draws compare and hash by identity, as
    :class:`~pouspec.functionals.Functionals` do.
    """

    kinds: np.ndarray
    terms: np.ndarray
    coefficients: np.ndarray
    frequency: np.ndarray
    omega: np.ndarray
    amplitude: np.ndarray
    offset: float
    samples: tuple
    nonnegative: bool

    def __post_init__(self):
        # The draw makes its samples read-only: a flag per sample here would
        # cost about as much as all of the draw's array passes.
        for array in (self.kinds, self.terms, self.coefficients, self.frequency, self.omega,
                      self.amplitude):
            array.flags.writeable = False

    def blocks(self, size: int, xs: np.ndarray,
               kinds: tuple = (POLYNOMIAL, SINE, COSINE, PIECEWISE_LINEAR)):
        """Yield ``(rows, values)`` for every trial of ``kinds`` once, in
        index arrays ``rows`` of at most ``size`` trials (and at least one),
        all of one kind and in increasing order; row ``j`` of the fresh array
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
        for kind in kinds:
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

    def dictionary_weights(self) -> np.ndarray:
        """The ``(count, 23)`` weights of every trial over the rows of
        :func:`dictionary`: a polynomial's coefficients by power, a wave's
        offset on the constant and its amplitude on its own sine or cosine,
        and a zero row for a piecewise-linear trial."""
        weights = np.zeros((self.kinds.size, TEST_POLYNOMIAL_WIDTH + 16))
        polynomials = self.kinds == POLYNOMIAL
        weights[polynomials, :TEST_POLYNOMIAL_WIDTH] = self.coefficients[polynomials, ::-1]
        waves = np.flatnonzero((self.kinds == SINE) | (self.kinds == COSINE))
        weights[waves, 0] = self.offset
        columns = (TEST_POLYNOMIAL_WIDTH - 1 + self.frequency[waves].astype(int)
                   + 8 * (self.kinds[waves] == COSINE))
        weights[waves, columns] = self.amplitude[waves]
        return weights

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


#: Raw generator words fetched at a time. A trial reads at most 36, plus one
#: for each redraw of an integer (at most 4 in 2**32 draws are redrawn).
WORD_CHUNK = 1024

#: ``(2**32 - r) % r`` for each integer range ``r`` of the draw: a 32-bit
#: draw ``x`` is redrawn while the low half of ``x * r`` is below it
#: (Lemire's method, as numpy's ``Generator.integers`` takes it).
_LEMIRE_THRESHOLD = {r: (2**32 - r) % r for r in (2, 3, 4, 7, 8, 15)}


def draw_test_functions(rng: np.random.Generator, count: int,
                        nonnegative: bool = False) -> DrawnTestFunctions:
    """Draw ``count`` functions from the test catalog, in order.

    With ``nonnegative=True`` every drawn function is pointwise >= 0 by
    construction (squared polynomial, raised sine, or nonnegative samples),
    not merely on a sample grid.

    Trial after trial, the draw has the bits of the ``rng.integers`` and
    ``rng.uniform`` calls of ``random_function_oracle`` in the tests, and
    leaves ``rng`` in the state that those calls leave. It decodes the
    generator's raw 64-bit words (:func:`_draw_from_words`), read in chunks
    of ``WORD_CHUNK``, as ``Generator`` does on ``PCG64``, the bit generator
    of ``np.random.default_rng``. Any other bit generator is refused: one
    that makes 32-bit draws natively, as ``MT19937`` does, would give other
    numbers.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(f"draw_test_functions needs a PCG64 generator, "
                        f"got {type(bit_generator).__name__}")
    entry = bit_generator.state
    chunks = map(bit_generator.random_raw, itertools.repeat(WORD_CHUNK))
    draw, used, buffered = _draw_from_words(chunks, count, nonnegative,
                                            (entry["has_uint32"], entry["uinteger"]))
    # The last chunk reads past the draw: rewind, then step over the words
    # used. advance() clears the buffered half, so it is written back after.
    bit_generator.state = entry
    bit_generator.advance(used)
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = buffered
    bit_generator.state = state
    return draw


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``range(s, s + n)`` for each start ``s`` and length ``n``, joined."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _draw_from_words(chunks, count: int, nonnegative: bool,
                     buffered: tuple[int, int] = (0, 0), repeats: bool = False
                     ) -> tuple[DrawnTestFunctions, int, tuple[int, int]]:
    """Decode ``count`` trials from raw 64-bit generator words the way
    numpy's ``Generator`` on ``PCG64`` draws from them. Return the draw,
    the number of words it used and the bit generator's buffer after it.

    ``chunks`` yields the words in order, in arrays of any length; a chunk
    is read once the words before it are used up. ``buffered`` is the
    buffer before the draw, the bit generator's ``(has_uint32, uinteger)``:
    a flag and a 32-bit half, which stays behind when the flag is cleared.

    - A 32-bit draw takes the buffered half if the flag is set, and clears
      it. Otherwise it takes the low half of the next word, and buffers the
      high half.
    - ``integers(lo, lo + r)`` takes 32-bit draws ``x`` until the low half
      of ``x * r`` reaches ``(2**32 - r) % r``. Its value is ``lo`` plus
      the high half.
    - A unit value takes a whole word ``w`` as ``(w >> 11) * 2**-53``, and
      leaves the buffer alone. The coefficients, amplitudes and samples map
      their unit values ``u`` onto ``[low, 1)`` as ``low + (1 - low) * u``;
      ``1 - low`` is 1 or 2, so this has the bits of ``uniform(low, 1.0)``.

    numpy does not promise to keep this decoding across releases; the
    tests hold it to ``Generator``'s own calls.

    The one loop walks each trial's integers (its kind, then its size or
    frequency, then a wave's sine or cosine) and records where its unit
    values start. Every unit value, coefficient, amplitude and sorted
    breakpoint row then comes from array passes.

    A piecewise-linear trial takes one sample per distinct point: a
    breakpoint of exactly 0.0 repeats the left end, and two equal
    breakpoints repeat each other. About one trial in 2**48 has a repeat,
    so the loop counts the distinct breakpoints only with ``repeats``.
    Without it, every breakpoint counts as distinct. The first trial with a
    repeat is still read from the right words, and its sorted row shows the
    repeat, so the draw is then decoded again with ``repeats``.
    """
    fetched = []  # every chunk read, for the array passes
    words: list = []  # the words of the chunks not yet passed, as Python ints
    base = p = 0  # words[p] is word base + p of the draw
    has_half, half = buffered

    def fetch(needed: int) -> None:
        # Drop the used words and read chunks until ``needed`` are unused.
        nonlocal words, base, p
        words, base, p = words[p:], base + p, 0
        while len(words) < needed:
            chunk = np.asarray(next(chunks), dtype=np.uint64)
            fetched.append(chunk)
            words += chunk.tolist()

    def integer(r: int) -> int:
        # integers(0, r), on the buffered half or the next word.
        nonlocal has_half, half, p
        while True:
            if has_half:
                x, has_half = half, 0
            else:
                if p == len(words):
                    fetch(1)
                x, half, has_half = words[p] & 0xFFFFFFFF, words[p] >> 32, 1
                p += 1
            m = x * r
            if m & 0xFFFFFFFF >= _LEMIRE_THRESHOLD[r]:
                return m >> 32

    # Four entries per trial: kind, parameter, start and size. The
    # parameter is a polynomial's drawn term count, a wave's frequency or a
    # piecewise-linear trial's breakpoint count. The trial's unit values are
    # the words from ``start`` on: its breakpoints, then ``size`` more.
    trials: list = []
    for _ in range(count):
        kind = integer(3)
        if kind == 0:
            size = 1 + integer(4 if nonnegative else 7)
            if p + size > len(words):
                fetch(size)
            trials += (POLYNOMIAL, size, base + p, size)
            p += size
        elif kind == 1:
            frequency = 1 + integer(8)
            if p == len(words):
                fetch(1)
            start = base + p
            p += 1
            trials += (COSINE if integer(2) else SINE, frequency, start, 1)
        else:
            breaks = 2 + integer(15)
            if p + breaks > len(words):
                fetch(breaks)
            size = breaks + 2
            if repeats:
                # Distinct points: the breakpoints other than 0.0, and both ends.
                tops = {w >> 11 for w in words[p:p + breaks]}
                size = len(tops) + 2 - (0 in tops)
            if p + breaks + size > len(words):
                fetch(breaks + size)
            trials += (PIECEWISE_LINEAR, breaks, base + p, size)
            p += breaks + size
    used = base + p

    kinds, parameter, start, sizes = np.fromiter(trials, int, 4 * count).reshape(count, 4).T
    units = (np.concatenate([np.empty(0, dtype=np.uint64), *fetched])[:used] >> 11) * 2.0**-53
    pwl = np.flatnonzero(kinds == PIECEWISE_LINEAR)
    breaks = np.where(kinds == PIECEWISE_LINEAR, parameter, 0)
    # drawn[offsets[i]:offsets[i] + sizes[i]]: trial i's unit values after
    # its breakpoints, mapped onto [low, 1).
    offsets = np.cumsum(sizes) - sizes
    low = np.repeat(np.where(kinds == PIECEWISE_LINEAR, 0.0 if nonnegative else -1.0, -1.0),
                    sizes)
    drawn = low + (1.0 - low) * units[_ranges(start + breaks, sizes)]
    drawn.flags.writeable = False

    waves = np.flatnonzero((kinds == SINE) | (kinds == COSINE))
    frequency = np.zeros(count)
    frequency[waves] = parameter[waves]
    amplitude = np.zeros(count)
    amplitude[waves] = drawn[offsets[waves]]

    polynomials = np.flatnonzero(kinds == POLYNOMIAL)
    coefficients = np.zeros((count, TEST_POLYNOMIAL_WIDTH))
    terms = np.zeros(count, dtype=int)
    if nonnegative:
        for i, offset, size in zip(*(a.tolist() for a in (polynomials, offsets[polynomials],
                                                           sizes[polynomials]))):
            square = np.convolve(drawn[offset:offset + size], drawn[offset:offset + size])
            terms[i] = square.size
            coefficients[i, TEST_POLYNOMIAL_WIDTH - square.size:] = square[::-1]
    else:
        terms[polynomials] = sizes[polynomials]
        entries = _ranges(offsets[polynomials], sizes[polynomials])
        power = entries - np.repeat(offsets[polynomials], sizes[polynomials])
        coefficients[np.repeat(polynomials, sizes[polynomials]),
                     TEST_POLYNOMIAL_WIDTH - 1 - power] = drawn[entries]

    # Row j: 0, then trial pwl[j]'s breakpoints sorted and padded with ones.
    rows = np.ones((pwl.size, 18))
    rows[:, 0] = 0.0
    entries = _ranges(start[pwl], breaks[pwl])
    rows[np.repeat(np.arange(pwl.size), breaks[pwl]),
         1 + entries - np.repeat(start[pwl], breaks[pwl])] = units[entries]
    rows[:, 1:].sort(axis=1)
    if not repeats and np.any((rows[:, 1:] == rows[:, :-1])
                              & (np.arange(17) <= breaks[pwl, None])):
        return _draw_from_words(itertools.chain(fetched, chunks), count, nonnegative,
                                buffered, repeats=True)
    rows.flags.writeable = False
    samples: list = [None] * count
    for j, (i, points, offset, size) in enumerate(zip(
            *(a.tolist() for a in (pwl, breaks[pwl] + 2, offsets[pwl], sizes[pwl])))):
        xs = rows[j, :points]
        if size < points:
            # Sorted and without repeats means strictly increasing; a
            # repeat keeps its first.
            xs = xs[np.concatenate(([True], xs[1:] > xs[:-1]))]
            xs.flags.writeable = False
        samples[i] = (xs, drawn[offset:offset + size])
    return (DrawnTestFunctions(kinds=kinds, terms=terms, coefficients=coefficients,
                               frequency=frequency, omega=2.0 * np.pi * frequency,
                               amplitude=amplitude, offset=1.0 if nonnegative else 0.0,
                               samples=tuple(samples), nonnegative=nonnegative),
            used, (has_half, half))
