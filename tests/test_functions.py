"""The domain grid and the drawn test functions of the lemma checks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec import functions
from pouspec.errors import ConfigError, DomainError
from pouspec.functions import (COSINE, DOMAIN_SLACK, PIECEWISE_LINEAR, POLYNOMIAL, SINE,
                               TEST_POLYNOMIAL_WIDTH, _draw_from_words, dictionary,
                               draw_test_functions, grid, outside_domain, require_in_domain)

from helpers import CatalogDraw, benchmark_seeds, catalog_values_oracle, random_function_oracle


def test_grid_endpoints():
    xs = grid(11)
    assert xs[0] == 0.0 and xs[-1] == 1.0 and xs.size == 11


@pytest.mark.parametrize("points", [1, 0, -3])
def test_grid_needs_two_points(points):
    with pytest.raises(ConfigError, match=f"grid needs at least 2 points, got {points}"):
        grid(points)


class TestDomain:
    def test_out_of_domain_raises(self):
        # The first point outside is named, not the farthest.
        with pytest.raises(DomainError, match=r"^check: x=-0.3 outside domain \[0.0, 1.0\]$"):
            require_in_domain(np.array([0.2, -0.3, 1.4]), "check")

    def test_nan_is_outside(self):
        xs = np.array([0.5, np.nan])
        assert outside_domain(xs).tolist() == [False, True]
        with pytest.raises(DomainError, match="x=nan outside"):
            require_in_domain(xs, "check")

    def test_slack_is_inside(self):
        xs = np.array([-DOMAIN_SLACK, 0.0, 1.0, 1.0 + DOMAIN_SLACK])
        assert not outside_domain(xs).any()
        require_in_domain(xs, "check")

    def test_just_past_the_slack_is_outside(self):
        xs = np.array([-2 * DOMAIN_SLACK, 0.5, 1.0 + 2 * DOMAIN_SLACK])
        assert outside_domain(xs).tolist() == [True, False, True]


def _trial(draw, i: int) -> CatalogDraw:
    """Trial ``i`` of ``draw`` as the oracle holds a draw, from its
    parameters."""
    kind = int(draw.kinds[i])
    if kind == POLYNOMIAL:
        return CatalogDraw("poly", draw.name(i),
                           {"coefficients": draw.coefficients[i, :int(draw.terms[i])]})
    if kind == PIECEWISE_LINEAR:
        xs, ys = draw.samples[i]
        return CatalogDraw("pwl", draw.name(i), {"xs": xs, "ys": ys})
    return CatalogDraw("cos" if kind == COSINE else "sin", draw.name(i),
                       {"omega": 2.0 * np.pi * draw.frequency[i],
                        "amplitude": float(draw.amplitude[i]), "offset": draw.offset})


def _all_values(draw, xs: np.ndarray) -> np.ndarray:
    """Every trial of ``draw`` on ``xs``, one row per trial: the
    piecewise-linear trials from :meth:`DrawnTestFunctions.blocks`, the
    others by their own formula from their parameters."""
    rows = np.array([catalog_values_oracle(_trial(draw, i), xs)
                     for i in range(draw.kinds.size)]).reshape(draw.kinds.size, xs.size)
    for block, values in draw.blocks(draw.kinds.size, xs):
        rows[block] = values
    return rows


class TestRandomCatalog:
    def test_deterministic_for_fixed_seed(self):
        xs = np.linspace(0, 1, 50)
        a = _all_values(draw_test_functions(np.random.default_rng(7), 1), xs)
        b = _all_values(draw_test_functions(np.random.default_rng(7), 1), xs)
        nptest.assert_array_equal(a, b)

    def test_nonnegative_draws_are_nonnegative(self):
        xs = np.linspace(0, 1, 2001)
        draw = draw_test_functions(np.random.default_rng(123), 60, nonnegative=True)
        assert _all_values(draw, xs).min() >= 0.0

    def test_draws_evaluate_on_domain(self):
        xs = np.linspace(0, 1, 101)
        values = _all_values(draw_test_functions(np.random.default_rng(5), 30), xs)
        assert values.shape == (30, xs.size)
        assert np.all(np.isfinite(values))


class ScriptedGenerator:
    """Stands in for ``np.random.Generator`` with scripted draws, for the
    oracle: ``integers`` returns the next scripted integer, ``uniform``
    maps the next scripted unit values onto ``[low, high)`` and ``random``
    returns them as ``uniform(0, 1)`` does."""

    def __init__(self, ints, units):
        self._ints = iter(ints)
        self._units = iter(units)

    def integers(self, low, high):
        return np.int64(next(self._ints))

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            return low + (high - low) * next(self._units)
        return low + (high - low) * np.array([next(self._units) for _ in range(size)])

    def random(self, size=None):
        return self.uniform(0.0, 1.0, size)


# Scripted raw words for ``_draw_from_words``, as ``PCG64`` would make them.

#: The largest unit value a word gives, ``1 - 2**-53``.
TOP = 1.0 - 2.0**-53


def draw32(value: int, r: int) -> int:
    """A 32-bit draw that ``integers(0, r)`` takes, without a redraw, as
    ``value``: ``x * r`` has high half ``value`` and low half at least
    ``r``, above the redraw threshold ``(2**32 - r) % r``."""
    return ((value << 32) + r - 1) // r + 1


def word(low: int, high: int = 0) -> int:
    """The word whose low and high halves are the 32-bit draws ``low`` and
    ``high``."""
    return low | high << 32


def unit(u: float) -> int:
    """The word of unit value ``u``, a multiple of 2**-53 in [0, 1)."""
    assert 0.0 <= u < 1.0 and (u * 2.0**53).is_integer(), u
    return int(u * 2.0**53) << 11


def unit_value(w: int) -> float:
    """The unit value of word ``w``, as ``Generator.random`` takes it."""
    return (w >> 11) * 2.0**-53


def scripted_draw(words, count: int = 1, nonnegative: bool = False, chunk: int | None = None):
    """``_draw_from_words`` on ``words``, in chunks of ``chunk`` words (one
    chunk if ``None``), then zero words: a draw whose breakpoints repeat
    first takes them as distinct, which can read past the scripted words."""
    words = np.array(words, dtype=np.uint64)
    size = chunk or words.size
    chunks = [words[i:i + size] for i in range(0, words.size, size)]
    return _draw_from_words(iter(chunks + [np.zeros(64, dtype=np.uint64)]), count, nonnegative)


class TestEvaluation:
    """Scripted draws of each kind, evaluated at points with known values."""

    def test_constant_one(self):
        # A polynomial of one term. Its coefficient from the zero word is -1,
        # the bottom of [-1, 1), and its square is the constant one. (The
        # top of [-1, 1) is 1 - 2**-52: no word gives a unit value of 1.)
        words = [word(draw32(0, 3), draw32(0, 7)), unit(0.0)]
        draw = scripted_draw(words)[0]
        assert draw.name(0) == "poly(deg 0)"
        assert _all_values(draw, grid(5)).tolist() == [[-1.0] * 5]
        draw = scripted_draw(words, nonnegative=True)[0]
        assert draw.name(0) == "poly(deg 0)^2"
        assert _all_values(draw, grid(5)).tolist() == [[1.0] * 5]

    def test_catalog_sine(self):
        # Frequency 1, amplitude 1 - 2**-52 (the top of [-1, 1)), the sine.
        words = [word(draw32(1, 3), draw32(0, 8)), unit(TOP), word(draw32(0, 2))]
        draw = scripted_draw(words)[0]
        assert draw.kinds[0] == SINE and draw.name(0) == "0+1*sin(2pi*1x)"
        nptest.assert_allclose(_all_values(draw, np.array([0.0, 0.25, 0.75])),
                               [[0.0, 1.0, -1.0]], rtol=0, atol=1e-15)

    def test_cosine(self):
        # Frequency 2, amplitude 1 - 2**-52, the cosine, raised by one when
        # nonnegative.
        words = [word(draw32(1, 3), draw32(1, 8)), unit(TOP), word(draw32(1, 2))]
        draw = scripted_draw(words, nonnegative=True)[0]
        assert draw.kinds[0] == COSINE and draw.name(0) == "1+1*cos(2pi*2x)"
        nptest.assert_allclose(_all_values(draw, np.array([0.0, 0.25, 0.5])),
                               [[2.0, 0.0, 2.0]], rtol=0, atol=1e-15)

    def test_sampled_linear_interpolation(self):
        # Two breakpoints 0.25 < 0.5; samples -1, 0, 1 - 2**-52, 0 (mapped
        # from [0, 1) onto [-1, 1)) at 0, 0.25, 0.5, 1.
        words = [word(draw32(2, 3), draw32(0, 15)),
                 *map(unit, [0.5, 0.25, 0.0, 0.5, TOP, 0.5])]
        draw = scripted_draw(words)[0]
        assert draw.samples[0][0].tolist() == [0.0, 0.25, 0.5, 1.0]
        nptest.assert_allclose(_all_values(draw, np.array([0.125, 0.375, 0.75])),
                               [[-0.5, 0.5, 0.5]], rtol=0, atol=1e-15)

    def test_vectorized_matches_scalar(self):
        # The dictionary and the interpolated trials on many points have
        # the bits of each point on its own.
        xs = np.random.default_rng(0).uniform(size=50)
        columns = dictionary(xs)
        for j, x in enumerate(xs):
            assert dictionary(np.array([x]))[:, 0].tobytes() == columns[:, j].tobytes()
        for nonnegative in (False, True):
            draw = draw_test_functions(np.random.default_rng(8), 100, nonnegative)
            rows = np.concatenate([values for _, values in draw.blocks(100, xs)])
            for j, x in enumerate(xs):
                single = np.concatenate([values for _, values in draw.blocks(100, np.array([x]))])
                assert single[:, 0].tobytes() == rows[:, j].tobytes()


class TestDrawnTestFunctions:
    #: The verification grid, scattered nodes, and both ends just outside
    #: [0, 1] but inside DOMAIN_SLACK.
    XS = np.concatenate((grid(1001), np.random.default_rng(0).uniform(size=300),
                         [-1e-13, 1.0 + 1e-13]))

    def test_points_reach_past_both_ends(self):
        assert -DOMAIN_SLACK < self.XS.min() < 0.0 and 1.0 < self.XS.max() < 1.0 + DOMAIN_SLACK

    @pytest.mark.parametrize("block_size", [1, 7, 40])
    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_blocks_equal_single_draws_bit_for_bit(self, nonnegative, block_size):
        # The blocks hold the piecewise-linear trials, each with the bits of
        # the oracle's draw.
        for seed in range(50):
            draw_rng = np.random.default_rng(seed)
            draw = draw_test_functions(draw_rng, 40, nonnegative)
            rows = {}
            for block, values in draw.blocks(block_size, self.XS):
                rows.update(zip(block.tolist(), values))
            single_rng = np.random.default_rng(seed)
            for i in range(40):
                single = random_function_oracle(single_rng, nonnegative)
                assert draw.name(i) == single.name
                if single.kind == "pwl":
                    assert rows.pop(i).tobytes() == \
                        catalog_values_oracle(single, self.XS).tobytes(), single.name
            assert rows == {}
            assert draw_rng.bit_generator.state == single_rng.bit_generator.state

    def test_blocks_hold_one_block_at_a_time_on_a_large_grid(self):
        # On 100001 points one-trial blocks of the piecewise-linear trials
        # hold at most three rows at a time (the block yielded before, the
        # next trial's interpolation and its copy into its block), and
        # nothing of the polynomials or waves.
        xs = grid(100_001)
        draw = draw_test_functions(np.random.default_rng(0), 40)
        assert np.count_nonzero(draw.kinds == PIECEWISE_LINEAR) >= 4
        tracemalloc.start()
        try:
            for _ in draw.blocks(1, xs):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * xs.nbytes

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_repeated_breakpoints_keep_the_first(self, nonnegative):
        # Two piecewise-linear draws whose breakpoints repeat: a draw of
        # exactly 0.0 repeats the left end, and 0.5 is drawn twice; then
        # 0.375 is drawn twice. Each takes one sample per distinct point,
        # so the second trial and the words after it move up by two.
        words = [word(draw32(2, 3), draw32(2, 15)), *map(unit, [0.0, 0.5, 0.5, 0.25]),
                 *[unit(0.125)] * 4,
                 word(draw32(2, 3), draw32(1, 15)), *map(unit, [0.375, 0.375, 0.75]),
                 *[unit(0.625)] * 4]
        draw, used, buffered = scripted_draw(words, 2, nonnegative)
        assert used == len(words) and buffered == (0, draw32(1, 15))
        oracle_rng = ScriptedGenerator([2, 4, 2, 3],
                                       [unit_value(w) for w in words[1:9] + words[10:]])
        for i, expected in enumerate(([0.0, 0.25, 0.5, 1.0], [0.0, 0.375, 0.75, 1.0])):
            single = random_function_oracle(oracle_rng, nonnegative)
            xs, ys = draw.samples[i]
            assert xs.tolist() == single.params["xs"].tolist() == expected
            assert ys.tobytes() == single.params["ys"].tobytes()
            assert draw.name(i) == single.name == "pwl(4)"
            assert _all_values(draw, self.XS)[i].tobytes() == single(self.XS).tobytes()

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_draws_of_one_in_sequence_equal_one_draw(self, nonnegative):
        # Each trial takes its own generator calls, in order, so drawing one
        # at a time continues the same stream as drawing 40 at once.
        rng = np.random.default_rng(3)
        whole_rng = np.random.default_rng(3)
        whole = draw_test_functions(whole_rng, 40, nonnegative)
        whole_values = _all_values(whole, self.XS)
        for i in range(40):
            single = draw_test_functions(rng, 1, nonnegative)
            assert single.name(0) == whole.name(i)
            assert _all_values(single, self.XS)[0].tobytes() == whole_values[i].tobytes()
        assert rng.bit_generator.state == whole_rng.bit_generator.state

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_samples_span_the_unit_interval(self, nonnegative):
        draw = draw_test_functions(np.random.default_rng(10), 200, nonnegative)
        rows = np.flatnonzero(draw.kinds == PIECEWISE_LINEAR)
        assert rows.size > 0
        assert all(draw.samples[i] is None for i in np.flatnonzero(draw.kinds != PIECEWISE_LINEAR))
        for i in rows:
            xs, ys = draw.samples[i]
            assert xs[0] == 0.0 and xs[-1] == 1.0 and np.all(np.diff(xs) > 0)
            assert 3 <= xs.size <= 18 and ys.shape == xs.shape
            assert ys.min() >= (0.0 if nonnegative else -1.0) and ys.max() < 1.0

    @pytest.mark.parametrize("size", [0, 1, 3, 100])
    def test_blocks_partition_the_piecewise_linear_trials(self, size):
        draw = draw_test_functions(np.random.default_rng(2), 60)
        xs = grid(11)
        blocks = list(draw.blocks(size, xs))
        assert np.concatenate([block for block, _ in blocks]).tolist() == \
            np.flatnonzero(draw.kinds == PIECEWISE_LINEAR).tolist()
        for block, values in blocks:
            assert values.shape == (block.size, xs.size)
            assert 1 <= block.size <= max(1, size)
            assert np.all(np.diff(block) > 0)

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_dictionary_weights_combine_the_trials(self, nonnegative):
        # A polynomial or wave trial is its weights times the dictionary, up
        # to rounding: within gamma_43 P G of the trial's own formula, P the
        # 1-norm of its weights and G = (1 + DOMAIN_SLACK)**6 a bound of
        # every dictionary value (tests/helpers.py::norm_estimate_bound);
        # gamma_8 more covers the bound's own roundings. A piecewise-linear
        # trial has no weights.
        u = 2.0 ** -53

        def gamma(k):
            return k * u / (1 - k * u)

        for seed in range(20):
            draw = draw_test_functions(np.random.default_rng(seed), 200, nonnegative)
            weights = draw.dictionary_weights()
            assert weights.shape == (200, dictionary(self.XS).shape[0]) == (200, 23)
            combined = weights @ dictionary(self.XS)
            bound = (gamma(43) * np.abs(weights).sum(axis=1) * (1 + DOMAIN_SLACK) ** 6
                     * (1 + gamma(8)))
            oracle_rng = np.random.default_rng(seed)
            for i in range(200):
                single = random_function_oracle(oracle_rng, nonnegative)
                if single.kind == "pwl":
                    assert not weights[i].any()
                    continue
                assert np.all(np.abs(combined[i] - single(self.XS)) <= bound[i])

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_parameters_equal_the_uniform_draws(self, nonnegative):
        # The draw takes unit values from rng.random and maps them after
        # the loop; the oracle calls rng.uniform for each. Every parameter
        # has the oracle's bits, and both leave the generator in one state.
        for seed in range(300):
            draw_rng = np.random.default_rng(seed)
            draw = draw_test_functions(draw_rng, 30, nonnegative)
            oracle_rng = np.random.default_rng(seed)
            for i in range(30):
                _assert_trial_is(draw, i, random_function_oracle(oracle_rng, nonnegative))
            assert draw_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_draws_cover_every_kind(self):
        rng = np.random.default_rng(1)
        kinds = {random_function_oracle(rng, nonnegative).kind
                 for nonnegative in (False, True) for _ in range(100)}
        assert kinds == {"poly", "sin", "cos", "pwl"}
        kinds = draw_test_functions(np.random.default_rng(1), 100).kinds
        assert set(kinds.tolist()) == set(range(PIECEWISE_LINEAR + 1))

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_names_name_the_parameters(self, nonnegative):
        draw = draw_test_functions(np.random.default_rng(6), 200, nonnegative)
        for i in range(200):
            name = draw.name(i)
            if draw.kinds[i] == POLYNOMIAL:
                degree = int(draw.terms[i]) - 1
                assert name == (f"poly(deg {degree // 2})^2" if nonnegative
                                else f"poly(deg {degree})")
            elif draw.kinds[i] == PIECEWISE_LINEAR:
                assert name == f"pwl({draw.samples[i][0].size})"
            else:
                offset, rest = name.split("+", 1)
                assert float(offset) == draw.offset
                assert rest.endswith(f"(2pi*{int(draw.frequency[i])}x)")

    def test_coefficients_in_power_order_padded_on_the_right(self):
        rng = np.random.default_rng(4)
        draw = draw_test_functions(np.random.default_rng(4), 100, nonnegative=True)
        singles = [random_function_oracle(rng, nonnegative=True) for _ in range(100)]
        for i in np.flatnonzero(draw.kinds == POLYNOMIAL):
            terms = draw.terms[i]
            assert not draw.coefficients[i, terms:].any()
            assert draw.coefficients[i, :terms].tobytes() == \
                singles[i].params["coefficients"].tobytes()
            assert draw.dictionary_weights()[i, :TEST_POLYNOMIAL_WIDTH].tobytes() == \
                draw.coefficients[i].tobytes()

class TestRawWords:
    """The draw decodes raw PCG64 words as ``Generator`` does."""

    XS = grid(101)

    def test_fields_are_read_only(self):
        draw = draw_test_functions(np.random.default_rng(10), 60)
        assert isinstance(draw.samples, tuple)
        arrays = [draw.kinds, draw.terms, draw.coefficients, draw.frequency, draw.amplitude,
                  *(a for pair in draw.samples if pair for a in pair)]
        assert len(arrays) > 5
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(TypeError):
            draw.samples[0] = None
        with pytest.raises(AttributeError):
            draw.offset = 2.0
        # By identity: comparing the arrays field by field would raise.
        assert draw == draw and draw != draw_test_functions(np.random.default_rng(10), 60)
        assert hash(draw) == hash(draw)

    def test_repeated_breakpoints_are_read_only(self):
        words = [word(draw32(2, 3), draw32(0, 15)), *map(unit, [0.0, 0.5, 0.25, 0.5, 0.75])]
        xs, ys = scripted_draw(words)[0].samples[0]
        assert xs.tolist() == [0.0, 0.5, 1.0]
        for array in (xs, ys):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_needs_pcg64(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="^draw_test_functions needs a PCG64 generator, "
                                            "got MT19937$"):
            draw_test_functions(rng, 1)

    @pytest.mark.parametrize("seed", benchmark_seeds())
    def test_draws_of_the_benchmark_seeds_equal_the_oracle(self, seed):
        # As the checks draw: 100 nonnegative trials at the seed for
        # positivity, 200 signed trials at the seed plus one for the norm.
        for count, nonnegative, stream in ((100, True, seed), (200, False, seed + 1)):
            draw_rng = np.random.default_rng(stream)
            draw = draw_test_functions(draw_rng, count, nonnegative)
            oracle_rng = np.random.default_rng(stream)
            for i in range(count):
                _assert_trial_is(draw, i, random_function_oracle(oracle_rng, nonnegative))
            assert draw_rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_a_half_buffered_before_the_draw_is_its_first(self, nonnegative):
        # The generator holds the high half of a word when the draw starts:
        # the draw's first integer is that half, and the draws after the
        # draw continue the oracle's stream.
        for seed in range(100):
            draw_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert draw_rng.integers(0, 5) == oracle_rng.integers(0, 5)
            assert draw_rng.bit_generator.state["has_uint32"] == 1
            draw = draw_test_functions(draw_rng, 7, nonnegative)
            for i in range(7):
                _assert_trial_is(draw, i, random_function_oracle(oracle_rng, nonnegative))
            assert draw_rng.bit_generator.state == oracle_rng.bit_generator.state
            assert draw_rng.integers(0, 9, size=3).tolist() == \
                oracle_rng.integers(0, 9, size=3).tolist()
            assert draw_rng.random() == oracle_rng.random()

    def test_a_lemire_redraw_takes_the_next_half(self):
        # integers(0, 3) redraws a 32-bit draw of 0 (x * 3 has low half 0,
        # below (2**32 - 3) % 3 = 1): the kind is the high half's, and the
        # term count the low half of the next word.
        words = [word(0, draw32(0, 3)), word(draw32(2, 7), draw32(1, 3)),
                 *map(unit, [0.25, 0.5, 0.75])]
        draw, used, buffered = scripted_draw(words)
        assert draw.kinds.tolist() == [POLYNOMIAL] and draw.terms.tolist() == [3]
        assert draw.coefficients[0].tolist() == [-0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0]
        assert used == 5 and buffered == (1, draw32(1, 3))

    def test_a_buffered_half_outlives_the_unit_words(self):
        # A wave's last integer leaves a high half buffered, which is the
        # next trial's kind; that polynomial's term count leaves another,
        # which is the third trial's kind after the polynomial's unit words.
        # The third trial, a wave, takes its sine past its amplitude's word.
        words = [word(draw32(1, 3), draw32(3, 8)), unit(0.75),
                 word(draw32(1, 2), draw32(0, 3)),
                 word(draw32(1, 7), draw32(1, 3)), *map(unit, [0.25, 0.5]),
                 word(draw32(4, 8), draw32(0, 2)), unit(0.5)]
        draw, used, buffered = scripted_draw(words, 3)
        assert draw.kinds.tolist() == [COSINE, POLYNOMIAL, SINE]
        assert draw.frequency.tolist() == [4.0, 0.0, 5.0]
        assert draw.amplitude.tolist() == [0.5, 0.0, 0.0]
        assert draw.coefficients[1].tolist() == [-0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert used == len(words) and buffered == (0, draw32(0, 2))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_a_draw_across_chunks_equals_one_chunk(self, chunk):
        # Chunks of a few words split trials, unit values and the two halves
        # of a word's integers; the draw reads on into the next chunk.
        words = np.random.default_rng(1).bit_generator.random_raw(600)
        whole, used, buffered = scripted_draw(words, 40)
        assert 40 < used < 600
        split = scripted_draw(words, 40, chunk=chunk)
        assert split[1:] == (used, buffered)
        for i in range(40):
            assert split[0].name(i) == whole.name(i)
        assert _all_values(split[0], self.XS).tobytes() == _all_values(whole, self.XS).tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 36, 37])
    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_small_chunks_of_the_generator_equal_the_oracle(self, monkeypatch, chunk,
                                                            nonnegative):
        # A piecewise-linear trial takes up to 36 words, so most trials
        # cross a chunk of 36 words or fewer.
        monkeypatch.setattr(functions, "WORD_CHUNK", chunk)
        for seed in range(10):
            draw_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            draw = draw_test_functions(draw_rng, 30, nonnegative)
            for i in range(30):
                _assert_trial_is(draw, i, random_function_oracle(oracle_rng, nonnegative))
            assert draw_rng.bit_generator.state == oracle_rng.bit_generator.state


def _assert_trial_is(draw, i: int, single) -> None:
    """Trial ``i`` of ``draw`` has the name and the parameters' bits of the
    oracle's draw ``single``."""
    params = single.params
    assert draw.name(i) == single.name
    if single.kind == "poly":
        terms = int(draw.terms[i])
        assert draw.coefficients[i, :terms].tobytes() == params["coefficients"].tobytes()
        assert not draw.coefficients[i, terms:].any()
    elif single.kind == "pwl":
        xs, ys = draw.samples[i]
        assert xs.tobytes() == params["xs"].tobytes()
        assert ys.tobytes() == params["ys"].tobytes()
    else:
        assert float(draw.amplitude[i]).hex() == params["amplitude"].hex()
        assert 2.0 * np.pi * draw.frequency[i] == params["omega"]
        assert draw.offset == params["offset"]
