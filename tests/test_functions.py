"""The domain grid and the drawn test functions of the lemma checks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec.errors import ConfigError, DomainError
from pouspec.functions import (COSINE, DOMAIN_SLACK, PIECEWISE_LINEAR, POLYNOMIAL, SINE,
                               TEST_POLYNOMIAL_WIDTH, _horner, dictionary,
                               draw_test_functions, grid, outside_domain, require_in_domain)

from helpers import catalog_values_oracle, drawn_values_per_block, random_function_oracle


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


def _all_values(draw, xs: np.ndarray) -> np.ndarray:
    """Every trial of ``draw`` on ``xs``, one row per trial."""
    rows = np.empty((draw.kinds.size, xs.size))
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
    """Stands in for ``np.random.Generator`` with scripted draws:
    ``integers`` returns the next scripted integer, ``uniform`` maps the
    next scripted unit values onto ``[low, high)`` and ``random`` returns
    them as ``uniform(0, 1)`` does."""

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


class TestEvaluation:
    """Scripted draws of each kind, evaluated at points with known values."""

    def test_constant_one(self):
        # A polynomial of one term, its coefficient drawn from [-1, 1].
        draw = draw_test_functions(ScriptedGenerator([0, 1], [1.0]), 1)
        assert draw.name(0) == "poly(deg 0)"
        assert _all_values(draw, grid(5)).tolist() == [[1.0] * 5]

    def test_polynomial_horner(self):
        # 1 - 2x + 3x^2, leading coefficient first; zero padding on the left
        # of a row leaves its values unchanged.
        xs = np.array([0.0, 0.5, 1.0])
        nptest.assert_allclose(_horner(np.array([[3.0, -2.0, 1.0]]), xs),
                               [[1.0, 0.75, 2.0]], rtol=0, atol=1e-15)
        padded = _horner(np.array([[0.0, 0.0, 3.0, -2.0, 1.0]]), xs)
        assert padded.tobytes() == _horner(np.array([[3.0, -2.0, 1.0]]), xs).tobytes()

    def test_catalog_sine(self):
        # Frequency 1, amplitude 1 (the top of [-1, 1]), the sine.
        draw = draw_test_functions(ScriptedGenerator([1, 1, 0], [1.0]), 1)
        assert draw.kinds[0] == SINE and draw.name(0) == "0+1*sin(2pi*1x)"
        nptest.assert_allclose(_all_values(draw, np.array([0.0, 0.25, 0.75])),
                               [[0.0, 1.0, -1.0]], rtol=0, atol=1e-15)

    def test_cosine(self):
        # Frequency 2, amplitude 1, the cosine, raised by one when nonnegative.
        draw = draw_test_functions(ScriptedGenerator([1, 2, 1], [1.0]), 1, nonnegative=True)
        assert draw.kinds[0] == COSINE and draw.name(0) == "1+1*cos(2pi*2x)"
        nptest.assert_allclose(_all_values(draw, np.array([0.0, 0.25, 0.5])),
                               [[2.0, 0.0, 2.0]], rtol=0, atol=1e-15)

    def test_sampled_linear_interpolation(self):
        # Two breakpoints 0.25 < 0.5; samples -1, 0, 1, 0 (mapped from [0, 1]
        # onto [-1, 1]) at 0, 0.25, 0.5, 1.
        draw = draw_test_functions(ScriptedGenerator([2, 2], [0.5, 0.25, 0.0, 0.5, 1.0, 0.5]), 1)
        assert draw.samples[0][0].tolist() == [0.0, 0.25, 0.5, 1.0]
        nptest.assert_allclose(_all_values(draw, np.array([0.125, 0.375, 0.75])),
                               [[-0.5, 0.5, 0.5]], rtol=0, atol=1e-15)

    def test_vectorized_matches_scalar(self):
        xs = np.random.default_rng(0).uniform(size=50)
        for nonnegative in (False, True):
            draw = draw_test_functions(np.random.default_rng(8), 100, nonnegative)
            rows = _all_values(draw, xs)
            for j, x in enumerate(xs):
                assert _all_values(draw, np.array([x]))[:, 0].tobytes() == rows[:, j].tobytes()


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
        for seed in range(50):
            draw_rng = np.random.default_rng(seed)
            draw = draw_test_functions(draw_rng, 40, nonnegative)
            rows = np.empty((40, self.XS.size))
            for block, values in draw.blocks(block_size, self.XS):
                rows[block] = values
            single_rng = np.random.default_rng(seed)
            for i, row in enumerate(rows):
                single = random_function_oracle(single_rng, nonnegative)
                assert draw.name(i) == single.name
                assert row.tobytes() == catalog_values_oracle(single, self.XS).tobytes(), \
                    single.name
            assert draw_rng.bit_generator.state == single_rng.bit_generator.state

    @pytest.mark.parametrize("block_size", [1, 7, 40])
    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_blocks_equal_the_per_block_evaluation(self, nonnegative, block_size):
        # Waves read one trig table per kind; every block has the bits of
        # evaluating its own trials, each wave block by its own trig.
        for seed in range(20):
            draw = draw_test_functions(np.random.default_rng(seed), 40, nonnegative)
            for block, values in draw.blocks(block_size, self.XS):
                assert values.tobytes() == drawn_values_per_block(draw, block, self.XS).tobytes()

    @pytest.mark.parametrize("points", [8192, 100_001])
    def test_blocks_on_large_grids_equal_the_per_block_evaluation(self, points):
        # Every point set takes the table, up to the largest check grid.
        xs = grid(points)
        for seed in range(3):
            draw = draw_test_functions(np.random.default_rng(seed), 40)
            for block, values in draw.blocks(7, xs):
                assert values.tobytes() == drawn_values_per_block(draw, block, xs).tobytes()

    def test_wave_table_holds_at_most_eight_rows_on_a_large_grid(self):
        # On 100001 points the table of a wave kind holds one row per
        # distinct frequency, at most eight, and is dropped before the next
        # kind's: one-trial blocks then hold at most ten rows at a time.
        xs = grid(100_001)
        draw = draw_test_functions(np.random.default_rng(0), 40)
        assert np.unique(draw.omega[draw.kinds == SINE]).size >= 4
        tracemalloc.start()
        try:
            for _ in draw.blocks(1, xs):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * xs.nbytes

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_repeated_breakpoints_keep_the_first(self, nonnegative):
        # Two piecewise-linear draws whose breakpoints repeat: a draw of
        # exactly 0.0 repeats the left end, and 0.5 is drawn twice.
        ints, units = [2, 4, 2, 3], [0.0, 0.5, 0.5, 0.25] + [0.1] * 4 + [0.3, 0.3, 0.7] + [0.2] * 4
        draw = draw_test_functions(ScriptedGenerator(ints, units), 2, nonnegative)
        oracle_rng = ScriptedGenerator(ints, units)
        for i, expected in enumerate(([0.0, 0.25, 0.5, 1.0], [0.0, 0.3, 0.7, 1.0])):
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
    def test_kind_blocks_partition_the_trials(self, size):
        draw = draw_test_functions(np.random.default_rng(2), 60)
        xs = grid(11)
        blocks = list(draw.blocks(size, xs))
        assert sorted(np.concatenate([block for block, _ in blocks]).tolist()) == list(range(60))
        for block, values in blocks:
            assert values.shape == (block.size, xs.size)
            assert 1 <= block.size <= max(1, size)
            assert np.unique(draw.kinds[block]).size == 1
            assert np.all(np.diff(block) > 0)

    @pytest.mark.parametrize("kinds", [(PIECEWISE_LINEAR,), (COSINE, POLYNOMIAL)])
    def test_blocks_of_chosen_kinds_are_those_of_all_kinds(self, kinds):
        draw = draw_test_functions(np.random.default_rng(2), 60)
        xs = grid(11)
        chosen = [(block, values) for block, values in draw.blocks(3, xs)
                  if draw.kinds[block[0]] in kinds]
        got = {tuple(block): values.tobytes() for block, values in draw.blocks(3, xs, kinds)}
        assert got == {tuple(block): values.tobytes() for block, values in chosen}

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
            for block, values in draw.blocks(200, self.XS):
                if draw.kinds[block[0]] == PIECEWISE_LINEAR:
                    assert not weights[block].any()
                    continue
                assert np.all(np.abs(combined[block] - values) <= bound[block, None])

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
                single = random_function_oracle(oracle_rng, nonnegative)
                params = single.params
                assert draw.name(i) == single.name
                if single.kind == "poly":
                    pad = TEST_POLYNOMIAL_WIDTH - int(draw.terms[i])
                    assert draw.coefficients[i, pad:][::-1].tobytes() == \
                        params["coefficients"].tobytes()
                    assert not draw.coefficients[i, :pad].any()
                elif single.kind == "pwl":
                    xs, ys = draw.samples[i]
                    assert xs.tobytes() == params["xs"].tobytes()
                    assert ys.tobytes() == params["ys"].tobytes()
                else:
                    assert float(draw.amplitude[i]).hex() == params["amplitude"].hex()
                    assert draw.omega[i] == params["omega"]
                    assert draw.offset == params["offset"]
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

    def test_coefficients_padded_on_the_left(self):
        rng = np.random.default_rng(4)
        draw = draw_test_functions(np.random.default_rng(4), 100, nonnegative=True)
        singles = [random_function_oracle(rng, nonnegative=True) for _ in range(100)]
        for i in np.flatnonzero(draw.kinds == POLYNOMIAL):
            pad = TEST_POLYNOMIAL_WIDTH - draw.terms[i]
            assert not draw.coefficients[i, :pad].any()
            assert draw.coefficients[i, pad:][::-1].tobytes() == \
                singles[i].params["coefficients"].tobytes()

    def test_polynomials_of_mixed_degree_in_one_block(self):
        xs = np.linspace(0.0, 1.0, 11)
        rng = np.random.default_rng(9)
        draw = draw_test_functions(np.random.default_rng(9), 200)
        singles = [random_function_oracle(rng) for _ in range(200)]
        rows = np.flatnonzero(draw.kinds == POLYNOMIAL)
        assert np.unique(draw.terms[rows]).size == TEST_POLYNOMIAL_WIDTH
        block, values = next(draw.blocks(200, xs))
        assert block.tolist() == rows.tolist()
        for row, i in zip(values, rows):
            assert row.tobytes() == singles[i](xs).tobytes()
