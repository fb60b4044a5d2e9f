"""Function handles: evaluation, domains, and the random catalog."""

from __future__ import annotations

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec.errors import ConfigError, DomainError
from pouspec.functions import (DOMAIN_SLACK, PIECEWISE_LINEAR, POLYNOMIAL,
                               TEST_POLYNOMIAL_WIDTH, BasisCombination, SampledFunction,
                               constant, cosine_wave, draw_test_functions, exponential,
                               grid, monomial, polynomial, random_function, sine_wave)
from pouspec.bases import make_hat_basis

from helpers import catalog_values_oracle, random_function_oracle


def test_grid_endpoints():
    xs = grid(11)
    assert xs[0] == 0.0 and xs[-1] == 1.0 and xs.size == 11


class TestEvaluation:
    def test_constant_one(self):
        assert constant(1.0)(0.37) == 1.0

    def test_sampled_linear_interpolation(self):
        f = SampledFunction([0.0, 1.0], [0.0, 1.0])
        assert f(0.25) == 0.25

    def test_catalog_sine(self):
        assert sine_wave(1.0)(0.25) == pytest.approx(1.0, abs=1e-15)

    def test_out_of_domain_raises(self):
        with pytest.raises(DomainError):
            constant(1.0)(1.5)
        with pytest.raises(DomainError):
            monomial(2).values([0.2, -0.3])

    def test_polynomial_horner(self):
        f = polynomial([1.0, -2.0, 3.0])  # 1 - 2x + 3x^2
        assert f(0.5) == pytest.approx(1.0 - 1.0 + 0.75)

    def test_exponential(self):
        assert exponential()(1.0) == pytest.approx(np.e)

    def test_cosine(self):
        assert cosine_wave(2.0)(0.5) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self):
        f = polynomial([0.3, 0.1, -0.4, 0.2])
        xs = np.linspace(0, 1, 17)
        nptest.assert_allclose(f.values(xs), [f(x) for x in xs], rtol=0, atol=0)


class TestSampledValidation:
    def test_needs_two_points(self):
        with pytest.raises(ConfigError):
            SampledFunction([0.5], [1.0])

    def test_needs_increasing_grid(self):
        with pytest.raises(ConfigError):
            SampledFunction([0.0, 0.5, 0.5], [0.0, 1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            SampledFunction([0.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("xs", [[0.0, 0.5], [0.1, 1.0], [-0.5, 1.0], [0.0, 1.5]])
    def test_grid_must_span_unit_interval(self, xs):
        with pytest.raises(ConfigError, match=r"must span \[0.0, 1.0\] exactly"):
            SampledFunction(xs, [0.0, 1.0])


class TestBasisCombination:
    def test_coefficients_retained_and_used(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        combo = BasisCombination(basis, [1.0, 2.0, 3.0])
        nptest.assert_allclose(combo.coefficients, [1.0, 2.0, 3.0])
        # Nodal basis: the combination interpolates its coefficients.
        assert combo(0.5) == 2.0
        assert combo(0.25) == pytest.approx(1.5)

    def test_count_mismatch(self):
        basis = make_hat_basis([0.0, 1.0])
        with pytest.raises(ConfigError):
            BasisCombination(basis, [1.0, 2.0, 3.0])


class TestRandomCatalog:
    def test_deterministic_for_fixed_seed(self):
        xs = np.linspace(0, 1, 50)
        a = random_function(np.random.default_rng(7)).values(xs)
        b = random_function(np.random.default_rng(7)).values(xs)
        nptest.assert_array_equal(a, b)

    def test_nonnegative_draws_are_nonnegative(self):
        rng = np.random.default_rng(123)
        xs = np.linspace(0, 1, 2001)
        for _ in range(60):
            f = random_function(rng, nonnegative=True)
            assert f.values(xs).min() >= 0.0

    def test_draws_evaluate_on_domain(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(0, 1, 101)
        for _ in range(30):
            f = random_function(rng)
            values = f.values(xs)
            assert values.shape == xs.shape
            assert np.all(np.isfinite(values))


class ScriptedGenerator:
    """Stands in for ``np.random.Generator`` with scripted draws:
    ``integers`` returns the next scripted integer, ``uniform`` maps the
    next scripted unit values onto ``[low, high)``."""

    def __init__(self, ints, units):
        self._ints = iter(ints)
        self._units = iter(units)

    def integers(self, low, high):
        return np.int64(next(self._ints))

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            return low + (high - low) * next(self._units)
        return low + (high - low) * np.array([next(self._units) for _ in range(size)])


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
            for block in draw.kind_blocks(block_size):
                rows[block] = draw.values(block, self.XS)
            single_rng = np.random.default_rng(seed)
            for i, row in enumerate(rows):
                single = random_function_oracle(single_rng, nonnegative)
                f = draw.function(i)
                assert type(f) is type(single) and f.name == single.name
                assert row.tobytes() == f.values(self.XS).tobytes(), single.name
                assert row.tobytes() == single.values(self.XS).tobytes(), single.name
                assert row.tobytes() == catalog_values_oracle(single, self.XS).tobytes()
            assert draw_rng.bit_generator.state == single_rng.bit_generator.state

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_repeated_breakpoints_keep_the_first(self, nonnegative):
        # Two piecewise-linear draws whose breakpoints repeat: a draw of
        # exactly 0.0 repeats the left end, and 0.5 is drawn twice.
        ints, units = [2, 4, 2, 3], [0.0, 0.5, 0.5, 0.25] + [0.1] * 4 + [0.3, 0.3, 0.7] + [0.2] * 4
        draw = draw_test_functions(ScriptedGenerator(ints, units), 2, nonnegative)
        oracle_rng = ScriptedGenerator(ints, units)
        for i, expected in enumerate(([0.0, 0.25, 0.5, 1.0], [0.0, 0.3, 0.7, 1.0])):
            single = random_function_oracle(oracle_rng, nonnegative)
            f = draw.function(i)
            assert f.xs.tolist() == single.xs.tolist() == expected
            assert f.ys.tobytes() == single.ys.tobytes() and f.name == single.name == "pwl(4)"
            assert draw.values(np.array([i]), self.XS).tobytes() == \
                single.values(self.XS).tobytes()

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_random_function_is_a_draw_of_one(self, nonnegative):
        rng = np.random.default_rng(3)
        oracle_rng = np.random.default_rng(3)
        for _ in range(40):
            f = random_function(rng, nonnegative)
            single = random_function_oracle(oracle_rng, nonnegative)
            assert f.name == single.name
            assert f.values(self.XS).tobytes() == single.values(self.XS).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("size", [0, 1, 3, 100])
    def test_kind_blocks_partition_the_trials(self, size):
        draw = draw_test_functions(np.random.default_rng(2), 60)
        blocks = list(draw.kind_blocks(size))
        assert sorted(np.concatenate(blocks).tolist()) == list(range(60))
        for block in blocks:
            assert 1 <= block.size <= max(1, size)
            assert np.unique(draw.kinds[block]).size == 1
            assert np.all(np.diff(block) > 0)

    def test_draws_cover_every_kind(self):
        rng = np.random.default_rng(1)
        names = {type(random_function(rng, nonnegative)).__name__
                 for nonnegative in (False, True) for _ in range(100)}
        assert names == {"Polynomial", "SineWave", "CosineWave", "SampledFunction"}
        kinds = draw_test_functions(np.random.default_rng(1), 100).kinds
        assert set(kinds.tolist()) == set(range(PIECEWISE_LINEAR + 1))

    def test_coefficients_padded_on_the_left(self):
        draw = draw_test_functions(np.random.default_rng(4), 100, nonnegative=True)
        for i in np.flatnonzero(draw.kinds == POLYNOMIAL):
            pad = TEST_POLYNOMIAL_WIDTH - draw.terms[i]
            assert not draw.coefficients[i, :pad].any()
            assert draw.coefficients[i, pad:][::-1].tobytes() == \
                draw.function(i).coefficients.tobytes()

    def test_polynomials_of_mixed_degree_in_one_block(self):
        xs = np.linspace(0.0, 1.0, 11)
        draw = draw_test_functions(np.random.default_rng(9), 200)
        rows = np.flatnonzero(draw.kinds == POLYNOMIAL)
        assert np.unique(draw.terms[rows]).size == TEST_POLYNOMIAL_WIDTH
        for row, i in zip(draw.values(rows, xs), rows):
            assert row.tobytes() == draw.function(i).values(xs).tobytes()
