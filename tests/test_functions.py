"""Function handles: evaluation, domains, and the random catalog."""

from __future__ import annotations

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec.errors import ConfigError, DomainError
from pouspec.functions import (DOMAIN_SLACK, ONE, BasisCombination, SampledFunction,
                               constant, cosine_wave, exponential, grid, monomial,
                               polynomial, random_function, sine_wave, values_block)
from pouspec.bases import make_hat_basis

from helpers import catalog_values_oracle


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


class TestValuesBlock:
    #: The verification grid, scattered nodes, and both ends just outside
    #: [0, 1] but inside DOMAIN_SLACK.
    XS = np.concatenate((grid(1001), np.random.default_rng(0).uniform(size=300),
                         [-1e-13, 1.0 + 1e-13]))

    def test_points_reach_past_both_ends(self):
        assert -DOMAIN_SLACK < self.XS.min() < 0.0 and 1.0 < self.XS.max() < 1.0 + DOMAIN_SLACK

    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_rows_equal_single_draws_bit_for_bit(self, nonnegative):
        for seed in range(50):
            block_rng = np.random.default_rng(seed)
            block = [ONE] + [random_function(block_rng, nonnegative) for _ in range(40)]
            rows = values_block(block, self.XS)
            single_rng = np.random.default_rng(seed)
            for row, f in zip(rows[1:], block[1:]):
                single = random_function(single_rng, nonnegative)
                assert f.name == single.name
                assert row.tobytes() == single.values(self.XS).tobytes(), single.name
                assert row.tobytes() == catalog_values_oracle(single, self.XS).tobytes()
            assert block_rng.bit_generator.state == single_rng.bit_generator.state
            assert rows[0].tobytes() == np.ones_like(self.XS).tobytes()

    def test_draws_cover_every_kind(self):
        rng = np.random.default_rng(1)
        names = {type(random_function(rng, nonnegative)).__name__
                 for nonnegative in (False, True) for _ in range(100)}
        assert names == {"Polynomial", "SineWave", "CosineWave", "SampledFunction"}

    def test_other_functions_by_their_own_values(self):
        xs = np.linspace(0.0, 1.0, 11)
        functions = [exponential(), polynomial([1.0, 2.0]), monomial(3), exponential()]
        rows = values_block(functions, xs)
        for row, f in zip(rows, functions):
            assert row.tobytes() == f.values(xs).tobytes()
