"""Unit and property tests for the namespaced RNG registry and samplers."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry, binomial, geometric_skip

import pytest


class TestRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_are_reproducible_across_registries(self):
        a = RngRegistry(7).stream("backoff/3")
        b = RngRegistry(7).stream("backoff/3")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_give_different_sequences(self):
        reg = RngRegistry(7)
        xs = [reg.stream("x").random() for _ in range(5)]
        ys = [reg.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_give_different_sequences(self):
        a = RngRegistry(1).stream("s")
        b = RngRegistry(2).stream("s")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_adding_new_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(3)
        s1 = reg1.stream("main")
        first = [s1.random() for _ in range(3)]
        reg2 = RngRegistry(3)
        reg2.stream("other")  # extra stream created first
        s2 = reg2.stream("main")
        assert [s2.random() for _ in range(3)] == first

    def test_streams_listing(self):
        reg = RngRegistry(1)
        reg.stream("a")
        reg.stream("b")
        assert set(reg.streams()) == {"a", "b"}

    def test_derive_seed_is_64_bit(self):
        seed = RngRegistry(123).derive_seed("anything")
        assert 0 <= seed < 2 ** 64


class TestGeometricSkip:
    def test_zero_probability_returns_zero(self, rng):
        assert geometric_skip(rng, 0.0) == 0

    def test_probability_one_rejected(self, rng):
        with pytest.raises(ValueError):
            geometric_skip(rng, 1.0)

    def test_mean_matches_geometry(self):
        rng = random.Random(5)
        p = 0.7
        n = 20_000
        mean = sum(geometric_skip(rng, p) for _ in range(n)) / n
        # E[K] = p / (1 - p)
        expected = p / (1.0 - p)
        assert abs(mean - expected) < 0.1

    @given(st.floats(min_value=0.01, max_value=0.99), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_always_non_negative(self, p, seed):
        rng = random.Random(seed)
        assert geometric_skip(rng, p) >= 0


class TestBinomial:
    def test_edge_cases(self, rng):
        assert binomial(rng, 0, 0.5) == 0
        assert binomial(rng, 10, 0.0) == 0
        assert binomial(rng, 10, 1.0) == 10

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            binomial(rng, -1, 0.5)
        with pytest.raises(ValueError):
            binomial(rng, 5, 1.5)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100)
    def test_result_within_bounds(self, n, p, seed):
        rng = random.Random(seed)
        k = binomial(rng, n, p)
        assert 0 <= k <= n

    def test_small_n_mean(self):
        rng = random.Random(11)
        n, p, reps = 20, 0.3, 20_000
        mean = sum(binomial(rng, n, p) for _ in range(reps)) / reps
        assert abs(mean - n * p) < 0.15

    def test_large_n_mean_normal_path(self):
        rng = random.Random(13)
        n, p, reps = 2000, 0.4, 2000
        mean = sum(binomial(rng, n, p) for _ in range(reps)) / reps
        expected = n * p
        tolerance = 3 * math.sqrt(n * p * (1 - p) / reps)
        assert abs(mean - expected) < max(tolerance, 2.0)

    def test_moderate_n_inversion_path(self):
        # n > 32 but variance <= 25 exercises the geometric-gap loop.
        rng = random.Random(17)
        n, p, reps = 200, 0.02, 30_000
        mean = sum(binomial(rng, n, p) for _ in range(reps)) / reps
        assert abs(mean - n * p) < 0.1

    @pytest.mark.parametrize("n, p, sample, next_draw", [
        # n <= 32: Bernoulli loop, one draw per slot.
        (32, 0.7, 19, 0.5043358647866779),
        # n > 32, variance <= 25: geometric-gap inversion.
        (500, 0.02, 9, 0.7474661602620334),
        # variance > 25: normal approximation (one gauss() call).
        (5000, 0.5, 2458, 0.3482583731976877),
    ])
    def test_golden_draws(self, n, p, sample, next_draw):
        # Pins the exact sample and how many draws it consumed: figure
        # values depend on every stream staying aligned draw for draw.
        rng = random.Random(20031)
        assert binomial(rng, n, p) == sample
        assert rng.random() == next_draw
