"""Unit tests for the jitter model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.jitter import Jitter
from repro.util.errors import SimulationError


class TestJitter:
    def test_zero_magnitude_is_exact(self):
        jitter = Jitter(magnitude=0.0, seed=1)
        assert all(jitter.apply(1.0) == 1.0 for _ in range(10))
        assert jitter.apply(3.5) == 3.5

    def test_same_seed_same_sequence(self):
        a = Jitter(magnitude=0.05, seed=42)
        b = Jitter(magnitude=0.05, seed=42)
        assert [a.apply(1.0) for _ in range(20)] == [b.apply(1.0) for _ in range(20)]

    def test_different_seeds_differ(self):
        a = Jitter(magnitude=0.05, seed=1)
        b = Jitter(magnitude=0.05, seed=2)
        assert [a.apply(1.0) for _ in range(5)] != [b.apply(1.0) for _ in range(5)]

    def test_magnitude_validation(self):
        with pytest.raises(SimulationError):
            Jitter(magnitude=-0.1)
        with pytest.raises(SimulationError):
            Jitter(magnitude=1.0)

    @given(
        magnitude=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(0, 1000),
        cost=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_scaled_costs_stay_within_bounds(self, magnitude, seed, cost):
        jitter = Jitter(magnitude=magnitude, seed=seed)
        for _ in range(5):
            scaled = jitter.apply(cost)
            assert cost * (1 - magnitude) <= scaled <= cost * (1 + magnitude)


class TestOneCallApplyIsUniform:
    """``apply`` is ``Random.uniform`` written out: draw by draw, the factor
    it applies is the one ``uniform(-m, m)`` gives, bit for bit."""

    @given(
        magnitude=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        seed=st.integers(0, 2**32),
        costs=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True), min_size=1,
            max_size=20,
        ),
    )
    def test_every_draw_equals_random_uniform(self, magnitude, seed, costs):
        import random

        jitter = Jitter(magnitude=magnitude, seed=seed)
        reference = random.Random(seed)
        for cost in costs:
            if magnitude == 0.0:
                assert jitter.apply(cost) == cost
            else:
                expected = cost * (1.0 + reference.uniform(-magnitude, magnitude))
                assert jitter.apply(cost).hex() == expected.hex()
        # Magnitude 0 consumed no draw: the generator is where it started.
        if magnitude == 0.0:
            assert jitter._rng.getstate() == random.Random(seed).getstate()
