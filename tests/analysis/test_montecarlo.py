"""Tests for the Monte-Carlo latency model."""

import pytest

from repro.analysis.montecarlo import sample_swap_latency
from repro.hw.model import SEARCH_HIT_BASE, SWAP_TAIL_CYCLES


class TestSampleSwapLatency:
    def test_bounds(self):
        dist = sample_swap_latency(64, samples=50_000, seed=1)
        floor = SEARCH_HIT_BASE + SWAP_TAIL_CYCLES
        ceiling = 3 * 63 + floor
        assert floor <= dist.p50_cycles <= dist.p99_cycles
        assert dist.max_cycles <= ceiling

    def test_uniform_mean_matches_expectation(self):
        n = 100
        dist = sample_swap_latency(n, samples=200_000, seed=2)
        expected = 3 * (n - 1) / 2 + SEARCH_HIT_BASE + SWAP_TAIL_CYCLES
        assert dist.mean_cycles == pytest.approx(expected, rel=0.02)

    def test_skew_towards_early_entries_lowers_latency(self):
        uniform = sample_swap_latency(256, samples=100_000, skew=0.0, seed=3)
        skewed = sample_swap_latency(256, samples=100_000, skew=1.5, seed=3)
        assert skewed.mean_cycles < uniform.mean_cycles
        assert skewed.p99_cycles <= uniform.p99_cycles

    def test_single_entry_is_deterministic(self):
        dist = sample_swap_latency(1, samples=1000)
        assert dist.mean_cycles == dist.max_cycles == 14

    def test_deterministic_given_seed(self):
        a = sample_swap_latency(64, samples=10_000, seed=7)
        b = sample_swap_latency(64, samples=10_000, seed=7)
        assert a == b

    def test_seconds_conversion(self):
        dist = sample_swap_latency(16, samples=10_000)
        assert dist.mean_seconds == pytest.approx(
            dist.mean_cycles * 20e-9
        )
        assert dist.supported_pps_at_p99() == pytest.approx(
            1 / dist.p99_seconds
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_swap_latency(0)
        with pytest.raises(ValueError):
            sample_swap_latency(10, samples=0)
        with pytest.raises(ValueError):
            sample_swap_latency(10, skew=-1)

    def test_bigger_tables_cost_more_under_uniform_hits(self):
        small = sample_swap_latency(16, samples=20_000, skew=0.0)
        large = sample_swap_latency(64, samples=20_000, skew=0.0)
        assert large.mean_cycles > small.mean_cycles
