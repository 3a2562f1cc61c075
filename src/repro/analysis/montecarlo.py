"""Monte-Carlo latency analysis of the label stack modifier.

Table 6 gives the worst case; operators care about the distribution.
This module samples per-packet cycle costs under a model of where hits
land in the information base (uniform by default, or skewed towards
hot entries the control plane installed early) and reports latency
percentiles and the packet rates they support.

Vectorized with numpy: a million-packet sample is a handful of array
operations, following the scientific-Python guidance of profiling and
vectorizing the hot loop rather than iterating in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.device import STRATIX_EP1S40
from repro.hw.model import (
    SEARCH_HIT_BASE,
    SEARCH_PER_ENTRY,
    SWAP_TAIL_CYCLES,
)


@dataclass(frozen=True)
class LatencyDistribution:
    """Per-packet cycle statistics over a sampled workload."""

    n_entries: int
    samples: int
    mean_cycles: float
    p50_cycles: float
    p99_cycles: float
    max_cycles: int
    mean_seconds: float
    p99_seconds: float

    def supported_pps_at_p99(self) -> float:
        """Sustained packet rate if every packet took the p99 cost."""
        return 1.0 / self.p99_seconds


def sample_swap_latency(
    n_entries: int,
    samples: int = 1_000_000,
    skew: float = 0.0,
    seed: int = 0,
) -> LatencyDistribution:
    """Sample the cycle cost of information-base-driven swaps.

    Parameters
    ----------
    n_entries:
        Occupancy of the searched level.
    skew:
        0.0 = hits uniform over positions (labels equally active).
        Larger values weight *early* positions more (a Zipf-ish
        exponent) -- the realistic case when the control plane installs
        hot LSPs first or the table is sorted by activity.
    """
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if skew < 0:
        raise ValueError("skew must be >= 0")
    rng = np.random.default_rng(seed)
    positions = np.arange(n_entries, dtype=np.float64)
    if skew == 0.0:
        hit_positions = rng.integers(0, n_entries, size=samples)
    else:
        weights = 1.0 / np.power(positions + 1.0, skew)
        weights /= weights.sum()
        hit_positions = rng.choice(n_entries, size=samples, p=weights)
    cycles = (
        SEARCH_PER_ENTRY * hit_positions
        + SEARCH_HIT_BASE
        + SWAP_TAIL_CYCLES
    ).astype(np.int64)
    cycle_time = STRATIX_EP1S40.cycle_time_s
    return LatencyDistribution(
        n_entries=n_entries,
        samples=samples,
        mean_cycles=float(cycles.mean()),
        p50_cycles=float(np.percentile(cycles, 50)),
        p99_cycles=float(np.percentile(cycles, 99)),
        max_cycles=int(cycles.max()),
        mean_seconds=float(cycles.mean()) * cycle_time,
        p99_seconds=float(np.percentile(cycles, 99)) * cycle_time,
    )
