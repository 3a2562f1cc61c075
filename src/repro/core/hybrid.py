"""Hardware/software partitioning comparison.

The paper's premise: "MPLS performance can be enhanced by executing
core tasks in hardware while allowing other tasks to be executed in
software."  This module quantifies the claim for the core task --
label switching -- by pricing the same per-packet work under the
hardware cycle model (Table 6) and the software cost model, across
information-base sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.device import STRATIX_EP1S40
from repro.core.timing import HardwareCycleModel, SoftwareCostModel


@dataclass(frozen=True)
class PartitionPoint:
    """One (table size) sample of the comparison."""

    n_entries: int
    hw_cycles: int
    hw_seconds: float
    sw_cycles: int
    sw_seconds: float
    sw_hashed_cycles: int
    sw_hashed_seconds: float

    @property
    def speedup_vs_linear_sw(self) -> float:
        return self.sw_seconds / self.hw_seconds

    @property
    def speedup_vs_hashed_sw(self) -> float:
        return self.sw_hashed_seconds / self.hw_seconds


@dataclass(frozen=True)
class PartitionComparison:
    """Hardware vs software label switching across table sizes."""

    points: List[PartitionPoint]
    hw_clock_hz: float
    sw_clock_hz: float

    def crossover_entries(self) -> Optional[int]:
        """Smallest table size where hashed software out-runs the
        hardware's linear search (if any in the sampled range)."""
        for point in self.points:
            if point.sw_hashed_seconds < point.hw_seconds:
                return point.n_entries
        return None


#: the information-base occupancies :func:`compare_partitions` prices
TABLE_SIZES = (1, 4, 16, 64, 256, 1024)


def compare_partitions() -> PartitionComparison:
    """Price a worst-case label swap per packet under both partitions,
    at each of :data:`TABLE_SIZES`.

    The hardware pays Table 6's ``3n + 5 (+6)`` at the FPGA clock; the
    software pays the parameterized instruction costs at the CPU clock,
    in both its linear-scan and hash-lookup variants.
    """
    hw = HardwareCycleModel()
    sw = SoftwareCostModel()
    points = []
    for n in TABLE_SIZES:
        hw_cycles = hw.update_swap_worst(n)
        sw_cycles = sw.per_packet_swap_cycles(n, hashed=False)
        sw_hashed = sw.per_packet_swap_cycles(n, hashed=True)
        points.append(
            PartitionPoint(
                n_entries=n,
                hw_cycles=hw_cycles,
                hw_seconds=hw.seconds(hw_cycles),
                sw_cycles=sw_cycles,
                sw_seconds=sw_cycles / sw.clock_hz,
                sw_hashed_cycles=sw_hashed,
                sw_hashed_seconds=sw_hashed / sw.clock_hz,
            )
        )
    return PartitionComparison(
        points=points,
        hw_clock_hz=STRATIX_EP1S40.clock_hz,
        sw_clock_hz=sw.clock_hz,
    )
