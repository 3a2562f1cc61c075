"""Throughput estimation from cycle costs.

Converts per-packet clock-cycle costs into packet and bit rates at a
device clock, and derives the line rate the architecture can sustain
for a given packet size -- the practical reading of the paper's
Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.device import STRATIX_EP1S40
from repro.core.timing import HardwareCycleModel


@dataclass(frozen=True)
class ThroughputEstimate:
    """Label-switching throughput at one operating point."""

    n_entries: int
    cycles_per_packet: int
    packets_per_second: float
    packet_size_bytes: int
    bits_per_second: float

    @property
    def mbps(self) -> float:
        return self.bits_per_second / 1e6


@dataclass(frozen=True)
class LineRateFeasibility:
    """Can the modifier keep a link busy at a given operating point?"""

    cycles_per_packet: float
    packet_size_bytes: int
    link_bps: float
    modifier_pps: float
    link_pps: float

    @property
    def feasible(self) -> bool:
        return self.modifier_pps >= self.link_pps

    @property
    def utilization(self) -> float:
        """Fraction of the modifier consumed at full line rate."""
        return self.link_pps / self.modifier_pps

    @property
    def max_line_rate_bps(self) -> float:
        """The fastest link this operating point can saturate."""
        return self.modifier_pps * self.packet_size_bytes * 8


def line_rate_feasibility(
    cycles_per_packet: float,
    packet_size_bytes: int = 500,
    link_bps: float = 100e6,
) -> LineRateFeasibility:
    """Compare the modifier's packet rate against a link's.

    ``cycles_per_packet`` is typically a measured mean from a
    :class:`~repro.core.hwnode.HardwareLSRNode` run, or a Table 6
    worst case.
    """
    if cycles_per_packet <= 0:
        raise ValueError("cycles_per_packet must be positive")
    if packet_size_bytes < 1 or link_bps <= 0:
        raise ValueError("packet size and link rate must be positive")
    modifier_pps = STRATIX_EP1S40.clock_hz / cycles_per_packet
    link_pps = link_bps / (packet_size_bytes * 8)
    return LineRateFeasibility(
        cycles_per_packet=cycles_per_packet,
        packet_size_bytes=packet_size_bytes,
        link_bps=link_bps,
        modifier_pps=modifier_pps,
        link_pps=link_pps,
    )


#: the packet size :func:`estimate_throughput` converts packets to bits at
PACKET_SIZE_BYTES = 500


def estimate_throughput(
    n_entries: int,
    average_case: bool = False,
) -> ThroughputEstimate:
    """Throughput of the worst-case (or average-case) label swap, for
    :data:`PACKET_SIZE_BYTES`-byte packets.

    ``average_case`` assumes hits are uniformly distributed through the
    table, halving the expected scan length.
    """
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    hw = HardwareCycleModel()
    if average_case:
        # expected hit position is (n-1)/2
        mean_pos = (n_entries - 1) // 2
        cycles = hw.search_hit(mean_pos) + 6
    else:
        cycles = hw.update_swap_worst(n_entries)
    pps = STRATIX_EP1S40.clock_hz / cycles
    return ThroughputEstimate(
        n_entries=n_entries,
        cycles_per_packet=cycles,
        packets_per_second=pps,
        packet_size_bytes=PACKET_SIZE_BYTES,
        bits_per_second=pps * PACKET_SIZE_BYTES * 8,
    )
