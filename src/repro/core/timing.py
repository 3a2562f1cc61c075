"""Analytic cycle models: Table 6 and the software baseline.

:class:`HardwareCycleModel` reproduces Table 6's per-operation costs in
closed form, including the worst-case composite the paper computes
(reset + three pushes + 1024 pair writes + a full-scan swap = 6167
cycles, about 0.1233 ms at 50 MHz).  The RTL benchmarks assert the
simulated hardware agrees with this model cycle-for-cycle.

:class:`SoftwareCostModel` prices the same elementary operations for a
software MPLS implementation on an embedded processor.  The point is
not the absolute numbers (they are parameterized) but the *structure*:
software pays instruction overhead per packet and per table entry that
the dedicated datapath does not, which is the paper's motivating claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.device import STRATIX_EP1S40
from repro.hw.info_base import LEVEL_DEPTH
from repro.hw.model import (
    RESET_CYCLES,
    SEARCH_OVERHEAD,
    SEARCH_PER_ENTRY,
    SWAP_TAIL_CYCLES,
    USER_POP_CYCLES,
    USER_PUSH_CYCLES,
    WRITE_PAIR_CYCLES,
    search_cycles,
)
from repro.mpls.forwarding import OpCounts
from repro.obs.telemetry import get_telemetry


class HardwareCycleModel:
    """Closed-form Table 6 costs on the paper's device."""

    # -- per-operation costs (cycles) ------------------------------------
    reset = RESET_CYCLES
    user_push = USER_PUSH_CYCLES
    user_pop = USER_POP_CYCLES
    write_pair = WRITE_PAIR_CYCLES

    @staticmethod
    def search_hit(position: int) -> int:
        """A hit at 0-based ``position``: 3k + 8."""
        return search_cycles(position + 1, position)

    @staticmethod
    def update_swap_worst(n_entries: int) -> int:
        """Full update performing a swap, worst-case search."""
        return search_cycles(n_entries, None) + SWAP_TAIL_CYCLES

    # -- time conversion -------------------------------------------------
    def seconds(self, cycles: int) -> float:
        return STRATIX_EP1S40.time_for_cycles(cycles)


@dataclass(frozen=True)
class WorstCaseBreakdown:
    """The paper's Section 4 composite scenario, itemized."""

    reset: int
    pushes: int
    writes: int
    search: int
    swap: int
    total: int
    seconds: float

    def as_rows(self):
        return [
            ("reset", self.reset),
            ("push 3 stack entries", self.pushes),
            ("write 1024 label pairs", self.writes),
            ("search (n=1024, worst case)", self.search),
            ("swap from the information base", self.swap),
            ("total", self.total),
        ]


def worst_case_scenario() -> WorstCaseBreakdown:
    """Reproduce the paper's worst-case arithmetic.

    "the worst case number of cycles required to reset the
    architecture, push three stack entries, fill an entire level with
    1024 label pairs and perform a swap would be 6167 cycles."
    """
    reset = RESET_CYCLES
    pushes = 3 * USER_PUSH_CYCLES
    writes = LEVEL_DEPTH * WRITE_PAIR_CYCLES
    search = SEARCH_PER_ENTRY * LEVEL_DEPTH + SEARCH_OVERHEAD
    swap = SWAP_TAIL_CYCLES
    total = reset + pushes + writes + search + swap
    tel = get_telemetry()
    if tel.enabled:
        tel.model_evals.labels("worst-case").inc()
    return WorstCaseBreakdown(
        reset=reset,
        pushes=pushes,
        writes=writes,
        search=search,
        swap=swap,
        total=total,
        seconds=STRATIX_EP1S40.time_for_cycles(total),
    )


@dataclass
class SoftwareCostModel:
    """Cycle costs of a software MPLS data plane on an embedded CPU.

    Defaults model a simple embedded RISC core running a C forwarding
    loop: tens of cycles of fixed overhead per packet (interrupt/DMA,
    header fetch, dispatch) and a handful of instructions per table
    entry scanned.  All knobs are explicit so the benchmarks can sweep
    them; the hardware-vs-software *shape* is robust across any sane
    setting.
    """

    per_packet_overhead: int = 120
    per_entry_scan: int = 12
    per_hash_lookup: int = 60
    per_stack_op: int = 25
    per_ttl_update: int = 10
    per_discard: int = 40
    clock_hz: float = 200e6

    def cycles_for_counts(self, counts: OpCounts, hashed: bool = False) -> int:
        """Price an :class:`OpCounts` tally.

        ``hashed`` switches the table lookups from linear scans to a
        hash-based lookup (the common software optimization; used by
        the search-scaling ablation bench).
        """
        tel = get_telemetry()
        if tel.enabled:
            tel.model_evals.labels("software-cost").inc()
        lookups = counts.ftn_lookups + counts.ilm_lookups
        if hashed:
            lookup_cost = lookups * self.per_hash_lookup
        else:
            lookup_cost = counts.entries_scanned * self.per_entry_scan
        stack_ops = counts.pushes + counts.pops + counts.swaps
        # each lookup corresponds to one packet entering the forwarding
        # loop, which pays the fixed per-packet overhead once
        return (
            lookups * self.per_packet_overhead
            + lookup_cost
            + stack_ops * self.per_stack_op
            + counts.ttl_updates * self.per_ttl_update
            + counts.discards * self.per_discard
        )

    def per_packet_swap_cycles(self, n_entries: int, hashed: bool = False) -> int:
        """One transit packet: lookup + TTL + swap."""
        counts = OpCounts(
            ilm_lookups=1,
            entries_scanned=0 if hashed else n_entries,
            swaps=1,
            ttl_updates=1,
        )
        return self.cycles_for_counts(counts, hashed=hashed)
