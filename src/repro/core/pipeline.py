"""Pipelined-architecture throughput model.

The paper's Figure 6 is naturally a three-stage pipeline -- ingress
packet processing, the label stack modifier, egress packet processing
-- and its conclusion claims the architecture "can be implemented to
achieve optimal performance".  This module quantifies that future-work
claim analytically:

* **sequential** operation (one packet owns all three stages, as the
  paper's control flow implies): per-packet latency is the *sum* of the
  stage costs and throughput its reciprocal;
* **pipelined** operation (each stage works on a different packet):
  latency is unchanged but throughput is set by the *slowest stage* --
  for this architecture, the label stack modifier's search.

The model also reports the speedup ceiling (sum / max of stage costs)
and the line rates both variants can saturate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.device import STRATIX_EP1S40
from repro.core.timing import HardwareCycleModel
from repro.obs.telemetry import get_telemetry

#: Per-stage costs (cycles) for the packet processing modules:
#: parsing/rebuilding a frame is a streaming operation a hardware block
#: pipelines over the bytes; a handful of cycles of fixed work per
#: packet is representative.
INGRESS_PP_CYCLES = 4
EGRESS_PP_CYCLES = 4


@dataclass(frozen=True)
class PipelinePoint:
    """Throughput of both operating modes at one table size."""

    n_entries: int
    stage_cycles: Tuple[int, int, int]  # ingress, modifier, egress
    sequential_cycles_per_packet: int
    pipelined_cycles_per_packet: int

    @property
    def speedup(self) -> float:
        return (
            self.sequential_cycles_per_packet
            / self.pipelined_cycles_per_packet
        )


def pipeline_point(n_entries: int) -> PipelinePoint:
    """Stage costs for a worst-case transit swap at one table size."""
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    hw = HardwareCycleModel()
    modifier = hw.update_swap_worst(n_entries)
    stages = (INGRESS_PP_CYCLES, modifier, EGRESS_PP_CYCLES)
    point = PipelinePoint(
        n_entries=n_entries,
        stage_cycles=stages,
        sequential_cycles_per_packet=sum(stages),
        pipelined_cycles_per_packet=max(stages),
    )
    tel = get_telemetry()
    if tel.enabled:
        tel.model_evals.labels("pipeline").inc()
        tel.pipeline_speedup.labels(str(n_entries)).set(point.speedup)
    return point


@dataclass(frozen=True)
class PipelineComparison:
    points: List[PipelinePoint]

    def throughput_pps(self, point: PipelinePoint, pipelined: bool) -> float:
        cycles = (
            point.pipelined_cycles_per_packet
            if pipelined
            else point.sequential_cycles_per_packet
        )
        return STRATIX_EP1S40.clock_hz / cycles


def compare_pipeline(table_sizes=(1, 16, 64, 256, 1024)) -> PipelineComparison:
    """Sequential vs pipelined operation across table sizes.

    The punchline the model makes precise: pipelining helps most when
    the stages are balanced (small tables), but once the linear search
    dominates, the modifier stage *is* the pipeline and the speedup
    collapses towards 1 -- making the search, again, the component to
    fix first.
    """
    return PipelineComparison(
        points=[pipeline_point(n) for n in table_sizes],
    )
