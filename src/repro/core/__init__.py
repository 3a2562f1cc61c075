"""The paper's primary contribution, assembled.

* :mod:`repro.core.device` -- the FPGA device model (Altera Stratix
  EP1S40F780C5 at 50 MHz) with cycle -> time conversion and a memory
  budget check,
* :mod:`repro.core.timing` -- the analytic cycle model of Table 6 and
  the software-forwarding cost model used as the baseline,
* :mod:`repro.core.packet_processing` -- the ingress and egress packet
  processing modules of Figure 6,
* :mod:`repro.core.hwnode` -- :class:`HardwareLSRNode`, the paper's
  router: ingress packet processing -> label stack modifier (the
  functional model or the RTL) -> egress packet processing, with the
  software routing plane programming the information base; the
  network's hardware node,
* :mod:`repro.core.architecture` -- :class:`EmbeddedMPLS`, a
  standalone node with its defaults,
* :mod:`repro.core.hybrid` -- hardware/software partitioning
  comparison (the paper's motivating claim, quantified).
"""

from repro.core.device import FPGADevice, STRATIX_EP1S40
from repro.core.timing import (
    HardwareCycleModel,
    SoftwareCostModel,
    WorstCaseBreakdown,
    worst_case_scenario,
)
from repro.core.packet_processing import (
    EgressPacketProcessor,
    IngressPacketProcessor,
    PacketProcessingError,
    ParsedPacket,
)
from repro.core.hwnode import HardwareLSRNode, ProcessResult
from repro.core.architecture import EmbeddedMPLS
from repro.core.hybrid import PartitionComparison, compare_partitions
from repro.core.pipeline import (
    PipelineComparison,
    PipelinePoint,
    compare_pipeline,
    pipeline_point,
)

__all__ = [
    "FPGADevice",
    "STRATIX_EP1S40",
    "HardwareCycleModel",
    "SoftwareCostModel",
    "WorstCaseBreakdown",
    "worst_case_scenario",
    "IngressPacketProcessor",
    "EgressPacketProcessor",
    "ParsedPacket",
    "PacketProcessingError",
    "EmbeddedMPLS",
    "ProcessResult",
    "HardwareLSRNode",
    "PartitionComparison",
    "compare_partitions",
    "PipelineComparison",
    "PipelinePoint",
    "compare_pipeline",
    "pipeline_point",
]
