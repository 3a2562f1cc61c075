"""EmbeddedMPLS: the full architecture of the paper's Figure 6.

``Packet In -> INGRESS PACKET PROCESSING -> LABEL STACK MODIFIER ->
EGRESS PACKET PROCESSING -> Packet Out``, with "routing functionality"
(the software control plane) programming the information base through
the same write path the hardware exposes.

The label stack modifier backend is selectable:

* ``backend="rtl"`` -- the cycle-accurate RTL
  (:class:`~repro.hw.driver.ModifierDriver`); every packet is processed
  by simulated clock edges.  Slow, exact.
* ``backend="model"`` -- the functional model
  (:class:`~repro.hw.model.FunctionalModifier`), equivalent by the
  property tests in ``tests/hw/test_rtl_vs_model.py``, with cycle
  counts from the Table 6 formulas.  Fast enough for network-scale
  workloads.

Either way a frame takes the backend's one packet pass
(:meth:`~repro.hw.model.ModifierBackend.forward`, the same pass a
:class:`~repro.core.hwnode.HardwareLSRNode` takes), the per-packet
clock-cycle cost is reported, and
:class:`~repro.core.device.FPGADevice` converts it to time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.device import FPGADevice, STRATIX_EP1S40
from repro.core.packet_processing import (
    EgressPacketProcessor,
    Frame,
    IngressPacketProcessor,
)
from repro.hw.driver import ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.mpls.forwarding import (
    Action,
    dscp_to_cos,
    leaving_ip,
    reserved_step,
)
from repro.mpls.label import IMPLICIT_NULL, LabelEntry, LabelOp
from repro.mpls.stack import LabelStack
from repro.mpls.router import RouterRole
from repro.net.packet import MPLSPacket


@dataclass(frozen=True)
class ProcessResult:
    """Outcome of pushing one frame through the architecture."""

    frame: Optional[Frame]          # None when the packet was discarded
    discarded: bool
    performed: Optional[LabelOp]
    cycles: int
    seconds: float
    stack_before: Tuple[LabelEntry, ...]
    stack_after: Tuple[LabelEntry, ...]


class EmbeddedMPLS:
    """The hardware/software MPLS router of Figure 6.

    Parameters
    ----------
    role:
        LER or LSR; programs the hardware ``rtrtype`` pin.
    backend:
        ``"rtl"`` or ``"model"`` (see module docstring).
    device:
        Clock/memory model for cycle -> time conversion.
    """

    def __init__(
        self,
        role: RouterRole = RouterRole.LER,
        backend: str = "model",
        device: FPGADevice = STRATIX_EP1S40,
        ib_depth: int = 1024,
    ) -> None:
        if backend == "rtl":
            self.modifier: Union[ModifierDriver, FunctionalModifier] = (
                ModifierDriver(ib_depth=ib_depth)
            )
        elif backend == "model":
            self.modifier = FunctionalModifier(ib_depth=ib_depth)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.role = role
        self.device = device
        self.ingress = IngressPacketProcessor()
        self.egress = EgressPacketProcessor()
        self.modifier.reset()
        self.modifier.set_router_type(role is RouterRole.LSR)
        self.packets_processed = 0
        self.packets_discarded = 0
        self.total_cycles = 0

    # -- routing functionality's interface (software side) -----------------
    def install_route(
        self, level: int, index: int, new_label: int, op: LabelOp
    ) -> int:
        """Program one label pair; the software control plane's write
        path into the hardware information base."""
        return self.modifier.write_pair(level, index, new_label, op)

    def install_swap(self, in_label: int, out_label: int, level: int = 1) -> int:
        return self.install_route(level, in_label, out_label, LabelOp.SWAP)

    # -- the data path ------------------------------------------------------
    def process_frame(self, frame: Frame) -> ProcessResult:
        """Figure 6 end to end: parse, the reserved-label step, modify
        the stack, rebuild.

        The ingress module "delivers the label stack ... to the label
        stack modifier", which drains it again for the next packet --
        after the hop contract's reserved-label step: an Explicit NULL
        is popped here and what it exposes goes to the modifier; a
        Router Alert is dropped, as the device has no local port."""
        parsed = self.ingress.parse(frame)
        stack_before = tuple(parsed.stack)
        packet = MPLSPacket(parsed.stack, parsed.inner)
        if stack_before and stack_before[0].label <= IMPLICIT_NULL:
            packet = reserved_step("device", packet)
        if isinstance(packet, MPLSPacket):
            result, cycles = self.modifier.forward(
                packet.stack,
                packet_id=parsed.packet_identifier,
                ttl=parsed.inner.ttl,
                cos=dscp_to_cos(parsed.inner.dscp),
            )
            performed, stack_after = result.performed, result.stack
            if result.discarded:
                out = None
            elif stack_after:
                out = packet.with_stack(LabelStack(stack_after))
            else:
                # egress LER: the MPLS TTL copied back into IPv4
                out = leaving_ip(parsed.inner, packet.stack.top.ttl - 1)
        else:
            # popped empty, or dropped
            performed, stack_after, cycles = LabelOp.POP, (), 0
            out = packet.packet if packet.action is Action.FORWARD_IP else None
        self.packets_processed += 1
        self.total_cycles += cycles
        if out is None:
            self.packets_discarded += 1
            frame = None
        elif isinstance(out, MPLSPacket):
            frame = self.egress.build(parsed, out.stack)
        else:
            frame = self.egress.build(parsed, LabelStack(), new_ttl=out.ttl)
        return ProcessResult(
            frame=frame,
            discarded=out is None,
            performed=None if out is None else performed,
            cycles=cycles,
            seconds=self.device.time_for_cycles(cycles),
            stack_before=stack_before,
            stack_after=() if out is None else tuple(stack_after),
        )
