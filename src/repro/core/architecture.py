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

Either way the per-packet clock-cycle cost is reported, and
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
from repro.core.hwnode import stored_pair
from repro.hw.driver import ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.mpls.forwarding import _dscp_to_cos
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.stack import LabelStack
from repro.mpls.router import RouterRole


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

    def install_ingress_route(self, destination: int, label: int) -> int:
        """Convenience: packet-identifier-keyed push at level 1."""
        return self.install_route(1, destination, label, LabelOp.PUSH)

    def install_swap(self, in_label: int, out_label: int, level: int = 1) -> int:
        return self.install_route(level, in_label, out_label, LabelOp.SWAP)

    def install_pop(self, in_label: int, level: int = 1) -> int:
        return self.install_route(level, in_label, *stored_pair(LabelOp.POP, None))

    def update_route(
        self, level: int, index: int, new_label: int, op: LabelOp
    ) -> int:
        """Rewrite an existing route in place (an LSP re-signalled with
        a new downstream label).  Returns the cycles spent; raises if
        the route does not exist -- the control plane must know what it
        installed."""
        result = self.modifier.modify_pair(level, index, new_label, op)
        if not result.found:
            raise KeyError(
                f"no route for index {index} at level {level} to update"
            )
        return result.cycles

    def remove_route(self, level: int, index: int) -> int:
        """Withdraw a route (an LSP torn down).  Returns the cycles
        spent; raises if the route does not exist."""
        result = self.modifier.remove_pair(level, index)
        if not result.found:
            raise KeyError(
                f"no route for index {index} at level {level} to remove"
            )
        return result.cycles

    def read_route(self, level: int, address: int):
        """Audit the information base directly (the paper's read path)."""
        return self.modifier.read_entry(level, address)

    # -- the data path ------------------------------------------------------
    def process_frame(self, frame: Frame) -> ProcessResult:
        """Figure 6 end to end: parse, modify the stack, rebuild."""
        parsed = self.ingress.parse(frame)
        cycles = 0
        # Load the parsed stack into the hardware (bottom first so the
        # top ends up on top) -- the ingress module "delivers the label
        # stack ... to the label stack modifier".
        for entry in reversed(list(parsed.stack)):
            cycles += self.modifier.user_push(entry)
        stack_before = tuple(self.modifier.stack())
        result = self.modifier.update(
            packet_id=parsed.packet_identifier,
            ttl=parsed.inner.ttl,
            cos=_dscp_to_cos(parsed.inner.dscp),
        )
        cycles += result.cycles
        self.packets_processed += 1
        self.total_cycles += cycles
        if result.discarded:
            self.packets_discarded += 1
            return ProcessResult(
                frame=None,
                discarded=True,
                performed=None,
                cycles=cycles,
                seconds=self.device.time_for_cycles(cycles),
                stack_before=stack_before,
                stack_after=(),
            )
        new_stack = LabelStack(list(result.stack))
        # drain the hardware stack so the next packet starts clean
        for _ in range(len(result.stack)):
            _, pop_cycles = self.modifier.user_pop()
            cycles += pop_cycles
            self.total_cycles += pop_cycles
        new_ttl = None
        if new_stack.is_empty and stack_before:
            # egress LER: copy the decremented MPLS TTL back into IPv4,
            # never raising it (the node's and the engine's rule)
            new_ttl = min(max(0, stack_before[0].ttl - 1), parsed.inner.ttl)
        out_frame = self.egress.build(parsed, new_stack, new_ttl=new_ttl)
        return ProcessResult(
            frame=out_frame,
            discarded=False,
            performed=result.performed,
            cycles=cycles,
            seconds=self.device.time_for_cycles(cycles),
            stack_before=stack_before,
            stack_after=tuple(result.stack),
        )

    # -- statistics ---------------------------------------------------------
    @property
    def mean_cycles_per_packet(self) -> float:
        if not self.packets_processed:
            return 0.0
        return self.total_cycles / self.packets_processed
