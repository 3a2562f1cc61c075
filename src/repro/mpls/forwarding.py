"""The software label-switching engine.

This is the pure-software MPLS data plane: the baseline the paper's
hardware label stack modifier accelerates.  It performs exactly the
steps the paper's Figure 9 state machine performs -- search the
information base, verify, decrement the TTL, apply push/swap/pop -- but
as straight-line Python over the ILM/FTN tables.

Elementary-operation accounting lives on the telemetry layer: when the
engine's :class:`~repro.obs.telemetry.Telemetry` (the default current
when the engine was built) is enabled, every
table lookup, entry scan, stack operation, TTL update and discard is
counted in the metrics registry (``repro_mpls_ops_total{node,op}``) and
the stack operations are additionally emitted as
:class:`~repro.obs.events.LabelOpApplied` events.  The legacy
:class:`OpCounts` tally is kept in step as a cheap per-engine view --
:mod:`repro.core.timing` still prices it into cycle estimates for the
hardware-vs-software comparison benchmarks, and existing callers of
``engine.counts`` keep working unchanged.

TTL handling follows the uniform model of RFC 3443, which is also what
the paper describes: the TTL travels with the packet, is decremented at
every router, and the packet is discarded when it would reach zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.mpls.errors import (
    LabelLookupMiss,
    NoRouteError,
    StackUnderflow,
)
from repro.mpls.label import (
    IPV4_EXPLICIT_NULL,
    IPV6_EXPLICIT_NULL,
    ROUTER_ALERT,
    LabelEntry,
    LabelOp,
)
from repro.mpls.nhlfe import NHLFE
from repro.mpls.stack import LabelStack
from repro.mpls.tables import FTN, ILM
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.obs.events import LabelOpApplied
from repro.obs.telemetry import Telemetry, get_telemetry


class Action(Enum):
    """What the node should do with the processed packet."""

    FORWARD_MPLS = "forward-mpls"  # labelled, to next_hop over out_interface
    FORWARD_IP = "forward-ip"      # unlabelled, leaving the MPLS domain
    DELIVER_LOCAL = "deliver-local"  # router alert / addressed to this node
    DISCARD = "discard"


@dataclass(repr=False)
class OpCounts:
    """Tally of elementary data-plane operations.

    .. deprecated::
        New code should read these counts from the telemetry registry
        (``repro_mpls_ops_total{node,op}``, see :mod:`repro.obs`); this
        class remains as a compatibility shim because the software cost
        model in :mod:`repro.core.timing` prices each field and the
        benchmarks consume ``engine.counts`` directly.  The engine
        keeps both views in step, so existing callers need no change.
    """

    ftn_lookups: int = 0
    ilm_lookups: int = 0
    entries_scanned: int = 0
    pushes: int = 0
    pops: int = 0
    swaps: int = 0
    ttl_updates: int = 0
    discards: int = 0

    #: Registry ``op`` label for each field (the migration mapping).
    REGISTRY_OPS = {
        "ftn_lookups": "ftn-lookup",
        "ilm_lookups": "ilm-lookup",
        "entries_scanned": "entry-scanned",
        "pushes": "push",
        "pops": "pop",
        "swaps": "swap",
        "ttl_updates": "ttl-update",
        "discards": "discard",
    }

    def merged(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            ftn_lookups=self.ftn_lookups + other.ftn_lookups,
            ilm_lookups=self.ilm_lookups + other.ilm_lookups,
            entries_scanned=self.entries_scanned + other.entries_scanned,
            pushes=self.pushes + other.pushes,
            pops=self.pops + other.pops,
            swaps=self.swaps + other.swaps,
            ttl_updates=self.ttl_updates + other.ttl_updates,
            discards=self.discards + other.discards,
        )

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.REGISTRY_OPS}

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())

    def summary(self) -> str:
        """One line, non-zero fields only -- for logs and benchmarks."""
        parts = [
            f"{self.REGISTRY_OPS[name]}={value}"
            for name, value in self.as_dict().items()
            if value
        ]
        return "OpCounts(" + (" ".join(parts) if parts else "all zero") + ")"

    __repr__ = summary

    def publish(self, telemetry: Telemetry, node: str) -> None:
        """Add this tally to the registry's ``repro_mpls_ops_total``
        (used when a run finished with telemetry enabled only at
        snapshot time)."""
        for name, value in self.as_dict().items():
            if value:
                telemetry.mpls_ops.labels(node, self.REGISTRY_OPS[name]).inc(
                    value
                )


class ForwardingDecision(NamedTuple):
    """The outcome of processing one packet at one node."""

    action: Action
    packet: Optional[Union[IPv4Packet, MPLSPacket]] = None
    next_hop: Optional[str] = None
    out_interface: Optional[str] = None
    reason: Optional[str] = None

    @property
    def forwarded(self) -> bool:
        return self.action in (Action.FORWARD_MPLS, Action.FORWARD_IP)


#: every first push goes onto this one (a stack is immutable)
_EMPTY_STACK = LabelStack()


class ForwardingEngine:
    """Software MPLS forwarding over an ILM and an FTN.

    Parameters
    ----------
    ilm, ftn:
        The node's tables.  They may be shared with a control plane
        that updates them concurrently (generation counters let the
        embedded architecture detect that).
    node_name:
        Used in discard reasons for diagnosability.
    """

    def __init__(
        self,
        ilm: Optional[ILM] = None,
        ftn: Optional[FTN] = None,
        node_name: str = "lsr",
    ) -> None:
        self.ilm = ilm if ilm is not None else ILM()
        self.ftn = ftn if ftn is not None else FTN()
        self.node_name = node_name
        self.counts = OpCounts()
        #: neighbour name -> local interface.  The owning node shares
        #: its map here, so a decision whose NHLFE names no interface is
        #: built with the local one towards its next hop.
        self.interfaces: Dict[str, str] = {}
        #: Optional list the telemetry mirror appends to while set --
        #: :meth:`measure` records one pass through this hook so a flow
        #: cache hit can replay identical registry increments and
        #: stack-op events.
        self.recorder: Optional[list] = None
        self.telemetry = get_telemetry()

    # -- telemetry mirroring ------------------------------------------------
    def _mirror(
        self, tel: Telemetry, op: str, amount: int = 1, _record: bool = True
    ) -> None:
        """One elementary operation onto the registry (enabled only)."""
        if _record and self.recorder is not None:
            self.recorder.append(("m", op, amount))
        tel.mpls_ops.labels(self.node_name, op).inc(amount)

    def _emit_stack_op(
        self,
        tel: Telemetry,
        op: str,
        label_in: Optional[int],
        label_out: Optional[int],
    ) -> None:
        if self.recorder is not None:
            self.recorder.append(("e", op, label_in, label_out))
        self._mirror(tel, op, _record=False)
        tel.events.emit(
            LabelOpApplied(
                node=self.node_name,
                op=op,
                label_in=label_in,
                label_out=label_out,
            )
        )

    def _forward(
        self,
        action: Action,
        packet: Union[IPv4Packet, MPLSPacket],
        nhlfe: Optional[NHLFE],
    ) -> ForwardingDecision:
        """The decision that sends ``packet`` the way ``nhlfe`` says
        (nowhere yet when there is none: a popped explicit NULL)."""
        if nhlfe is None:
            return ForwardingDecision(action, packet)
        out_interface = nhlfe.out_interface
        if out_interface is None and nhlfe.next_hop is not None:
            out_interface = self.interfaces.get(nhlfe.next_hop)
        return ForwardingDecision(
            action, packet, nhlfe.next_hop, out_interface
        )

    # -- ingress (LER): unlabelled in, labelled out -------------------------
    def ingress(self, packet: IPv4Packet) -> ForwardingDecision:
        """Classify an unlabelled packet and push its first label.

        The paper: "When LERs receive a packet from a layer 2 network, a
        label is then attached to that packet and sent into the MPLS
        core network."
        """
        tel = self.telemetry
        observing = tel.enabled
        self.counts.ftn_lookups += 1
        if observing:
            self._mirror(tel, "ftn-lookup")
        try:
            fec, nhlfe = self.ftn.lookup(packet)
        except NoRouteError as exc:
            self.counts.discards += 1
            if observing:
                self._mirror(tel, "discard")
            return ForwardingDecision(
                Action.DISCARD, reason=f"{self.node_name}: {exc}"
            )
        self.counts.entries_scanned += len(self.ftn)
        if observing:
            self._mirror(tel, "entry-scanned", len(self.ftn))
        if packet.ttl <= 1:
            self.counts.discards += 1
            if observing:
                self._mirror(tel, "discard")
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.node_name}: IPv4 TTL expired at ingress",
            )
        inner = packet.decremented()
        self.counts.ttl_updates += 1
        if observing:
            self._mirror(tel, "ttl-update")
        if nhlfe.op is not LabelOp.PUSH:
            # An FTN entry that does not push means the FEC is reachable
            # without labels (e.g. a directly attached network).
            return self._forward(Action.FORWARD_IP, inner, nhlfe)
        cos = nhlfe.cos if nhlfe.cos is not None else _dscp_to_cos(packet.dscp)
        entry = LabelEntry(
            label=nhlfe.out_label,  # type: ignore[arg-type]
            cos=cos,
            s=1,  # the bottom of the stack: push has no S bit to fix
            ttl=inner.ttl,
        )
        stack = _EMPTY_STACK.push(entry)
        self.counts.pushes += 1
        if observing:
            self._emit_stack_op(tel, "push", None, entry.label)
        return self._forward(
            Action.FORWARD_MPLS, MPLSPacket(stack, inner), nhlfe
        )

    # -- transit / egress: labelled in ------------------------------------
    def transit(self, packet: MPLSPacket) -> ForwardingDecision:
        """Process a labelled packet: the LSR fast path.

        Mirrors the paper's Figure 9: search the information base for
        the top label, discard on miss or TTL expiry, otherwise apply
        the stored operation.
        """
        tel = self.telemetry
        observing = tel.enabled
        try:
            top = packet.stack.top
        except StackUnderflow:
            self.counts.discards += 1
            if observing:
                self._mirror(tel, "discard")
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.node_name}: labelled packet with empty stack",
            )

        if top.label == ROUTER_ALERT:
            return ForwardingDecision(Action.DELIVER_LOCAL, packet=packet)
        if top.label in (IPV4_EXPLICIT_NULL, IPV6_EXPLICIT_NULL):
            return self._pop_and_continue(packet, top)

        self.counts.ilm_lookups += 1
        self.counts.entries_scanned += len(self.ilm)
        if observing:
            self._mirror(tel, "ilm-lookup")
            self._mirror(tel, "entry-scanned", len(self.ilm))
        try:
            nhlfe = self.ilm.lookup(top.label)
        except LabelLookupMiss:
            self.counts.discards += 1
            if observing:
                self._mirror(tel, "discard")
            return ForwardingDecision(
                Action.DISCARD,
                reason=(
                    f"{self.node_name}: no ILM entry for label {top.label}"
                ),
            )

        if top.ttl <= 1:
            self.counts.discards += 1
            if observing:
                self._mirror(tel, "discard")
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.node_name}: MPLS TTL expired",
            )
        self.counts.ttl_updates += 1
        if observing:
            self._mirror(tel, "ttl-update")

        if nhlfe.op is LabelOp.SWAP:
            self.counts.swaps += 1
            if observing:
                self._emit_stack_op(tel, "swap", top.label, nhlfe.out_label)
            # the TTL decrement and the label rewrite in one new entry
            new_top = top.rewritten(nhlfe.out_label, top.ttl - 1)
            stack = packet.stack.swap(new_top)
            return self._forward(
                Action.FORWARD_MPLS, packet.with_stack(stack), nhlfe
            )

        top = top.decremented()
        if nhlfe.op is LabelOp.PUSH:
            # Tunnel ingress inside the domain: swap semantics do not
            # apply; the existing top stays (with its decremented TTL)
            # and a new entry goes above it.  A push beyond the
            # supported depth discards, mirroring the hardware's
            # VERIFY_INFO consistency check.
            max_depth = packet.stack.max_depth
            if max_depth is not None and packet.stack.depth >= max_depth:
                self.counts.discards += 1
                if observing:
                    self._mirror(tel, "discard")
                return ForwardingDecision(
                    Action.DISCARD,
                    reason=(
                        f"{self.node_name}: push would exceed the "
                        f"{max_depth}-level stack limit"
                    ),
                )
            self.counts.pushes += 1
            if observing:
                self._emit_stack_op(tel, "push", top.label, nhlfe.out_label)
            stack = packet.stack.swap(top)
            cos = nhlfe.cos if nhlfe.cos is not None else top.cos
            stack = stack.push(
                LabelEntry(
                    label=nhlfe.out_label,  # type: ignore[arg-type]
                    cos=cos,
                    ttl=top.ttl,
                )
            )
            return self._forward(
                Action.FORWARD_MPLS, packet.with_stack(stack), nhlfe
            )

        if nhlfe.op is LabelOp.POP:
            return self._pop_and_continue(packet, top, nhlfe)

        # NOOP: forward unchanged except for the TTL update.
        stack = packet.stack.swap(top)
        return self._forward(
            Action.FORWARD_MPLS, packet.with_stack(stack), nhlfe
        )

    def _pop_and_continue(
        self,
        packet: MPLSPacket,
        top: LabelEntry,
        nhlfe: Optional[NHLFE] = None,
    ) -> ForwardingDecision:
        """Pop the top entry, propagating the TTL downward (uniform
        model): into the next entry, or into the IP header at the
        bottom of the stack."""
        tel = self.telemetry
        observing = tel.enabled
        self.counts.pops += 1
        _, rest = packet.stack.pop()
        if rest.is_empty:
            inner = packet.inner
            inner = inner.with_ttl(min(top.ttl, inner.ttl))
            self.counts.ttl_updates += 1
            if observing:
                self._emit_stack_op(tel, "pop", top.label, None)
                self._mirror(tel, "ttl-update")
            return self._forward(Action.FORWARD_IP, inner, nhlfe)
        exposed = rest.top.with_ttl(min(top.ttl, rest.top.ttl))
        rest = rest.swap(exposed)
        self.counts.ttl_updates += 1
        if observing:
            self._emit_stack_op(tel, "pop", top.label, exposed.label)
            self._mirror(tel, "ttl-update")
        return self._forward(
            Action.FORWARD_MPLS, packet.with_stack(rest), nhlfe
        )

    # -- convenience --------------------------------------------------------
    def process(
        self, packet: Union[IPv4Packet, MPLSPacket]
    ) -> ForwardingDecision:
        """Dispatch on packet kind: labelled -> transit, else ingress."""
        if isinstance(packet, MPLSPacket):
            return self.transit(packet)
        return self.ingress(packet)

    # -- what the flow cache memoizes (see repro.mpls.fastpath) ---------------
    def version(self) -> Tuple[int, int]:
        """What a decision depends on beyond the packet: the ILM and
        FTN generations."""
        return (self.ilm.generation, self.ftn.generation)

    def measure(
        self, packet: Union[IPv4Packet, MPLSPacket]
    ) -> Tuple[ForwardingDecision, tuple]:
        """One :meth:`process` pass and its deltas: the :class:`OpCounts`
        it added and the telemetry ops it mirrored (recorded only while
        telemetry is enabled)."""
        before = self.counts
        self.counts = OpCounts()
        recorder: list = []
        self.recorder = recorder
        try:
            decision = self.process(packet)
        finally:
            self.recorder = None
            delta = self.counts
            self.counts = before.merged(delta)
        return decision, (
            (
                delta.ftn_lookups, delta.ilm_lookups, delta.entries_scanned,
                delta.pushes, delta.pops, delta.swaps, delta.ttl_updates,
                delta.discards,
            ),
            tuple(recorder),
        )

    def replay(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        delta: tuple,
        times: int,
        events: bool,
    ) -> None:
        """Advance the op counts -- and the registry mirrors the pass
        recorded -- as ``times`` more passes like the measured one.

        With ``events`` the recorded LabelOpApplied events are emitted
        again, once (one packet's worth, whatever ``times``): the same
        increments and events :meth:`_mirror` / :meth:`_emit_stack_op`
        produced when the pass was measured.
        """
        (ftn, ilm, scanned, pushes, pops, swaps, ttl, discards), ops = delta
        counts = self.counts
        counts.ftn_lookups += ftn * times
        counts.ilm_lookups += ilm * times
        counts.entries_scanned += scanned * times
        counts.pushes += pushes * times
        counts.pops += pops * times
        counts.swaps += swaps * times
        counts.ttl_updates += ttl * times
        counts.discards += discards * times
        if not ops:
            return
        tel = self.telemetry
        node = self.node_name
        mpls_ops = tel.mpls_ops
        for op in ops:
            if op[0] == "m":
                mpls_ops.labels(node, op[1]).inc(op[2] * times)
            else:  # ("e", op, label_in, label_out)
                mpls_ops.labels(node, op[1]).inc(times)
                if events:
                    tel.events.emit(
                        LabelOpApplied(
                            node=node,
                            op=op[1],
                            label_in=op[2],
                            label_out=op[3],
                        )
                    )

    def reset_counts(self) -> None:
        self.counts = OpCounts()


def _dscp_to_cos(dscp: int) -> int:
    """Default DSCP -> 3-bit CoS mapping: the DSCP class selector bits.

    EF (46) maps to 5, CS-classes map to their class number -- the
    conventional mapping used when no explicit policy is configured.
    """
    return (dscp >> 3) & 0x7
