"""The hop contract, and the software label-switching engine.

The module holds the forwarding rules every data plane runs, written
once: the reserved-label step (:func:`reserved_step`: Router Alert
delivered locally; an IPv4 or IPv6 Explicit NULL popped at any depth
and, per RFC 4182, what it exposes processed in the same hop; an
Implicit NULL on the wire discarded), the discard checks and their
reasons (:func:`transit_discard`, :func:`ingress_discard`), the
software-only NOOP entry (:func:`noop`), the CoS of a push
(:func:`push_cos`), the IPv4 TTL a popped-empty stack leaves
(:func:`leaving_ip`), an LER's ingress (:func:`ingress_hop`) and the
decision towards an NHLFE's next hop (:func:`forward`).  Three data
planes run them:

* :class:`ForwardingEngine`, the pure-software MPLS data plane and the
  baseline the paper's hardware label stack modifier accelerates.  It
  performs the steps the paper's Figure 9 state machine performs --
  search the information base, verify, decrement the TTL, apply
  push/swap/pop -- as straight-line Python over the ILM/FTN tables;
* :class:`~repro.core.hwnode.HardwareLSRNode`, the paper's Figure 6
  router on either modifier backend (the functional model or the RTL),
  which adds only the information-base sync, the level-1 learned pairs,
  one modifier pass for the label operation, and its cycles; a layer-2
  frame takes the same hop between its packet processing modules.

``tests/mpls/test_conformance.py`` holds every backend to the contract
with one table of rows whose expected values come from RFC 3031, 3032
and 4182.

Elementary-operation accounting is the software engine's alone and
lives on the telemetry layer: when the engine's
:class:`~repro.obs.telemetry.Telemetry` (the default current when the
engine was built) is enabled, every table lookup, entry scan, stack
operation, TTL update and discard is counted in the metrics registry
(``repro_mpls_ops_total{node,op}``) and the stack operations are
additionally emitted as :class:`~repro.obs.events.LabelOpApplied`
events.  The legacy :class:`OpCounts` tally is kept in step as a cheap
per-engine view -- :mod:`repro.core.timing` still prices it into cycle
estimates for the hardware-vs-software comparison benchmarks, and
existing callers of ``engine.counts`` keep working unchanged.  The
reserved-label step is packet processing, not a label operation: it
counts no operation (a discard it makes counts as one).

TTL handling follows the uniform model of RFC 3443, which is also what
the paper describes: the TTL travels with the packet, is decremented at
every router, and the packet is discarded when it would reach zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.mpls.errors import StackUnderflow
from repro.mpls.label import (
    IMPLICIT_NULL,
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


@dataclass
class OpCounts:
    """Tally of elementary data-plane operations: each engine's
    ``counts``.

    It is the flow cache's unit of work: :meth:`ForwardingEngine.measure`
    returns one pass's tally (an ``OpCounts`` of its own, split off with
    :meth:`merged`) and :meth:`ForwardingEngine.replay` adds it again for
    each packet a cached decision serves.  The software cost model in
    :mod:`repro.core.timing` prices each field, and the telemetry
    registry's ``repro_mpls_ops_total{node,op}`` mirrors the same
    increments when telemetry is on.
    """

    ftn_lookups: int = 0
    ilm_lookups: int = 0
    entries_scanned: int = 0
    pushes: int = 0
    pops: int = 0
    swaps: int = 0
    ttl_updates: int = 0
    discards: int = 0

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


# -- the hop contract ---------------------------------------------------------
#: Discard reasons, the text after ``"<node>: "`` (the miss, no-FEC and
#: stack-limit reasons name a value: transit_discard / ingress_discard).
EMPTY_STACK = "labelled packet with empty stack"
MPLS_TTL_EXPIRED = "MPLS TTL expired"
IPV4_TTL_EXPIRED = "IPv4 TTL expired at ingress"
IMPLICIT_NULL_ON_WIRE = "Implicit NULL label on the wire"


def discard(node: str, reason: str) -> ForwardingDecision:
    """A discard, named by the node that made it."""
    return ForwardingDecision(Action.DISCARD, reason=f"{node}: {reason}")


def forward(
    action: Action,
    packet: Union[IPv4Packet, MPLSPacket],
    nhlfe: NHLFE,
    interfaces: Dict[str, str],
) -> ForwardingDecision:
    """The decision that sends ``packet`` the way ``nhlfe`` says; an
    NHLFE naming no interface takes the local one towards its next hop
    (``interfaces`` maps neighbour -> local interface)."""
    out_interface = nhlfe.out_interface
    if out_interface is None and nhlfe.next_hop is not None:
        out_interface = interfaces.get(nhlfe.next_hop)
    return ForwardingDecision(action, packet, nhlfe.next_hop, out_interface)


def dscp_to_cos(dscp: int) -> int:
    """Default DSCP -> 3-bit CoS mapping: the DSCP class selector bits.

    EF (46) maps to 5, CS-classes map to their class number -- the
    conventional mapping used when no explicit policy is configured.
    """
    return (dscp >> 3) & 0x7


def cos_of_packet(packet: Union[IPv4Packet, MPLSPacket]) -> int:
    """The CoS a queueing element should use for ``packet``.

    Labelled packets carry it in the top stack entry; unlabelled
    packets derive it from the DSCP class-selector bits.
    """
    if isinstance(packet, MPLSPacket):
        entries = packet.stack.entries
        if entries:
            return entries[0].cos
        return dscp_to_cos(packet.inner.dscp)
    return dscp_to_cos(packet.dscp)


def push_cos(nhlfe: NHLFE, cos: int) -> int:
    """The CoS of a pushed entry: the NHLFE's when it names one, else
    ``cos`` (the entry below it, or the DSCP's class at ingress)."""
    return cos if nhlfe.cos is None else nhlfe.cos


def leaving_ip(inner: IPv4Packet, ttl: int) -> IPv4Packet:
    """The IPv4 packet a popped-empty stack leaves: the outgoing MPLS
    TTL copied into its header, never raising it."""
    return inner.with_ttl(min(ttl, inner.ttl))


def noop(packet: MPLSPacket, top: LabelEntry) -> MPLSPacket:
    """A NOOP entry's hop (software only: the information base stores
    no NOOP pair): the packet unchanged but for the top's TTL."""
    return packet.with_stack(packet.stack.swap(top.decremented()))


def reserved_step(
    node: str, packet: MPLSPacket
) -> Union[ForwardingDecision, MPLSPacket]:
    """The reserved labels 0-3 on top of the stack (RFC 3032 section
    2.1), before any lookup.  Returns the hop's decision, or the packet
    whose top label (4 or above) the lookup takes.

    A Router Alert is delivered locally, as received.  An IPv4 or IPv6
    Explicit NULL is popped wherever it sits (RFC 4182), its TTL carried
    into the entry it exposes, which this same hop processes; popped
    empty, the packet leaves as IPv4 (and expires at a TTL of 1 or
    less).  An Implicit NULL is only ever signalled: on the wire it is
    discarded."""
    stack = packet.stack
    top = stack.top
    while top.label <= IMPLICIT_NULL:
        if top.label == ROUTER_ALERT:
            return ForwardingDecision(Action.DELIVER_LOCAL, packet=packet)
        if top.label == IMPLICIT_NULL:
            return discard(node, IMPLICIT_NULL_ON_WIRE)
        _, stack = stack.pop()
        if stack.is_empty:
            if top.ttl <= 1:
                return discard(node, MPLS_TTL_EXPIRED)
            return ForwardingDecision(
                Action.FORWARD_IP, leaving_ip(packet.inner, top.ttl - 1)
            )
        exposed = stack.top
        top = exposed.with_ttl(min(top.ttl, exposed.ttl))
        stack = stack.swap(top)
    return packet.with_stack(stack)


def transit_discard(
    stack: LabelStack, top: LabelEntry, nhlfe: Optional[NHLFE]
) -> Optional[str]:
    """Why a labelled hop on ``top`` (the ILM's ``nhlfe`` for it, None
    on a miss) discards, or None: no ILM entry, then an expired TTL,
    then a push past the stack's depth limit (the hardware's
    VERIFY_INFO consistency check)."""
    if nhlfe is None:
        return f"no ILM entry for label {top.label}"
    if top.ttl <= 1:
        return MPLS_TTL_EXPIRED
    if nhlfe.op is LabelOp.PUSH:
        limit = stack.max_depth
        if limit is not None and stack.depth >= limit:
            return f"push would exceed the {limit}-level stack limit"
    return None


def ingress_discard(
    packet: IPv4Packet, nhlfe: Optional[NHLFE]
) -> Optional[str]:
    """Why an unlabelled packet (the FTN's ``nhlfe`` for it, None on a
    miss) is discarded at ingress, or None."""
    if nhlfe is None:
        return f"no FEC matches packet to {packet.dst}"
    if packet.ttl <= 1:
        return IPV4_TTL_EXPIRED
    return None


def ingress_hop(
    node: str,
    packet: IPv4Packet,
    nhlfe: Optional[NHLFE],
    interfaces: Dict[str, str],
) -> ForwardingDecision:
    """An LER's software ingress: classified to ``nhlfe``, the packet
    is discarded, leaves unlabelled (an FTN entry that does not push:
    the FEC is reachable without labels), or gets its first label.

    The paper: "When LERs receive a packet from a layer 2 network, a
    label is then attached to that packet and sent into the MPLS core
    network."
    """
    reason = ingress_discard(packet, nhlfe)
    if reason is not None:
        return discard(node, reason)
    inner = packet.decremented()
    if nhlfe.op is not LabelOp.PUSH:
        return forward(Action.FORWARD_IP, inner, nhlfe, interfaces)
    entry = LabelEntry(
        label=nhlfe.out_label,  # type: ignore[arg-type]
        cos=push_cos(nhlfe, dscp_to_cos(packet.dscp)),
        s=1,  # the bottom of the stack: push has no S bit to fix
        ttl=inner.ttl,
    )
    return forward(
        Action.FORWARD_MPLS,
        MPLSPacket(_EMPTY_STACK.push(entry), inner),
        nhlfe,
        interfaces,
    )


class ForwardingEngine:
    """Software MPLS forwarding over an ILM and an FTN.

    Parameters
    ----------
    ilm, ftn:
        The node's tables.  They may be shared with a control plane
        that updates them concurrently (generation counters let the
        embedded architecture detect that).
    node_name:
        The node's name (``name``), used in discard reasons.
    """

    def __init__(
        self,
        ilm: Optional[ILM] = None,
        ftn: Optional[FTN] = None,
        node_name: str = "lsr",
    ) -> None:
        self.ilm = ilm if ilm is not None else ILM()
        self.ftn = ftn if ftn is not None else FTN()
        #: what discard reasons and telemetry name the node by (a
        #: hardware node, its own engine, has the same attribute)
        self.name = node_name
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
        tel.mpls_ops.labels(self.name, op).inc(amount)

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
                node=self.name,
                op=op,
                label_in=label_in,
                label_out=label_out,
            )
        )

    def _counted(
        self, observing: bool, decision: ForwardingDecision
    ) -> ForwardingDecision:
        """``decision``, a discard counted as one operation."""
        if decision.action is Action.DISCARD:
            self.counts.discards += 1
            if observing:
                self._mirror(self.telemetry, "discard")
        return decision

    # -- ingress (LER): unlabelled in, labelled out -------------------------
    def ingress(self, packet: IPv4Packet) -> ForwardingDecision:
        """Classify an unlabelled packet and push its first label
        (:func:`ingress_hop`)."""
        tel = self.telemetry
        observing = tel.enabled
        counts = self.counts
        counts.ftn_lookups += 1
        if observing:
            self._mirror(tel, "ftn-lookup")
        pair = self.ftn.get(packet)
        nhlfe = None
        if pair is not None:
            nhlfe = pair[1]
            counts.entries_scanned += len(self.ftn)
            if observing:
                self._mirror(tel, "entry-scanned", len(self.ftn))
        decision = ingress_hop(self.name, packet, nhlfe, self.interfaces)
        if decision.action is Action.DISCARD:
            return self._counted(observing, decision)
        counts.ttl_updates += 1
        if observing:
            self._mirror(tel, "ttl-update")
        if decision.action is Action.FORWARD_MPLS:
            counts.pushes += 1
            if observing:
                self._emit_stack_op(tel, "push", None, nhlfe.out_label)
        return decision

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
            return self._counted(observing, discard(self.name, EMPTY_STACK))
        if top.label <= IMPLICIT_NULL:
            step = reserved_step(self.name, packet)
            if isinstance(step, ForwardingDecision):
                return self._counted(observing, step)
            packet, top = step, step.stack.top

        counts = self.counts
        counts.ilm_lookups += 1
        counts.entries_scanned += len(self.ilm)
        if observing:
            self._mirror(tel, "ilm-lookup")
            self._mirror(tel, "entry-scanned", len(self.ilm))
        nhlfe = self.ilm.get(top.label)
        reason = transit_discard(packet.stack, top, nhlfe)
        if reason is not None:
            return self._counted(observing, discard(self.name, reason))
        counts.ttl_updates += 1
        if observing:
            self._mirror(tel, "ttl-update")

        op = nhlfe.op
        action = Action.FORWARD_MPLS
        if op is LabelOp.SWAP:
            counts.swaps += 1
            if observing:
                self._emit_stack_op(tel, "swap", top.label, nhlfe.out_label)
            # the TTL decrement and the label rewrite in one new entry
            new_top = top.rewritten(nhlfe.out_label, top.ttl - 1)
            out = packet.with_stack(packet.stack.swap(new_top))
        elif op is LabelOp.NOOP:
            out = noop(packet, top)
        elif op is LabelOp.PUSH:
            # Tunnel ingress inside the domain: swap semantics do not
            # apply; the existing top stays (with its decremented TTL)
            # and a new entry goes above it.
            top = top.decremented()
            counts.pushes += 1
            if observing:
                self._emit_stack_op(tel, "push", top.label, nhlfe.out_label)
            pushed = LabelEntry(
                label=nhlfe.out_label,  # type: ignore[arg-type]
                cos=push_cos(nhlfe, top.cos),
                ttl=top.ttl,
            )
            out = packet.with_stack(packet.stack.swap(top).push(pushed))
        else:
            # POP, the TTL propagating downward (uniform model): into
            # the next entry, or into the IP header at the bottom
            top = top.decremented()
            counts.pops += 1
            counts.ttl_updates += 1
            _, rest = packet.stack.pop()
            if rest.is_empty:
                action, label_out = Action.FORWARD_IP, None
                out = leaving_ip(packet.inner, top.ttl)
            else:
                exposed = rest.top.with_ttl(min(top.ttl, rest.top.ttl))
                label_out = exposed.label
                out = packet.with_stack(rest.swap(exposed))
            if observing:
                self._emit_stack_op(tel, "pop", top.label, label_out)
                self._mirror(tel, "ttl-update")
        return forward(action, out, nhlfe, self.interfaces)

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
        node = self.name
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
