"""LER and LSR node behaviour (paper section 2).

An :class:`LSRNode` is one MPLS router: a set of named interfaces, a
forwarding engine over its ILM/FTN tables, and per-node statistics.  Its
role -- Label Edge Router or core Label Switch Router -- is a
declaration used by the control plane and by validity checks (an LER may
originate and terminate LSPs; a pure LSR only transits), matching the
paper's ``rtrtype`` signal ("Logic low is interpreted as LER while logic
high is interpreted as LSR").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Union

from repro.mpls.forwarding import (
    Action,
    ForwardingDecision,
    ForwardingEngine,
)
from repro.mpls.tables import FTN, ILM
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.obs.events import PacketDropped, PacketForwarded


def stack_labels(packet: Union[IPv4Packet, MPLSPacket]) -> tuple:
    """The packet's label stack as a tuple of label values (empty for
    plain IP) -- the on-the-wire view telemetry and tracing record."""
    if isinstance(packet, MPLSPacket):
        return tuple(e.label for e in packet.stack)
    return ()


def packet_ttl(packet: Union[IPv4Packet, MPLSPacket]) -> int:
    """The TTL a node sees first: the top label's, else the IP header's."""
    if isinstance(packet, MPLSPacket):
        if not packet.stack.is_empty:
            return packet.stack.top.ttl
        return packet.inner.ttl
    return packet.ttl


class RouterRole(Enum):
    """The two router types of the paper's Figure 1."""

    LER = "ler"
    LSR = "lsr"

    @property
    def rtrtype_bit(self) -> int:
        """The hardware encoding: 0 for LER, 1 for LSR (Table 3)."""
        return 0 if self is RouterRole.LER else 1


@dataclass
class NodeStats:
    """Per-node data-plane counters."""

    received: int = 0
    forwarded_mpls: int = 0
    forwarded_ip: int = 0
    delivered_local: int = 0
    discarded: int = 0
    discard_reasons: Dict[str, int] = field(default_factory=dict)

    def record(self, decision: ForwardingDecision, count: int = 1) -> None:
        if decision.action is Action.FORWARD_MPLS:
            self.forwarded_mpls += count
        elif decision.action is Action.FORWARD_IP:
            self.forwarded_ip += count
        elif decision.action is Action.DELIVER_LOCAL:
            self.delivered_local += count
        else:
            self.discarded += count
            key = (decision.reason or "unspecified").split(":")[-1].strip()
            self.discard_reasons[key] = (
                self.discard_reasons.get(key, 0) + count
            )


class LSRNode:
    """One MPLS router (edge or core).

    Parameters
    ----------
    name:
        Unique node name within the network.
    role:
        :class:`RouterRole.LER` or :class:`RouterRole.LSR`.
    interfaces:
        Interface names; links attach to these.  May be extended later
        via :meth:`add_interface`.
    """

    def __init__(
        self,
        name: str,
        role: RouterRole = RouterRole.LSR,
        interfaces: Optional[List[str]] = None,
    ) -> None:
        self.name = name
        self.role = role
        self.interfaces: List[str] = list(interfaces or [])
        self.ilm = ILM()
        self.ftn = FTN()
        self.engine = ForwardingEngine(self.ilm, self.ftn, node_name=name)
        #: the telemetry the node reports to: its engine's, resolved
        #: once when the engine was built
        self.telemetry = self.engine.telemetry
        self.stats = NodeStats()
        #: neighbour name -> local interface used to reach it; the
        #: network layer fills this in when links are attached.
        self.neighbor_interfaces: Dict[str, str] = {}
        self.engine.interfaces = self.neighbor_interfaces
        #: the batched fast path's per-node decision cache, armed by
        #: :meth:`enable_batching` (None = scalar processing)
        self.flow_cache = None
        #: trust-boundary guard for packets from *outside* the domain
        #: (RFC 4364 semantics): a callable ``(node_name, packet) ->
        #: bool`` where True rejects; the security monitor arms this on
        #: edge LERs.  None = unguarded (the legacy behaviour).
        self.external_guard = None

    # -- batched fast path --------------------------------------------------
    def enable_batching(self, cache_capacity: Optional[int] = None):
        """Arm the flow cache over the node's engine: subsequent
        packets replay memoized decisions (see
        :mod:`repro.mpls.fastpath`)."""
        from repro.mpls.fastpath import DEFAULT_CAPACITY, FlowCache

        self.flow_cache = FlowCache(
            self.engine,
            capacity=(
                cache_capacity
                if cache_capacity is not None
                else DEFAULT_CAPACITY
            ),
        )
        return self.flow_cache

    def disable_batching(self) -> None:
        """Back to scalar processing (the differential oracle path)."""
        self.flow_cache = None

    def add_interface(self, interface: str) -> None:
        if interface in self.interfaces:
            raise ValueError(
                f"{self.name}: interface {interface!r} already exists"
            )
        self.interfaces.append(interface)

    @property
    def is_edge(self) -> bool:
        return self.role is RouterRole.LER

    def receive(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        train=None,
    ) -> ForwardingDecision:
        """Process one packet through the node's data plane -- or,
        with ``train`` (the :class:`~repro.net.aggregate.FlowAggregate`
        whose template ``packet`` is), the whole train in one step: one
        decision on the template shape, counters scaled by its count.

        An unlabelled packet arriving at a core LSR is a configuration
        error in the paper's model (only LERs border layer-2 networks),
        so it is discarded rather than classified.  A train requires
        batching (the flow cache supplies the per-packet operation
        deltas that scale to the train).
        """
        if train is None:
            count = 1
        elif self.flow_cache is None:
            raise RuntimeError(
                f"{self.name}: aggregates need batching enabled"
            )
        else:
            count = train.count
        self.stats.received += count
        if isinstance(packet, IPv4Packet) and not self.is_edge:
            decision = ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: unlabelled packet at a core LSR",
            )
        else:
            decision = self._forward(packet, count, train)
        decision = self._fill_interface(decision)
        self.stats.record(decision, count)
        self.observe(packet, decision, train)
        return decision

    def _forward(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        count: int,
        train,
    ) -> ForwardingDecision:
        """The decision on ``packet`` (a train's template when
        ``train`` is set): the flow cache's while batching, else one
        engine pass."""
        if self.flow_cache is not None:
            return self.flow_cache.process(packet, count)
        return self.engine.process(packet)

    def receive_aggregate(self, aggregate) -> ForwardingDecision:
        """Process a whole train: :meth:`receive` on its template."""
        return self.receive(aggregate.template, aggregate)

    def receive_external(
        self, packet: Union[IPv4Packet, MPLSPacket]
    ) -> Optional[ForwardingDecision]:
        """Apply the trust-boundary guard to a packet arriving from
        outside the MPLS domain.

        Returns the DISCARD decision when the armed guard rejects the
        packet (a labelled stack not self-originated never crosses the
        boundary), or None when the packet is admitted -- the caller
        then runs it through :meth:`receive` like any other arrival.
        """
        if self.external_guard is None or not self.external_guard(
            self.name, packet
        ):
            return None
        decision = ForwardingDecision(
            Action.DISCARD,
            reason=(
                f"{self.name}: spoofed label stack rejected at trust "
                "boundary"
            ),
        )
        self.stats.received += 1
        self.stats.record(decision)
        self.observe(packet, decision)
        return decision

    def observe(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        decision: ForwardingDecision,
        train=None,
    ) -> None:
        """Emit the telemetry for one processing step.

        No-op unless the node's telemetry is enabled; the event
        stream this produces is what :class:`repro.analysis.tracer.
        NetworkTracer` and ``repro trace`` consume.  A ``train``
        advances the metrics and flow accounting by its exact
        packet/byte totals and emits no per-packet event (sampled
        packets are materialized by the source and observed as real
        packets instead).
        """
        tel = self.telemetry
        if not tel.enabled:
            return
        count = 1 if train is None else train.count
        tel.packets.labels(self.name, decision.action.value).inc(count)
        inner = packet.inner if isinstance(packet, MPLSPacket) else packet
        if decision.action is Action.DISCARD:
            reason = decision.reason or "unspecified"
            tel.drops.labels(
                self.name, reason.split(":")[-1].strip()
            ).inc(count)
            if train is None:
                tel.events.emit(
                    PacketDropped(
                        node=self.name,
                        uid=inner.uid,
                        flow_id=inner.flow_id,
                        reason=reason,
                        labels_in=stack_labels(packet),
                        ttl_in=packet_ttl(packet),
                    )
                )
        else:
            out = decision.packet
            labels_out = stack_labels(out) if out is not None else ()
            # flow accounting rides the same guard: no extra `enabled`
            # read, one None test when no accountant is attached
            if tel.flows is not None:
                tel.flows.record_packet(
                    self.name, inner.flow_id, packet.length, labels_out, count
                )
            if train is None:
                tel.events.emit(
                    PacketForwarded(
                        node=self.name,
                        uid=inner.uid,
                        flow_id=inner.flow_id,
                        action=decision.action.value,
                        labels_in=stack_labels(packet),
                        labels_out=labels_out,
                        ttl_in=packet_ttl(packet),
                        next_hop=decision.next_hop,
                    )
                )

    def _fill_interface(
        self, decision: ForwardingDecision
    ) -> ForwardingDecision:
        """Resolve a next-hop name into a local interface when the NHLFE
        did not specify one explicitly."""
        if (
            decision.out_interface is None
            and decision.next_hop is not None
            and decision.forwarded
        ):
            interface = self.neighbor_interfaces.get(decision.next_hop)
            if interface is not None:
                decision = decision._replace(out_interface=interface)
        return decision

    def __repr__(self) -> str:
        return f"<LSRNode {self.name} {self.role.value}>"
