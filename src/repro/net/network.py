"""MPLSNetwork: the running network of Figure 1.

Combines a :class:`~repro.net.topology.Topology`, per-node
:class:`~repro.mpls.router.LSRNode` data planes, event-scheduled
:class:`~repro.net.link.Link` channels, and host attachment points at
the edge LERs into one simulated MPLS domain:

* packets injected at a node traverse the data plane hop by hop with
  real transmission/propagation/queueing delays,
* per-link queues are pluggable (drop-tail baseline, or the QoS
  schedulers of :mod:`repro.qos.scheduler`),
* delivered packets are recorded with end-to-end latency; drops are
  recorded with their reason,
* the control plane (:mod:`repro.control`) programs the very same
  node tables the data plane consults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.mpls.forwarding import Action
from repro.mpls.label import IMPLICIT_NULL, LabelOp
from repro.mpls.router import LSRNode, RouterRole, packet_ttl, stack_labels
from repro.net.addressing import IPv4Prefix
from repro.net.aggregate import AggregateDelivery, FlowAggregate
from repro.net.events import EventScheduler
from repro.net.link import DropTailQueue, Interface, Link
from repro.net.packet import IPv4Packet, MPLSPacket

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from repro.mpls.fec import FEC
from repro.net.topology import Topology
from repro.obs.events import PacketDelivered, PacketDropped
from repro.obs.telemetry import get_telemetry
from repro.qos.classifier import cos_of_packet


@dataclass
class Delivery:
    """One packet that reached its attached host."""

    time: float
    node: str
    packet: IPv4Packet

    @property
    def latency(self) -> float:
        return self.time - self.packet.created_at


@dataclass
class Drop:
    """Packets lost in the domain at one point in time.

    Scalar processing always records ``count == 1``; a dropped flow
    aggregate records its whole train as one entry.
    """

    time: float
    node: str
    reason: str
    count: int = 1


class MPLSNetwork:
    """A simulated MPLS domain.

    Parameters
    ----------
    topology:
        Node/link graph; link attributes set bandwidth and delay.
    roles:
        node name -> :class:`RouterRole`.  Nodes absent from the
        mapping default to core LSRs.
    queue_factory:
        Produces the output queue for each link direction; swap in a
        QoS scheduler factory to enable CoS-aware queueing.
    node_factory:
        Produces each node from (name, role); defaults to the software
        :class:`LSRNode`.  Pass
        :class:`~repro.core.hwnode.HardwareLSRNode` to run the data
        plane on the paper's hardware model with cycle accounting.
    """

    def __init__(
        self,
        topology: Topology,
        roles: Optional[Dict[str, RouterRole]] = None,
        scheduler: Optional[EventScheduler] = None,
        queue_factory: Callable[[], Any] = DropTailQueue,
        node_factory: Callable[[str, RouterRole], LSRNode] = LSRNode,
    ) -> None:
        self.topology = topology
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        # the run's telemetry is the default current now, kept for the
        # network's life; its events carry simulation time, so point
        # its event log's clock at this network's scheduler
        self.telemetry = get_telemetry()
        self.telemetry.events.clock = lambda: self.scheduler.now
        roles = roles or {}
        self.nodes: Dict[str, LSRNode] = {}
        for name in topology.nodes:
            role = roles.get(name, RouterRole.LSR)
            self.nodes[name] = node_factory(name, role)
        self.links: Dict[Tuple[str, str], Link] = {}
        self._link_of: Dict[Tuple[str, str], Link] = {}
        for a, b, attrs in topology.edges_with_attrs():
            if_a = f"to-{b}"
            if_b = f"to-{a}"
            self.nodes[a].add_interface(if_a)
            self.nodes[b].add_interface(if_b)
            self.nodes[a].neighbor_interfaces[b] = if_a
            self.nodes[b].neighbor_interfaces[a] = if_b
            link = Link(
                self.scheduler,
                Interface(a, if_a),
                Interface(b, if_b),
                bandwidth_bps=attrs.bandwidth_bps,
                delay_s=attrs.delay_s,
                queue_factory=queue_factory,
            )
            link.forward.on_deliver = self._on_arrival
            link.reverse.on_deliver = self._on_arrival
            key = (a, b) if a <= b else (b, a)
            self.links[key] = link
            self._link_of[(a, b)] = link
            self._link_of[(b, a)] = link
        #: LER name -> list of (prefix, sink) host attachments
        self._hosts: Dict[str, List[Tuple[IPv4Prefix, Optional[Callable]]]] = {}
        self.deliveries: List[Delivery] = []
        #: flow id -> packets delivered (scalar and aggregate), kept as
        #: deliveries are recorded so :meth:`delivered_count` never scans
        self._delivered: Dict[int, int] = {}
        self.drops: List[Drop] = []
        #: failed link key -> (link, saved control-plane attributes)
        self._failed_links: Dict[Tuple[str, str], Tuple[Link, Any]] = {}
        #: crashed nodes (packets at them are dropped; their links are
        #: down) and the links each crash took out
        self._down_nodes: Dict[str, List[Tuple[str, str]]] = {}
        #: optional ingress admission hook (overload load shedding):
        #: called with (node, packet, count) for unlabelled packets
        #: before lookup (count > 1: the packet is a train's template);
        #: returning True drops them as shed
        self.ingress_guard: Optional[
            Callable[[str, IPv4Packet, int], bool]
        ] = None
        #: batched fast-path mode (see :meth:`enable_batching`)
        self.batching = False
        #: delivered flow aggregates (batched mode only); scalar
        #: deliveries stay in :attr:`deliveries`
        self.aggregate_deliveries: List[AggregateDelivery] = []
        #: the run's :class:`repro.security.SecurityMonitor` (attached
        #: by its ``arm()``); with one attached, TTL-expiry discards
        #: punt exception load to it and :meth:`inject_external` feeds
        #: the edge trust-boundary guard
        self.security_monitor: Optional[Any] = None

    # -- batched fast path ---------------------------------------------------
    def enable_batching(self, enabled: bool = True) -> None:
        """Switch the data plane between the scalar per-packet path
        (the differential oracle) and the batched fast path: per-node
        flow caches plus flow-aggregate processing.

        Per-packet traffic behaves identically in both modes -- same
        decisions, same telemetry, same reports -- which
        ``tests/integration/test_batching_equivalence.py`` asserts
        byte-for-byte; see ``docs/batching.md`` for the contract.
        """
        self.batching = enabled
        for node in self.nodes.values():
            if enabled:
                node.enable_batching()
            else:
                node.disable_batching()

    # -- wiring ----------------------------------------------------------
    def node(self, name: str) -> LSRNode:
        return self.nodes[name]

    def link(self, a: str, b: str) -> Link:
        try:
            return self._link_of[(a, b)]
        except KeyError:
            raise KeyError(f"no link {a!r}-{b!r}") from None

    def attach_host(
        self,
        ler: str,
        prefix: Union[str, IPv4Prefix],
        sink: Optional[Callable[[IPv4Packet], None]] = None,
    ) -> None:
        """Declare that hosts in ``prefix`` hang off ``ler``.

        Packets the LER forwards as plain IP to a matching destination
        count as delivered (and are passed to ``sink`` if given).
        """
        node = self.nodes[ler]
        if not node.is_edge:
            raise ValueError(f"{ler} is a core LSR; hosts attach to LERs")
        self._hosts.setdefault(ler, []).append(
            (prefix if isinstance(prefix, IPv4Prefix) else IPv4Prefix(prefix), sink)
        )

    # -- data plane ---------------------------------------------------------
    def inject(self, node: str, packet: Union[IPv4Packet, MPLSPacket]) -> None:
        """Hand a packet to a node's data plane at the current time."""
        if node not in self.nodes:
            raise KeyError(f"unknown node {node!r}")
        self.scheduler.after(0.0, self._process, node, packet)

    def source_sink(self, ler: str) -> Callable[[IPv4Packet], None]:
        """A sink for traffic generators feeding ``ler``."""
        return lambda packet: self._process(ler, packet)

    def inject_external(
        self, node: str, packet: Union[IPv4Packet, MPLSPacket]
    ) -> None:
        """Hand a packet to a node from *outside* the MPLS domain.

        Unlike :meth:`inject` (trusted, intra-domain), this is the
        trust boundary of RFC 4364: an edge node with an armed
        ``external_guard`` rejects labelled packets arriving here,
        because nothing outside the domain legitimately originates
        label stacks.  The fault injector uses this entry point for
        spoofed-label and low-TTL attack traffic.
        """
        if node not in self.nodes:
            raise KeyError(f"unknown node {node!r}")
        self.scheduler.after(0.0, self._process_external, node, packet)

    def _process_external(
        self, node_name: str, packet: Union[IPv4Packet, MPLSPacket]
    ) -> None:
        if node_name in self._down_nodes:
            self._record_drop(
                self.scheduler.now,
                node_name,
                f"{node_name}: node down",
                packet,
            )
            return
        decision = self.nodes[node_name].receive_external(packet)
        if decision is not None:
            # guard rejection: counted by the node like any discard
            self.drops.append(
                Drop(
                    self.scheduler.now,
                    node_name,
                    decision.reason or "unspecified",
                )
            )
            return
        if self.security_monitor is not None and isinstance(
            packet, MPLSPacket
        ):
            # a forged labelled packet entered the domain unchallenged
            self.security_monitor.note_spoof_accepted(packet.inner.flow_id)
        self._process(node_name, packet)

    def inject_aggregate(self, node: str, aggregate: FlowAggregate) -> None:
        """Hand a flow aggregate to a node's data plane (batched mode)."""
        if node not in self.nodes:
            raise KeyError(f"unknown node {node!r}")
        if not self.batching:
            raise RuntimeError(
                "aggregates need batching: call enable_batching() first"
            )
        self.scheduler.after(0.0, self._process_aggregate, node, aggregate)

    def aggregate_sink(self, ler: str) -> Callable[[FlowAggregate], None]:
        """A sink for aggregate traffic generators feeding ``ler``."""
        return lambda aggregate: self._process_aggregate(ler, aggregate)

    def _on_arrival(self, iface: Interface, packet: Any) -> None:
        if packet.is_aggregate:
            self._process_aggregate(iface.node, packet)
        else:
            self._process(iface.node, packet)

    def _process_aggregate(
        self, node_name: str, aggregate: FlowAggregate
    ) -> None:
        """A train at a node: its template takes the one hop ladder.
        An empty aggregate is a no-op (no events, no accounting)."""
        if aggregate.count > 0:
            self._process(node_name, aggregate.template, aggregate)

    def _process(
        self,
        node_name: str,
        packet: Union[IPv4Packet, MPLSPacket],
        train: Optional[FlowAggregate] = None,
    ) -> None:
        """One hop of the data plane.  ``train`` is the aggregate whose
        template ``packet`` is (None for a real packet): one decision
        then stands for the whole train, and every drop and exception
        carries its count."""
        count = 1 if train is None else train.count
        if node_name in self._down_nodes:
            self._record_drop(
                self.scheduler.now,
                node_name,
                f"{node_name}: node down",
                packet,
                count,
            )
            return
        node = self.nodes[node_name]
        # An unlabelled packet for a locally attached prefix is handed
        # straight to the layer-2 side -- the egress-LER case when
        # penultimate-hop popping already removed the label upstream.
        if isinstance(packet, IPv4Packet) and self._is_attached(
            node_name, packet
        ):
            self._deliver(node_name, packet, train)
            return
        if (
            self.ingress_guard is not None
            and isinstance(packet, IPv4Packet)
            and self.ingress_guard(node_name, packet, count)
        ):
            self._record_drop(
                self.scheduler.now,
                node_name,
                f"{node_name}: overload shed",
                packet,
                count,
            )
            return
        decision = node.receive(packet, train)
        # "Pop and continue": a pop whose NHLFE names no next hop (a
        # tunnel tail) exposes the inner label, which must be looked up
        # again at this same node.  The bound is the max stack depth.
        relookups = 0
        while (
            decision.action is Action.FORWARD_MPLS
            and decision.next_hop is None
            and isinstance(decision.packet, MPLSPacket)
            and relookups < 4
        ):
            decision = node.receive(decision.packet, train)
            relookups += 1
        now = self.scheduler.now
        if decision.action is Action.DISCARD:
            # the node's own telemetry already counted this discard
            self.drops.append(
                Drop(now, node_name, decision.reason or "unspecified", count)
            )
            if self.security_monitor is not None and "TTL expired" in (
                decision.reason or ""
            ):
                # an expired TTL punts ICMP-style exception work to
                # the control plane; the monitor rate-limits it
                self.security_monitor.ttl_exception(node_name, count)
            return
        if decision.action is Action.DELIVER_LOCAL:
            return
        out = decision.packet
        if decision.action is Action.FORWARD_IP:
            inner = out  # an IPv4Packet
            if decision.next_hop is None or self._is_attached(
                node_name, inner
            ):
                self._deliver(node_name, inner, train)
                return
        if decision.next_hop is None:
            self._record_drop(
                now,
                node_name,
                f"{node_name}: no next hop resolved",
                out,
                count,
            )
            return
        link = self._link_of.get((node_name, decision.next_hop))
        if link is None:
            self._record_drop(
                now,
                node_name,
                f"{node_name}: no link towards {decision.next_hop}",
                out,
                count,
            )
            return
        channel = link.channel_from(node_name)
        # the link layer is count-generic: a train rides it as one unit
        unit = out if train is None else train.with_template(out)
        accepted = channel.send(unit, unit.length, cos=cos_of_packet(out))
        if not accepted:
            self._record_drop(
                now,
                node_name,
                f"{node_name}: queue overflow towards {decision.next_hop}",
                out,
                count,
            )

    def _record_drop(
        self,
        now: float,
        node_name: str,
        reason: str,
        packet: Optional[Union[IPv4Packet, MPLSPacket]] = None,
        count: int = 1,
    ) -> None:
        self.drops.append(Drop(now, node_name, reason, count=count))
        tel = self.telemetry
        if tel.enabled:
            tel.drops.labels(
                node_name, reason.split(":")[-1].strip()
            ).inc(count)
            if packet is not None:
                inner = (
                    packet.inner
                    if isinstance(packet, MPLSPacket)
                    else packet
                )
                tel.events.emit(
                    PacketDropped(
                        node=node_name,
                        uid=inner.uid,
                        flow_id=inner.flow_id,
                        reason=reason,
                        labels_in=stack_labels(packet),
                        ttl_in=packet_ttl(packet),
                    )
                )

    def _is_attached(self, node_name: str, packet: IPv4Packet) -> bool:
        for prefix, _ in self._hosts.get(node_name, ()):
            if prefix.contains(packet.dst):
                return True
        return False

    def _deliver(
        self,
        node_name: str,
        packet: IPv4Packet,
        train: Optional[FlowAggregate] = None,
    ) -> None:
        """Record ``packet`` -- or the whole ``train`` it stands for --
        as delivered.  A train lands in :attr:`aggregate_deliveries`
        with exact packet/byte totals and analytic per-packet latencies
        (see :class:`~repro.net.aggregate.AggregateDelivery`); it emits
        no per-packet event and host sinks are not called for it."""
        now = self.scheduler.now
        flow_id = packet.flow_id
        if train is None:
            count = 1
            delivery = Delivery(now, node_name, packet)
            self.deliveries.append(delivery)
        else:
            count = train.count
            delivery = AggregateDelivery(
                time=now,
                node=node_name,
                flow_id=flow_id,
                count=count,
                bytes=packet.length * count,
                first_created_at=packet.created_at,
                interval=train.interval,
            )
            self.aggregate_deliveries.append(delivery)
        delivered = self._delivered
        delivered[flow_id] = delivered.get(flow_id, 0) + count
        tel = self.telemetry
        if tel.enabled:
            tel.packets.labels(node_name, "delivered").inc(count)
            hist = tel.delivery_latency.labels(node_name)
            if train is None:
                hist.observe(delivery.latency)
            else:
                for latency in delivery.latencies():
                    hist.observe(latency)
            # demand accounting (ingress->egress matrix cell) rides the
            # same guard; one None test when no accountant is attached
            if tel.flows is not None:
                tel.flows.record_delivery(
                    node_name, flow_id, packet.length, count
                )
            if train is None:
                tel.events.emit(
                    PacketDelivered(
                        node=node_name,
                        uid=packet.uid,
                        flow_id=flow_id,
                        latency=delivery.latency,
                    )
                )
        if train is not None:
            return
        for prefix, sink in self._hosts.get(node_name, []):
            if sink is not None and prefix.contains(packet.dst):
                sink(packet)

    # -- failure injection ---------------------------------------------------
    def fail_link(self, a: str, b: str) -> None:
        """Take a link out of service.

        The adjacency disappears from both the data plane (subsequent
        sends towards the dead neighbour are dropped with a "no link"
        reason; packets already queued or in flight on the link are
        lost) and the control-plane topology, so SPF/CSPF
        reconvergence sees the failure.  The link itself is retained so
        :meth:`restore_link` can bring it back.
        """
        link = self.link(a, b)
        self._link_of.pop((a, b))
        self._link_of.pop((b, a))
        key = (a, b) if a <= b else (b, a)
        self.links.pop(key)
        link.fail()
        attrs = None
        if self.topology.has_link(a, b):
            attrs = self.topology.link(a, b)
            self.topology.remove_link(a, b)
        self._failed_links[key] = (link, attrs)

    def restore_link(self, a: str, b: str) -> Link:
        """Bring a previously failed link back into service, restoring
        its control-plane attributes (the heal half of a link fault)."""
        key = (a, b) if a <= b else (b, a)
        try:
            link, attrs = self._failed_links.pop(key)
        except KeyError:
            raise KeyError(f"link {a!r}-{b!r} is not failed") from None
        link.heal()
        self.links[key] = link
        self._link_of[(a, b)] = link
        self._link_of[(b, a)] = link
        if attrs is not None and not self.topology.has_link(a, b):
            self.topology.restore_link(a, b, attrs)
        return link

    def link_is_up(self, a: str, b: str) -> bool:
        """True when the adjacency exists and neither endpoint crashed."""
        return (
            (a, b) in self._link_of
            and a not in self._down_nodes
            and b not in self._down_nodes
        )

    def fail_node(self, name: str) -> None:
        """Crash a node: all its links go down and packets handed to it
        are dropped until :meth:`restore_node`."""
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        if name in self._down_nodes:
            return
        node = self.nodes[name]
        # a crash mid-transaction kills the staging bank with the
        # software; roll back so the cold-restart clear() hits the
        # active bank, not a dangling shadow copy
        if node.ilm.in_transaction:
            node.ilm.rollback()
        if node.ftn.in_transaction:
            node.ftn.rollback()
        incident = [
            (a, b) for (a, b) in list(self.links) if name in (a, b)
        ]
        for a, b in incident:
            self.fail_link(a, b)
        self._down_nodes[name] = incident

    def restore_node(self, name: str) -> List[Tuple[str, str]]:
        """Restart a crashed node; returns the links actually restored.

        The restart is cold: the node's ILM/FTN tables are cleared
        (forwarding state does not survive a crash) and must be
        re-programmed by the control plane.  A link shared with another
        still-crashed node stays down; it is handed over to that node's
        incident list so the *last* restart brings it back (and it is
        absent from the returned list).  Warm control-plane-only
        restarts never pass through here -- see
        :meth:`repro.control.ldp.LDPProcess.begin_graceful_restart`.
        """
        try:
            incident = self._down_nodes.pop(name)
        except KeyError:
            raise KeyError(f"node {name!r} is not down") from None
        node = self.nodes[name]
        node.ilm.clear()
        node.ftn.clear()
        restored: List[Tuple[str, str]] = []
        for a, b in incident:
            # a link shared with another crashed node stays down: hand
            # it to the survivor so its restart restores the link
            other = b if a == name else a
            if other in self._down_nodes:
                self._down_nodes[other].append((a, b))
            else:
                self.restore_link(a, b)
                restored.append((a, b))
        return restored

    # -- running ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> int:
        return self.scheduler.run(until=until)

    # -- statistics ---------------------------------------------------------
    def latencies(self, flow_id: Optional[int] = None) -> List[float]:
        values = [
            d.latency
            for d in self.deliveries
            if flow_id is None or d.packet.flow_id == flow_id
        ]
        for aggregate in self.aggregate_deliveries:
            if flow_id is None or aggregate.flow_id == flow_id:
                values.extend(aggregate.latencies())
        return values

    def delivered_count(self, flow_id: Optional[int] = None) -> int:
        if flow_id is None:
            return sum(self._delivered.values())
        return self._delivered.get(flow_id, 0)

    def drop_count(self) -> int:
        return sum(d.count for d in self.drops)

    # -- control-plane reachability ------------------------------------------
    def fec_trace(self, ingress: str, fec: FEC) -> Optional[List[str]]:
        """Walk the active forwarding tables for ``fec`` from ``ingress``.

        A pure control-plane traversal of the same ILM/FTN state the
        data plane reads: follow the ingress FTN entry hop by hop
        (PUSH/SWAP/POP/NOOP over up links and live nodes) until the
        packet would be delivered at a LER attached to the FEC's
        destination.  Returns the node path, or ``None`` when a packet
        classified into ``fec`` would blackhole: no FTN entry, a dead
        link or node on the way, a broken label chain, or a label loop.
        The PCE controller uses this to account blackholed FECs without
        injecting probe traffic.
        """
        if ingress not in self.nodes or ingress in self._down_nodes:
            return None
        entry = self.nodes[ingress].ftn.entry_for(fec)
        if entry is None or entry.next_hop is None:
            return None
        path = [ingress]
        current = ingress
        label = entry.out_label if entry.op is LabelOp.PUSH else None
        next_hop = entry.next_hop
        # bound generous enough for any simple path plus PHP hops; a
        # walk that exceeds it can only be a label loop
        for _ in range(4 * len(self.nodes)):
            if next_hop is None or not self.link_is_up(current, next_hop):
                return None
            current = next_hop
            path.append(current)
            if current in self._down_nodes:
                return None
            if label is None or label == IMPLICIT_NULL:
                # the packet arrives unlabelled (NOOP towards a PHP
                # egress, or popped upstream): deliverable only at a
                # LER attached to the FEC's destination
                return path if self._fec_attached(current, fec) else None
            nhlfe = self.nodes[current].ilm.get(label)
            if nhlfe is None:
                return None
            if nhlfe.op is LabelOp.POP:
                if nhlfe.next_hop is None:
                    return (
                        path if self._fec_attached(current, fec) else None
                    )
                label, next_hop = None, nhlfe.next_hop
            elif nhlfe.op is LabelOp.SWAP:
                label, next_hop = nhlfe.out_label, nhlfe.next_hop
            else:
                return None
        return None  # label loop

    def _fec_attached(self, node: str, fec: FEC) -> bool:
        """Does ``node`` terminate ``fec``'s destination (host attach)?"""
        prefix = getattr(fec, "prefix", None)
        host = getattr(fec, "host", None)
        for attached, _sink in self._hosts.get(node, []):
            if prefix is not None and attached == prefix:
                return True
            if host is not None and attached.contains(host):
                return True
        return False
