"""MPLSNetwork: the running network of Figure 1.

Combines a :class:`~repro.net.topology.Topology`, per-node
:class:`~repro.mpls.router.LSRNode` data planes, event-scheduled
:class:`~repro.net.link.Link` channels, and host attachment points at
the edge LERs into one simulated MPLS domain:

* packets injected at a node traverse the data plane hop by hop with
  real transmission/propagation/queueing delays,
* per-link queues are pluggable (drop-tail baseline, or the QoS
  schedulers of :mod:`repro.qos.scheduler`),
* delivered packets and drops are rows of two column stores
  (:class:`DeliveryLog`, :class:`DropLog`): ``array`` columns plus an
  intern table of node names and reasons, queried in place -- a
  :class:`Delivery` / :class:`Drop` object exists only when a test or
  an example asks for the rows as views,
* the control plane (:mod:`repro.control`) programs the very same
  node tables the data plane consults.
"""

from __future__ import annotations

from array import array
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

from repro.mpls.forwarding import Action, cos_of_packet
from repro.mpls.label import IMPLICIT_NULL, LabelOp
from repro.mpls.router import LSRNode, RouterRole, packet_ttl, stack_labels
from repro.net.addressing import IPv4Prefix
from repro.net.aggregate import AggregateDelivery, FlowAggregate
from repro.net.events import EventScheduler
from repro.net.link import DropTailQueue, Interface, Link, SimplexChannel
from repro.net.packet import IPv4Packet, MPLSPacket

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from repro.mpls.fec import FEC
from repro.net.topology import Topology
from repro.obs.events import PacketDelivered, PacketDropped
from repro.obs.telemetry import get_telemetry


@dataclass(frozen=True)
class Delivery:
    """A view of one delivered packet's row (built by
    :meth:`DeliveryLog.views`; the log keeps no such object)."""

    time: float
    node: str
    flow_id: int
    uid: int
    created_at: float

    @property
    def latency(self) -> float:
        return self.time - self.created_at


@dataclass(frozen=True)
class Drop:
    """A view of one drop row (built by :meth:`DropLog.views`): packets
    lost in the domain at one point in time.

    Scalar processing always records ``count == 1``; a dropped flow
    aggregate records its whole train as one row.  ``uid`` is the
    dropped packet's (a labelled packet's inner datagram's).
    """

    time: float
    node: str
    reason: str
    count: int
    uid: int


class _Columns:
    """Rows as ``array`` columns, every string by its id in one intern
    table: ``names[id]`` is the string back.  A row is a handful of
    machine numbers, never an object the collector tracks."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}

    def _intern(self, name: str) -> int:
        ids = self._ids
        n = ids.get(name)
        if n is None:
            n = ids[name] = len(self.names)
            self.names.append(name)
        return n

    def __len__(self) -> int:
        return len(self.time)

    def node_of(self, row: int) -> str:
        return self.names[self.node[row]]

    def find(self, uid: int, start: int) -> int:
        """The first row from ``start`` on that holds ``uid``, or -1."""
        try:
            return self.uid.index(uid, start)
        except ValueError:
            return -1


class DeliveryLog(_Columns):
    """What reached an attached host, one row per scalar packet or per
    train: time, node, flow, uid, created_at, count and interval.

    A scalar packet's row has count 1 and interval 0; a train's row
    holds its whole count and creation spacing, and uid -1 (it is no one
    packet: it emits no :class:`PacketDelivered` either).  Per-flow
    totals are kept as rows arrive, so :meth:`delivered` never scans.
    """

    def __init__(self) -> None:
        super().__init__()
        self.time = array("d")
        self.node = array("I")
        self.flow = array("q")
        self.uid = array("q")
        self.created_at = array("d")
        self.count = array("I")
        self.interval = array("d")
        self._per_flow: Dict[int, int] = {}

    def append(
        self,
        time: float,
        node: str,
        flow: int,
        uid: int,
        created_at: float,
        count: int,
        interval: float,
    ) -> None:
        self.time.append(time)
        self.node.append(self._intern(node))
        self.flow.append(flow)
        self.uid.append(uid)
        self.created_at.append(created_at)
        self.count.append(count)
        self.interval.append(interval)
        per_flow = self._per_flow
        per_flow[flow] = per_flow.get(flow, 0) + count

    def delivered(self, flow: Optional[int] = None) -> int:
        """Packets delivered, of one flow or of all."""
        if flow is None:
            return sum(self._per_flow.values())
        return self._per_flow.get(flow, 0)

    def latencies(self, flow: Optional[int] = None) -> List[float]:
        """Per-packet latencies in row order; a train's are analytic
        (packet ``i`` was created ``i * interval`` after the first)."""
        values: List[float] = []
        for f, t, created, count, interval in zip(
            self.flow, self.time, self.created_at, self.count,
            self.interval,
        ):
            if flow is None or f == flow:
                if count == 1:
                    values.append(t - created)
                else:
                    values.extend(
                        t - (created + i * interval) for i in range(count)
                    )
        return values

    def arrivals_since(
        self, start: int, max_flow: int
    ) -> List[Tuple[int, float]]:
        """``(uid, time)`` of every row from ``start`` on whose flow id
        is at most ``max_flow``."""
        flow, uid, time = self.flow, self.uid, self.time
        return [
            (uid[row], time[row])
            for row in range(start, len(flow))
            if flow[row] <= max_flow
        ]

    def views(self) -> List[Union[Delivery, AggregateDelivery]]:
        """Every row as an object: a :class:`Delivery` per scalar
        packet, an :class:`AggregateDelivery` per train."""
        names = self.names
        return [
            AggregateDelivery(t, names[n], f, count, created, interval)
            if uid < 0
            else Delivery(t, names[n], f, uid, created)
            for t, n, f, uid, created, count, interval in zip(
                self.time, self.node, self.flow, self.uid,
                self.created_at, self.count, self.interval,
            )
        ]


class DropLog(_Columns):
    """What the domain lost, one row per drop: time, node, reason,
    count and the dropped packet's uid (a labelled packet's inner uid;
    -1 for a drop with no packet).  Nodes and reasons share the intern
    table; a reader aggregates over the columns and splits each
    distinct reason once."""

    def __init__(self) -> None:
        super().__init__()
        self.time = array("d")
        self.node = array("I")
        self.reason = array("I")
        self.count = array("I")
        self.uid = array("q")

    def append(
        self, time: float, node: str, reason: str, count: int, uid: int
    ) -> None:
        intern = self._intern
        self.time.append(time)
        self.node.append(intern(node))
        self.reason.append(intern(reason))
        self.count.append(count)
        self.uid.append(uid)

    def reason_of(self, row: int) -> str:
        return self.names[self.reason[row]]

    def total(self) -> int:
        return sum(self.count)

    def split_at(self, time: float) -> Tuple[int, int]:
        """Packets dropped at or before ``time``, and after it."""
        before = sum(
            count for t, count in zip(self.time, self.count) if t <= time
        )
        return before, self.total() - before

    def by_reason_tail(self) -> Dict[str, int]:
        """Packets dropped per reason tail (the text after a reason's
        last ``:``, stripped), tails in first-drop order."""
        per_reason: Dict[int, int] = {}
        for reason, count in zip(self.reason, self.count):
            per_reason[reason] = per_reason.get(reason, 0) + count
        names = self.names
        tails: Dict[str, int] = {}
        for reason, count in per_reason.items():
            tail = names[reason].split(":")[-1].strip()
            tails[tail] = tails.get(tail, 0) + count
        return tails

    def at_node(self, node: str, start: float, end: float) -> int:
        """Packets dropped at ``node`` within ``[start, end]``."""
        n = self._ids.get(node)
        if n is None:
            return 0
        return sum(
            count
            for at, t, count in zip(self.node, self.time, self.count)
            if at == n and start <= t <= end
        )

    def views(self) -> List[Drop]:
        """Every row as a :class:`Drop`."""
        names = self.names
        return [
            Drop(t, names[n], names[reason], count, uid)
            for t, n, reason, count, uid in zip(
                self.time, self.node, self.reason, self.count, self.uid
            )
        ]


def _inner(packet: Union[IPv4Packet, MPLSPacket]) -> IPv4Packet:
    return packet.inner if isinstance(packet, MPLSPacket) else packet


def _link_key(a: str, b: str) -> Tuple[str, str]:
    """The key of the link between ``a`` and ``b`` in
    :attr:`MPLSNetwork.links`, whichever end is named first."""
    return (a, b) if a <= b else (b, a)


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
        plane on the paper's label stack modifier with cycle accounting
        (``functools.partial(HardwareLSRNode, backend="rtl")`` for the
        RTL).
    """

    def __init__(
        self,
        topology: Topology,
        roles: Optional[Dict[str, RouterRole]] = None,
        queue_factory: Callable[[], Any] = DropTailQueue,
        node_factory: Callable[[str, RouterRole], LSRNode] = LSRNode,
    ) -> None:
        self.topology = topology
        self.scheduler = EventScheduler()
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
        #: (node, neighbour) -> the channel out of node towards the
        #: neighbour, for every link in service: what a hop sends on
        self._channel_of: Dict[Tuple[str, str], SimplexChannel] = {}
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
            self.links[_link_key(a, b)] = link
            self._attach(a, b, link)
        #: LER name -> list of (prefix, sink) host attachments
        self._hosts: Dict[str, List[Tuple[IPv4Prefix, Optional[Callable]]]] = {}
        #: every delivered packet and train, and every drop, as rows
        self.deliveries = DeliveryLog()
        self.drops = DropLog()
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
        #: the run's :class:`repro.security.SecurityMonitor` (attached
        #: by its ``arm()``); with one attached, TTL-expiry discards
        #: punt exception load to it and :meth:`inject_external` feeds
        #: the edge trust-boundary guard
        self.security_monitor: Optional[Any] = None

    def enable_batching(self) -> None:
        """A no-op: every node forwards through its flow cache from the
        start (see ``docs/batching.md``).  Kept because the benchmark
        harness calls it (``benchmarks/perf/workloads.py:515``).
        """

    # -- wiring ----------------------------------------------------------
    def link(self, a: str, b: str) -> Link:
        try:
            return self.links[_link_key(a, b)]
        except KeyError:
            raise KeyError(f"no link {a!r}-{b!r}") from None

    def _attach(self, a: str, b: str, link: Link) -> None:
        """Put ``link``, between ``a`` and ``b``, in the hop's table."""
        self._channel_of[(a, b)] = link.channel_from(a)
        self._channel_of[(b, a)] = link.channel_from(b)

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
                self.scheduler.now,
                node_name,
                decision.reason or "unspecified",
                1,
                _inner(packet).uid,
            )
            return
        if self.security_monitor is not None and isinstance(
            packet, MPLSPacket
        ):
            # a forged labelled packet entered the domain unchallenged
            self.security_monitor.note_spoof_accepted(packet.inner.flow_id)
        self._process(node_name, packet)

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
                now,
                node_name,
                decision.reason or "unspecified",
                count,
                _inner(packet).uid,
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
        channel = self._channel_of.get((node_name, decision.next_hop))
        if channel is None:
            self._record_drop(
                now,
                node_name,
                f"{node_name}: no link towards {decision.next_hop}",
                out,
                count,
            )
            return
        # the link layer is count-generic: a train rides it as one unit
        unit = out if train is None else train.with_template(out)
        accepted = channel.send(
            unit, out.length * count, cos=cos_of_packet(out)
        )
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
        packet: Union[IPv4Packet, MPLSPacket],
        count: int = 1,
    ) -> None:
        inner = _inner(packet)
        self.drops.append(now, node_name, reason, count, inner.uid)
        tel = self.telemetry
        if tel.enabled:
            tel.drops.labels(
                node_name, reason.split(":")[-1].strip()
            ).inc(count)
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
        as delivered: one row of :attr:`deliveries`.  A train's row
        holds exact packet totals and its analytic per-packet latencies
        (see :meth:`DeliveryLog.latencies`); it emits no per-packet
        event and host sinks are not called for it."""
        now = self.scheduler.now
        flow_id = packet.flow_id
        created_at = packet.created_at
        if train is None:
            count = 1
            self.deliveries.append(
                now, node_name, flow_id, packet.uid, created_at, 1, 0.0
            )
        else:
            count = train.count
            interval = train.interval
            self.deliveries.append(
                now, node_name, flow_id, -1, created_at, count, interval
            )
        tel = self.telemetry
        if tel.enabled:
            tel.packets.labels(node_name, "delivered").inc(count)
            hist = tel.delivery_latency.labels(node_name)
            if train is None:
                hist.observe(now - created_at)
            else:
                for i in range(count):
                    hist.observe(now - (created_at + i * interval))
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
                        latency=now - created_at,
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
        key = _link_key(a, b)
        link = self.link(a, b)
        self._channel_of.pop((a, b))
        self._channel_of.pop((b, a))
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
        key = _link_key(a, b)
        try:
            link, attrs = self._failed_links.pop(key)
        except KeyError:
            raise KeyError(f"link {a!r}-{b!r} is not failed") from None
        link.heal()
        self.links[key] = link
        self._attach(a, b, link)
        if attrs is not None and not self.topology.has_link(a, b):
            self.topology.restore_link(a, b, attrs)
        return link

    def link_is_up(self, a: str, b: str) -> bool:
        """True when the adjacency exists and neither endpoint crashed."""
        return (
            (a, b) in self._channel_of
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
        return self.deliveries.latencies(flow_id)

    def delivered_count(self, flow_id: Optional[int] = None) -> int:
        return self.deliveries.delivered(flow_id)

    def drop_count(self) -> int:
        return self.drops.total()

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
