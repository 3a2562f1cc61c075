"""Train-length equivalence: a train is a packet with a count.

The data plane has one body per routine; a
:class:`~repro.net.aggregate.FlowAggregate` rides through it as the
``train`` argument of the packet that is its template.  So for every
outcome the hop ladder has, N packets injected at one instant and one
train of N must be indistinguishable on every count the simulator
keeps -- node stats, engine op counts, hardware cycles, drops by
reason, deliveries, exception and shed totals, every counter and gauge
in the registry, flow records and the demand matrix -- on software and
hardware nodes, telemetry on, a flow accountant attached.  Latency
histograms are excluded: a train arrives together by design.

Also pinned here, because they used to hold only by accident of which
twin ran: a train of one emits no per-packet event and calls no host
sink; a real packet emits the scalar event sequence, in order.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.ldp import LDPProcess
from repro.control.overload import IngressShedder, OverloadConfig, ShedEntry
from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.stack import LabelStack
from repro.net.aggregate import FlowAggregate
from repro.net.ip_router import IPRouterNode, populate_fibs
from repro.net.link import DropTailQueue
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.topology import paper_figure1
from repro.obs import ListSink, telemetry_session
from repro.obs.events import (
    LabelOpApplied,
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
)
from repro.obs.flows import FlowAccountant
from repro.obs.metrics import Histogram
from repro.security.monitor import SecurityConfig, SecurityMonitor
from tests.strategies.flows import pop_at_penultimate_hop

PREFIX = "10.2.0.0/16"
FLOW = 7
TUNNEL_LABEL = 9000

NODE_TYPES = {"software": LSRNode, "hardware": HardwareLSRNode}

OUTCOMES = [
    "lsp",
    "php",
    "tunnel-tail",
    "ttl-expiry",
    "unlabelled-at-core",
    "node-down",
    "shed",
    "no-link",
    "overflow",
]


def _ip(ttl=64, flow_id=FLOW, seq=0):
    return IPv4Packet(
        src="10.1.0.5",
        dst="10.2.0.9",
        ttl=ttl,
        payload=bytes(500),
        flow_id=flow_id,
        seq=seq,
        created_at=0.0,
    )


class _Run:
    """One network set up for ``outcome``, ready to be offered either
    N packets or one train at ``self.node``."""

    def __init__(self, node_factory, outcome):
        topo = paper_figure1(bandwidth_bps=100e6, delay_s=1e-4)
        roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
        self.net = net = MPLSNetwork(
            topo,
            roles,
            queue_factory=(
                (lambda: DropTailQueue(capacity=1))
                if outcome == "overflow"
                else DropTailQueue
            ),
            node_factory=node_factory,
        )
        self.sunk = []
        net.attach_host("ler-b", PREFIX, sink=self.sunk.append)
        fec = PrefixFEC(PREFIX)
        binding = LDPProcess(topo, net.nodes).establish_fec(fec, egress="ler-b")
        if outcome == "php":
            pop_at_penultimate_hop(binding, net.nodes)
        net.enable_batching()
        self.monitor = SecurityMonitor(net, SecurityConfig())
        self.monitor.arm()
        self.shedder = IngressShedder(
            [ShedEntry(PREFIX, 0, "ler-a")],
            lambda: 0.0,
            OverloadConfig(),
            net.scheduler,
        )
        net.ingress_guard = self.shedder.guard
        #: where the traffic enters, and packet ``seq`` of it
        self.node, self.make = "ler-a", lambda seq: _ip(seq=seq)
        # the LSP's first core hop and what lsr-1 sends it
        swap = net.nodes["lsr-1"].ilm.get(
            net.nodes["ler-a"].ftn.entry_for(fec).out_label
        )
        if outcome == "tunnel-tail":
            # a pop with no next hop exposes the LSP label, which is
            # looked up again at the same node (pop and continue)
            self.node = swap.next_hop
            net.nodes[self.node].ilm.install(
                TUNNEL_LABEL, NHLFE(op=LabelOp.POP)
            )
            stack = LabelStack(
                [
                    LabelEntry(label=TUNNEL_LABEL, ttl=30),
                    LabelEntry(label=swap.out_label, ttl=30),
                ]
            )
            self.make = lambda seq: MPLSPacket(stack, _ip(seq=seq))
        elif outcome == "ttl-expiry":
            self.make = lambda seq: _ip(ttl=1, seq=seq)
        elif outcome == "unlabelled-at-core":
            self.node = "lsr-1"
        elif outcome == "node-down":
            self.node = "lsr-1"
            net.fail_node("lsr-1")
        elif outcome == "shed":
            self.shedder.entries[0].shed = True
        elif outcome == "no-link":
            net.fail_link("lsr-1", swap.next_hop)
        elif outcome == "overflow":
            # one filler on the wire, one filling the 1-slot queue:
            # everything offered behind them at this instant overflows
            for seq in range(2):
                net.inject("ler-a", _ip(flow_id=FLOW + 1, seq=seq))

    def offer(self, n, as_train):
        if as_train:
            self.net.scheduler.after(
                0.0, self.net.aggregate_sink(self.node),
                FlowAggregate(template=self.make(0), count=n),
            )
        else:
            for seq in range(n):
                self.net.inject(self.node, self.make(seq))
        self.net.run(until=1.0)


def _snapshot(run, tel, accountant):
    net = run.net
    nodes = {}
    for name, node in net.nodes.items():
        nodes[name] = [
            dataclasses.asdict(node.stats),
            dataclasses.asdict(node.engine.counts),
        ]
        if isinstance(node, HardwareLSRNode):
            nodes[name].append(
                (
                    node.hw_data_cycles,
                    node.hw_control_cycles,
                    node.fast_path_packets,
                    node.slow_path_packets,
                    node.modifier.total_cycles,
                )
            )
    drops = Counter()
    for drop in net.drops:
        drops[(drop.node, drop.reason)] += drop.count
    metrics = {}
    for family in tel.registry.collect():
        for values, child in family.samples():
            if not isinstance(child, Histogram):
                metrics[family.name, values] = child.value
            elif "latency" not in family.name:
                metrics[family.name, values] = (
                    child.count,
                    child.sum,
                    child.cumulative_counts(),
                )
    links = {
        (channel.src.node, channel.dst.node): (
            channel.tx_packets,
            channel.tx_bytes,
            channel.dropped,
            channel.lost,
        )
        for link in net.links.values()
        for channel in (link.forward, link.reverse)
    }
    records = {
        (r.node, r.flow_id, r.seq): (r.packets, r.bytes, r.labels, r.hw_cycles)
        for r in accountant.all_records()
    }
    return {
        "nodes": nodes,
        "drop_count": net.drop_count(),
        "drops": dict(drops),
        "delivered": (net.delivered_count(FLOW), net.delivered_count()),
        "exceptions": (
            run.monitor.exceptions_total,
            run.monitor.exceptions_forwarded,
            run.monitor.exceptions_limited,
        ),
        "packets_shed": run.shedder.packets_shed,
        "metrics": metrics,
        "links": links,
        "records": records,
        "demands": accountant.drain_demands(),
    }


def _measure(node_type, outcome, n, as_train):
    with telemetry_session() as tel:
        accountant = FlowAccountant()
        run = _Run(NODE_TYPES[node_type], outcome)
        run.offer(n, as_train)
        snapshot = _snapshot(run, tel, accountant)
        accountant.detach()
    return snapshot


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("node_type", sorted(NODE_TYPES))
@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=64))
def test_train_of_n_equals_n_packets(node_type, outcome, n):
    packets = _measure(node_type, outcome, n, as_train=False)
    train = _measure(node_type, outcome, n, as_train=True)
    for key in packets:
        assert train[key] == packets[key], key
    # the outcome under test really happened, for every packet
    if outcome in ("lsp", "php", "tunnel-tail"):
        assert train["delivered"][0] == n
    else:
        assert train["delivered"][0] == 0
        assert train["drop_count"] == n
    if outcome == "ttl-expiry":
        assert train["exceptions"][0] == n
    if outcome == "shed":
        assert train["packets_shed"] == n


def test_train_of_n_equals_n_packets_at_plain_ip_routers():
    def measure(as_train):
        topo = paper_figure1(bandwidth_bps=100e6, delay_s=1e-4)
        roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
        net = MPLSNetwork(topo, roles, node_factory=IPRouterNode)
        net.attach_host("ler-b", PREFIX)
        populate_fibs(topo, net.nodes, {"ler-b": [PREFIX]})
        if as_train:
            net.enable_batching()
            net.scheduler.after(
                0.0, net.aggregate_sink("ler-a"),
                FlowAggregate(template=_ip(), count=12),
            )
        else:
            for seq in range(12):
                net.inject("ler-a", _ip(seq=seq))
        net.run(until=1.0)
        return net.delivered_count(FLOW), {
            name: dataclasses.asdict(node.stats)
            for name, node in net.nodes.items()
        }

    assert measure(as_train=True) == measure(as_train=False)
    assert measure(as_train=True)[0] == 12


# -- satellite regressions (both fail on the two-loop data plane) -----------
def test_shed_train_counts_every_packet_as_shed():
    with telemetry_session():
        run = _Run(LSRNode, "shed")
        run.offer(16, as_train=True)
    assert run.net.drop_count() == 16
    assert run.shedder.packets_shed == 16


def test_train_observes_hardware_cycles_per_packet():
    """The per-packet cycle histogram takes one sample per packet of a
    train, never the train's summed cycles as one sample."""

    def histogram(as_train):
        with telemetry_session() as tel:
            run = _Run(HardwareLSRNode, "lsp")
            run.offer(16, as_train)
            child = tel.hw_packet_cycles.labels("ler-a")
            total = tel.registry.value(
                "repro_hw_cycles_total", node="ler-a", kind="data"
            )
            return child.count, child.sum, child.cumulative_counts(), total

    count, cycle_sum, _buckets, total = histogram(as_train=True)
    assert count == 16
    assert cycle_sum == total  # the exact sum is untouched
    assert histogram(as_train=True) == histogram(as_train=False)


# -- what a train does not get, and what a packet still does ----------------
PER_PACKET = (PacketForwarded, PacketDropped, PacketDelivered)


@pytest.mark.parametrize("node_type", sorted(NODE_TYPES))
@pytest.mark.parametrize("outcome", ["lsp", "php", "ttl-expiry", "no-link"])
def test_train_of_one_is_still_a_train(node_type, outcome):
    with telemetry_session() as tel:
        sink = tel.events.add_sink(ListSink())
        run = _Run(NODE_TYPES[node_type], outcome)
        run.offer(1, as_train=True)
    per_packet = [e for e in sink.events if isinstance(e, PER_PACKET)]
    assert run.sunk == []
    assert run.net.deliveries == []
    if outcome == "no-link":
        # a drop the network records is one event for the whole train
        assert [(type(e), e.node) for e in per_packet] == [
            (PacketDropped, "lsr-1")
        ]
        assert run.net.drop_count() == 1
    elif outcome == "ttl-expiry":
        assert per_packet == []
        assert run.net.drop_count() == 1
    else:
        assert per_packet == []
        assert [d.count for d in run.net.aggregate_deliveries] == [1]


def test_real_packet_emits_the_scalar_event_sequence():
    """Two packets over the non-PHP LSP: every per-packet event, in
    order -- the same whether the engine (caches off), a cache fill
    (first packet) or a cache hit (second packet) served the hop."""
    hops = [
        [("push", "ler-a"), ("PacketForwarded", "ler-a")],
        [("swap", "lsr-1"), ("PacketForwarded", "lsr-1")],
        [("swap", "lsr-2"), ("PacketForwarded", "lsr-2")],
        [
            ("pop", "ler-b"),
            ("PacketForwarded", "ler-b"),
            ("PacketDelivered", "ler-b"),
        ],
    ]
    # the pair crosses each hop back to back (propagation > transmission)
    expected = [event for hop in hops for event in hop * 2]
    for batching in (False, True):
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            run = _Run(LSRNode, "lsp")
            if not batching:
                run.net.batching = False
                for node in run.net.nodes.values():
                    node.disable_batching()
            run.offer(2, as_train=False)
        assert [
            (getattr(e, "op", type(e).__name__), e.node)
            for e in sink.events
            if isinstance(e, PER_PACKET + (LabelOpApplied,))
        ] == expected
        assert len(run.sunk) == 2
