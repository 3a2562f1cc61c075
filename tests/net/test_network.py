"""Tests for the MPLSNetwork simulation layer."""

import pytest

from repro.control.ldp import LDPProcess
from repro.control.rsvp_te import RSVPTESignaler
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelEntry
from repro.mpls.router import RouterRole
from repro.mpls.stack import LabelStack
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.topology import line, paper_figure1
from repro.net.traffic import CBRSource
from tests.strategies.flows import pop_at_penultimate_hop


def _ldp_network(topo=None, **net_kwargs):
    topo = topo or paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    net = MPLSNetwork(topo, roles, **net_kwargs)
    net.attach_host("ler-b", "10.2.0.0/16")
    ldp = LDPProcess(topo, net.nodes)
    ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
    return net, ldp


def _flow(net, duration=0.2, rate=1e6, dst="10.2.0.9"):
    src = CBRSource(
        net.scheduler,
        net.source_sink("ler-a"),
        src="10.1.0.5",
        dst=dst,
        rate_bps=rate,
        packet_size=500,
        stop=duration,
    )
    src.begin()
    return src


class TestEndToEnd:
    def test_all_packets_delivered(self):
        net, _ = _ldp_network()
        src = _flow(net)
        net.run(until=1.0)
        assert net.delivered_count() == src.sent
        assert net.drop_count() == 0

    def test_latency_includes_all_hops(self):
        net, _ = _ldp_network()
        _flow(net)
        net.run(until=1.0)
        latencies = net.latencies()
        # 3 hops x (1 ms propagation + 520B/10Mbps tx) ~ 4.2 ms
        assert all(0.003 < l < 0.02 for l in latencies)

    def test_packets_are_label_switched_not_ip_routed(self):
        net, _ = _ldp_network()
        _flow(net)
        net.run(until=1.0)
        for name in ("lsr-1", "lsr-2"):
            stats = net.nodes[name].stats
            assert stats.forwarded_mpls > 0
            assert stats.forwarded_ip == 0

    def test_sink_callback(self):
        net, _ = _ldp_network()
        received = []
        net.attach_host("ler-b", "10.2.1.0/24", received.append)
        src = _flow(net, dst="10.2.1.7")
        net.run(until=1.0)
        assert len(received) == src.sent

    def test_unroutable_packet_dropped_at_ingress(self):
        net, _ = _ldp_network()
        net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="99.9.9.9"))
        net.run()
        assert net.drop_count() == 1
        assert "no FEC" in net.drops[0].reason

    def test_unknown_label_dropped_at_core(self):
        net, _ = _ldp_network()
        bogus = MPLSPacket(
            LabelStack([LabelEntry(label=99999, ttl=10)]),
            IPv4Packet(src="10.1.0.5", dst="10.2.0.9"),
        )
        net.inject("lsr-1", bogus)
        net.run()
        assert net.drop_count() == 1
        assert "no ILM" in net.drops[0].reason

    def test_congestion_overflows_queue(self):
        # 10 Mbps link, 20 Mbps offered: queue must overflow
        net, _ = _ldp_network()
        _flow(net, duration=0.5, rate=20e6)
        net.run(until=1.0)
        assert net.drop_count() > 0
        assert any("queue overflow" in d.reason for d in net.drops)

    def test_ttl_expires_on_long_path(self):
        topo = line(6, bandwidth_bps=10e6, delay_s=1e-4)
        roles = {"n0": RouterRole.LER, "n5": RouterRole.LER}
        net = MPLSNetwork(topo, roles)
        net.attach_host("n5", "10.5.0.0/16")
        ldp = LDPProcess(topo, net.nodes)
        ldp.establish_fec(PrefixFEC("10.5.0.0/16"), egress="n5")
        net.inject("n0", IPv4Packet(src="10.0.0.1", dst="10.5.0.1", ttl=3))
        net.run()
        assert net.delivered_count() == 0
        assert any("TTL" in d.reason for d in net.drops)

    def test_php_network_still_delivers(self):
        topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
        roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
        net = MPLSNetwork(topo, roles)
        net.attach_host("ler-b", "10.2.0.0/16")
        ldp = LDPProcess(topo, net.nodes)
        binding = ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
        pop_at_penultimate_hop(binding, net.nodes)
        src = _flow(net)
        net.run(until=1.0)
        assert net.delivered_count() == src.sent

    def test_explicit_route_via_rsvp(self):
        topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
        roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
        net = MPLSNetwork(topo, roles)
        net.attach_host("ler-b", "10.2.0.0/16")
        sig = RSVPTESignaler(topo, net.nodes)
        sig.setup(
            "detour",
            "ler-a",
            "ler-b",
            explicit_route=["ler-a", "lsr-1", "lsr-3", "ler-b"],
            fec=PrefixFEC("10.2.0.0/16"),
        )
        src = _flow(net)
        net.run(until=1.0)
        assert net.delivered_count() == src.sent
        # traffic took the detour, not the metric-shortest path
        assert net.nodes["lsr-3"].stats.forwarded_mpls == src.sent
        assert net.nodes["lsr-2"].stats.forwarded_mpls == 0


class TestNetworkPlumbing:
    def test_link_lookup(self):
        net, _ = _ldp_network()
        assert net.link("ler-a", "lsr-1") is net.link("lsr-1", "ler-a")
        with pytest.raises(KeyError):
            net.link("ler-a", "lsr-2")

    def test_attach_host_to_core_rejected(self):
        net, _ = _ldp_network()
        with pytest.raises(ValueError):
            net.attach_host("lsr-1", "10.9.0.0/16")

    def test_inject_unknown_node(self):
        net, _ = _ldp_network()
        with pytest.raises(KeyError):
            net.inject("ghost", IPv4Packet(src="1.1.1.1", dst="2.2.2.2"))

    def test_flow_filtered_stats(self):
        net, _ = _ldp_network()
        a = _flow(net, dst="10.2.0.1")
        b = _flow(net, dst="10.2.0.2")
        net.run(until=1.0)
        assert net.delivered_count(a.flow_id) == a.sent
        assert net.delivered_count(b.flow_id) == b.sent
        assert len(net.latencies(a.flow_id)) == a.sent


def _scanned_count(net, flow_id=None):
    """``delivered_count`` by scanning both delivery logs."""
    return sum(
        1
        for d in net.deliveries
        if flow_id is None or d.packet.flow_id == flow_id
    ) + sum(
        a.count
        for a in net.aggregate_deliveries
        if flow_id is None or a.flow_id == flow_id
    )


def _assert_counts_match_a_scan(net, extra_ids=()):
    flow_ids = {d.packet.flow_id for d in net.deliveries}
    flow_ids.update(a.flow_id for a in net.aggregate_deliveries)
    assert flow_ids, "nothing was delivered: the comparison is vacuous"
    flow_ids.update(extra_ids)
    for flow_id in sorted(flow_ids) + [None, max(flow_ids) + 1]:
        assert net.delivered_count(flow_id) == _scanned_count(net, flow_id)
    return flow_ids


class TestDeliveredCountAgainstAScan:
    def test_scalar_run_with_two_flows(self):
        net, _ = _ldp_network()
        first, second = _flow(net), _flow(net, duration=0.1, dst="10.2.0.77")
        net.run(until=1.0)
        ids = _assert_counts_match_a_scan(net)
        assert len(ids) == 2
        assert net.delivered_count() == first.sent + second.sent

    def test_batched_run_mixes_trains_and_scalar_packets(self):
        from repro.net.aggregate import AggregateCBRSource

        net, _ = _ldp_network()
        net.enable_batching()
        sources = [
            AggregateCBRSource(
                net.scheduler,
                net.aggregate_sink("ler-a"),
                src="10.1.0.5",
                dst="10.2.0.9",
                rate_bps=1e6,
                batch=20,
                stop=0.5,
            ),
            CBRSource(
                net.scheduler,
                net.source_sink("ler-a"),
                src="10.1.0.5",
                dst="10.2.0.77",
                rate_bps=1e6,
                stop=0.5,
            ),
        ]
        for source in sources:
            source.begin()
        net.run(until=1.0)
        assert net.deliveries and net.aggregate_deliveries
        _assert_counts_match_a_scan(net)
        assert net.delivered_count() == sum(s.sent for s in sources)

    def test_run_with_forged_flows(self):
        import json
        from pathlib import Path

        from repro.faults import Scenario
        from repro.faults.chaos import build_run

        raw = json.loads(
            (Path(__file__).parents[2] / "examples" / "chaos_security.json")
            .read_text()
        )
        raw["security"] = {"enabled": False}  # let the forgeries through
        run = build_run(Scenario.from_dict(raw), seed=7)
        run.network.run(until=run.scenario.duration)
        forged = list(run.security._forged)
        _assert_counts_match_a_scan(run.network, extra_ids=forged)
        leaked = sum(run.network.delivered_count(f) for f in forged)
        assert 0 < leaked < len(forged)  # some ids delivered, most did not
