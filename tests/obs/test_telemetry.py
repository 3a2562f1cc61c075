"""Tests for the telemetry facade: the enable switch, session scoping,
and the end-to-end instrumentation of a simulated network run."""

from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1
from repro.obs import (
    ListSink,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)


#: the registry's ``op`` label for each :class:`OpCounts` field
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


def _network():
    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    net = MPLSNetwork(
        topo, roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    )
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topo, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    return net


class TestSwitch:
    def test_disabled_run_records_nothing(self):
        with telemetry_session(enabled=False) as tel:
            sink = tel.events.add_sink(ListSink())
            net = _network()
            net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9"))
            net.run()
            assert net.delivered_count() == 1
            assert tel.events.emitted == 0
            assert len(sink) == 0
            # every pre-registered family is still empty
            assert all(len(f) == 0 for f in tel.registry.collect())

    def test_session_restores_previous_default(self):
        before = get_telemetry()
        with telemetry_session() as tel:
            assert get_telemetry() is tel
            assert tel.enabled
        assert get_telemetry() is before

    def test_set_telemetry_swaps_and_returns_previous(self):
        fresh = Telemetry()
        previous = set_telemetry(fresh)
        try:
            assert get_telemetry() is fresh
        finally:
            set_telemetry(previous)

    def test_reset_keeps_switch_position(self):
        tel = Telemetry(enabled=True)
        tel.packets.labels("n", "forward-ip").inc()
        tel.reset()
        assert tel.enabled
        assert tel.registry.value(
            "repro_packets_total", node="n", action="forward-ip"
        ) == 0


class TestInstrumentedRun:
    def test_packet_counters_match_node_stats(self):
        with telemetry_session() as tel:
            net = _network()
            for i in range(5):
                net.inject(
                    "ler-a", IPv4Packet(src="10.1.0.5", dst=f"10.2.0.{i + 1}")
                )
            net.run()
            assert net.delivered_count() == 5
            reg = tel.registry
            for name, node in net.nodes.items():
                recorded = sum(
                    child.value
                    for _, child in reg.get(
                        "repro_packets_total"
                    ).samples()
                    if _[0] == name and _[1] != "delivered"
                )
                assert recorded == node.stats.received

    def test_mpls_op_counters_mirror_opcounts(self):
        with telemetry_session() as tel:
            net = _network()
            net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9"))
            net.run()
            reg = tel.registry
            for name, node in net.nodes.items():
                counts = node.engine.counts
                for attr, op in REGISTRY_OPS.items():
                    assert reg.value(
                        "repro_mpls_ops_total", node=name, op=op
                    ) == getattr(counts, attr), (name, op)

    def test_link_counters_match_channels(self):
        with telemetry_session() as tel:
            net = _network()
            net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9"))
            net.run()
            reg = tel.registry
            for link in net.links.values():
                for ch in (link.forward, link.reverse):
                    assert reg.value(
                        "repro_link_tx_packets_total",
                        src=ch.src.node,
                        dst=ch.dst.node,
                    ) == ch.tx_packets

    def test_drop_events_carry_reason(self):
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            net = _network()
            net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="99.9.9.9"))
            net.run()
            drops = [e for e in sink.events if e.kind == "packet-dropped"]
            assert len(drops) == 1
            assert "no FEC" in drops[0].reason
            assert tel.registry.value(
                "repro_drops_total",
                node="ler-a",
                reason="no FEC matches packet to 99.9.9.9",
            ) == 1

    def test_label_mapping_events_on_ldp_convergence(self):
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            _network()
            installs = [e for e in sink.events if e.kind == "label-mapping-installed"]
            # one install per router in the Figure 1 topology
            assert sorted(e.node for e in installs) == [
                "ler-a", "ler-b", "lsr-1", "lsr-2", "lsr-3"
            ]
            assert tel.events.emitted >= len(installs)
