"""Tests for LSP ping and traceroute."""


from repro.control.ldp import LDPProcess
from repro.control.oam import lsp_ping, lsp_traceroute
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import line, paper_figure1


def _network(topo=None, edges=("ler-a", "ler-b"), egress="ler-b",
             prefix="10.2.0.0/16"):
    topo = topo or paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {name: RouterRole.LER for name in edges}
    net = MPLSNetwork(topo, roles)
    net.attach_host(egress, prefix)
    ldp = LDPProcess(topo, net.nodes)
    ldp.establish_fec(PrefixFEC(prefix), egress=egress)
    return net


class TestLSPPing:
    def test_healthy_lsp_pings(self):
        net = _network()
        result = lsp_ping(net, "ler-a", "10.2.0.9")
        assert result.reached
        assert result.egress == "ler-b"
        assert 0.003 < result.latency < 0.01

    def test_broken_lsp_fails_ping(self):
        net = _network()
        net.fail_link("lsr-1", "lsr-2")
        result = lsp_ping(net, "ler-a", "10.2.0.9")
        assert not result.reached
        assert result.latency is None

    def test_unroutable_destination_fails(self):
        net = _network()
        result = lsp_ping(net, "ler-a", "99.9.9.9")
        assert not result.reached

    def test_repeated_pings_independent(self):
        net = _network()
        first = lsp_ping(net, "ler-a", "10.2.0.9")
        second = lsp_ping(net, "ler-a", "10.2.0.9")
        assert first.reached and second.reached
        assert second.sent_at > first.sent_at


class TestLSPTraceroute:
    def test_walks_the_lsp(self):
        net = _network()
        result = lsp_traceroute(net, "ler-a", "10.2.0.9")
        assert result.complete
        # TTL 2 dies at the first LSR, TTL 3 at the second, TTL 4 lands
        assert result.path == ["lsr-1", "lsr-2", "ler-b"]

    def test_longer_path(self):
        topo = line(6, bandwidth_bps=10e6, delay_s=1e-4)
        net = _network(topo=topo, edges=("n0", "n5"), egress="n5",
                       prefix="10.5.0.0/16")
        result = lsp_traceroute(net, "n0", "10.5.0.1")
        assert result.complete
        assert result.path == ["n1", "n2", "n3", "n4", "n5"]

    def test_truncated_at_breakage(self):
        net = _network()
        net.fail_link("lsr-2", "ler-b")
        result = lsp_traceroute(net, "ler-a", "10.2.0.9", max_ttl=6)
        assert not result.complete
        # the walk reveals the hops before the break
        assert result.path[:2] == ["lsr-1", "lsr-2"]

    def test_max_ttl_bounds_the_walk(self):
        net = _network()
        net.fail_link("lsr-2", "ler-b")
        result = lsp_traceroute(net, "ler-a", "10.2.0.9", max_ttl=3)
        assert len(result.hops) <= 4


class TestOAMMonitor:
    def _monitor(self, net, **kw):
        from repro.control.oam import OAMMonitor, ProbeTarget

        target = ProbeTarget(
            fec="10.2.0.0/16", ingress="ler-a", destination="10.2.0.9"
        )
        return OAMMonitor(net, [target], **kw)

    def test_healthy_fec_stays_up(self):
        net = _network()
        mon = self._monitor(net, period=0.05, timeout=0.05, stop=0.4)
        net.run(until=0.5)
        assert mon.up["10.2.0.0/16"] is True
        checked = [r for r in mon.records if r.checked]
        assert checked and all(r.reached for r in checked)
        assert all(r.rtt is not None and r.rtt < 0.05 for r in checked)
        # exactly one transition: unknown -> up at the first verdict
        assert [(t.up, t.time) for t in mon.transitions] == [(True, 0.05)]
        summary = mon.summary()
        [fec] = summary["fecs"]
        assert fec["reached"] == fec["probes"] == len(checked)
        assert fec["lost"] == 0 and fec["up_at_end"] is True
        assert 0 < fec["rtt_min_s"] <= fec["rtt_mean_s"] <= fec["rtt_max_s"]

    def test_probe_flows_are_negative_and_distinct(self):
        from repro.control.oam import OAMMonitor, PROBE_FLOW_BASE, ProbeTarget

        net = _network()
        targets = [
            ProbeTarget(fec=f"fec-{i}", ingress="ler-a",
                        destination="10.2.0.9")
            for i in range(3)
        ]
        mon = OAMMonitor(net, targets, period=0.1, stop=0.0)
        ids = mon.flow_ids
        assert sorted(ids.values(), reverse=True) == [
            PROBE_FLOW_BASE - i for i in range(3)
        ]
        assert all(v <= PROBE_FLOW_BASE for v in ids.values())

    def test_cut_lsp_flips_down_and_localizes(self):
        net = _network()
        mon = self._monitor(net, period=0.05, timeout=0.05, stop=0.4)
        net.scheduler.at(0.12, lambda: net.fail_link("lsr-1", "lsr-2"))
        net.run(until=0.5)
        assert mon.up["10.2.0.0/16"] is False
        ups = [t.up for t in mon.transitions]
        assert ups == [True, False]  # came up, then the cut took it down
        [fec] = mon.summary()["fecs"]
        assert fec["lost"] > 0
        # post-run traceroute walks as far as the break
        walk = mon.localize("10.2.0.0/16")
        assert not walk.complete
        assert walk.path[0] == "lsr-1"
        assert "lsr-2" not in walk.path

    def test_slo_breach_detected(self):
        net = _network()
        # the healthy RTT is ~4 ms: a 1 ms SLO makes every probe breach
        mon = self._monitor(
            net, period=0.05, timeout=0.05, stop=0.1, slo_rtt_s=0.001
        )
        net.run(until=0.3)
        checked = [r for r in mon.records if r.checked]
        assert checked and all(r.reached and r.breach for r in checked)
        # reached-but-breaching counts as down
        assert mon.up["10.2.0.0/16"] is False

    def test_metrics_and_events_published(self):
        from repro.obs import ListSink, telemetry_session

        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            net = _network()
            self._monitor(net, period=0.05, timeout=0.05, stop=0.2)
            net.run(until=0.3)
            probes = [e for e in sink.events if e.kind == "oam-probe"]
            assert probes and all(e.fec == "10.2.0.0/16" for e in probes)
            assert tel.oam_probes.labels("10.2.0.0/16", "ok").value == len(
                probes
            )
            assert tel.oam_up.labels("10.2.0.0/16").value == 1.0
            assert tel.oam_rtt.labels("10.2.0.0/16").count == len(probes)

    def test_invalid_period_rejected(self):
        import pytest

        net = _network()
        with pytest.raises(ValueError):
            self._monitor(net, period=0.0)
