"""Tests for packet tracing and network statistics."""

import pytest

from repro.analysis.netstats import (
    link_usage,
    render_link_usage,
    render_node_counters,
)
from repro.analysis.tracer import NetworkTracer
from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource
from repro.obs import get_telemetry


@pytest.fixture(autouse=True)
def _no_telemetry_leak():
    """Constructing a NetworkTracer flips the process-wide telemetry
    switch on and attaches an everything-sampling span recorder;
    ``detach()`` is the restore contract.  These tests keep tracers
    alive to the end, so restore the global state here instead of
    leaking span capture into every later test module."""
    yield
    get_telemetry().disable().reset()


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


class TestTracer:
    def test_trace_follows_the_lsp(self):
        net = _network()
        tracer = NetworkTracer(net)
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        net.inject("ler-a", packet)
        net.run()
        trace = tracer.trace_of(packet.uid)
        assert [hop.node for hop in trace.hops] == [
            "ler-a", "lsr-1", "lsr-2", "ler-b"
        ]
        assert trace.hops[-1].action is Action.FORWARD_IP
        assert all(hop.action is not Action.DISCARD for hop in trace.hops)

    def test_label_journey(self):
        net = _network()
        tracer = NetworkTracer(net)
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        net.inject("ler-a", packet)
        net.run()
        journey = [
            (hop.node, hop.stack_out)
            for hop in tracer.trace_of(packet.uid).hops
        ]
        # pushed at the LER, swapped twice, popped at the egress; note
        # that label *values* may coincide across nodes -- each LSR has
        # its own per-platform label space
        assert len(journey[0][1]) == 1   # after ingress push
        assert len(journey[1][1]) == 1   # swapped
        assert journey[-1][1] == ()      # popped at egress
        # each hop carried the label the downstream node advertised
        binding = {
            name: min(label for label, _ in net.nodes[name].ilm)
            for name in ("lsr-1", "lsr-2", "ler-b")
        }
        assert journey[0][1] == (binding["lsr-1"],)
        assert journey[1][1] == (binding["lsr-2"],)
        assert journey[2][1] == (binding["ler-b"],)

    def test_dropped_packet_traced_with_reason(self):
        net = _network()
        tracer = NetworkTracer(net)
        packet = IPv4Packet(src="10.1.0.5", dst="99.9.9.9")
        net.inject("ler-a", packet)
        net.run()
        trace = tracer.trace_of(packet.uid)
        assert trace.hops[-1].action is Action.DISCARD
        assert "no FEC" in trace.hops[-1].reason

    def test_traces_per_flow(self):
        net = _network()
        tracer = NetworkTracer(net)
        src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                        src="10.1.0.5", dst="10.2.0.9", rate_bps=1e6,
                        packet_size=500, stop=0.05)
        src.begin()
        net.run(until=1.0)
        traces = [
            t for t in tracer.recorder.traces() if t.flow_id == src.flow_id
        ]
        assert len(traces) == src.sent
        assert all(t.delivered for t in traces)

    def test_render(self):
        net = _network()
        tracer = NetworkTracer(net)
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        net.inject("ler-a", packet)
        net.run()
        text = tracer.trace_of(packet.uid).render()
        assert "ler-a" in text and "forward-ip" in text


class TestNetstats:
    def _run(self):
        net = _network()
        src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                        src="10.1.0.5", dst="10.2.0.9", rate_bps=1e6,
                        packet_size=500, stop=0.5)
        src.begin()
        net.run(until=1.0)
        return net, src

    def test_link_usage_counts(self):
        net, src = self._run()
        usage = {(u.src, u.dst): u for u in link_usage(net, duration=0.5)}
        assert usage[("ler-a", "lsr-1")].packets == src.sent
        assert usage[("lsr-1", "ler-a")].packets == 0
        assert usage[("lsr-1", "lsr-3")].packets == 0

    def test_utilization_fraction(self):
        net, src = self._run()
        usage = {(u.src, u.dst): u for u in link_usage(net, duration=0.5)}
        # ~1 Mbps + label overhead on a 10 Mbps link
        assert usage[("ler-a", "lsr-1")].utilization == pytest.approx(
            0.10, abs=0.02
        )

    def test_duration_validation(self):
        net, _ = self._run()
        with pytest.raises(ValueError):
            link_usage(net, duration=0)

    def test_renderers_produce_tables(self):
        net, src = self._run()
        links_text = render_link_usage(net, duration=0.5)
        nodes_text = render_node_counters(net)
        assert "ler-a -> lsr-1" in links_text
        assert "lsr-2" in nodes_text
