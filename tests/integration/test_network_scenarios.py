"""Integration: control plane + data plane network scenarios.

Failure injection, re-signalling, QoS under congestion, and tunnel
hierarchies -- each exercising several subpackages together.
"""


from repro.control.ldp import LDPProcess
from repro.control.rsvp_te import RSVPTESignaler
from repro.mpls.fec import CoSFEC, PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource, VoIPSource, DSCP_EF
from repro.qos.scheduler import PriorityScheduler


def _net(queue_factory=None, bandwidth=10e6):
    topo = paper_figure1(bandwidth_bps=bandwidth, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    kwargs = {"queue_factory": queue_factory} if queue_factory else {}
    net = MPLSNetwork(topo, roles, **kwargs)
    net.attach_host("ler-b", "10.2.0.0/16")
    return topo, net


class TestFailureRecovery:
    def test_link_failure_then_reconvergence(self):
        topo, net = _net()
        ldp = LDPProcess(topo, net.nodes)
        ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")

        first = CBRSource(net.scheduler, net.source_sink("ler-a"),
                          src="10.1.0.5", dst="10.2.0.9",
                          rate_bps=1e6, packet_size=500, stop=0.1)
        first.begin()
        net.run(until=0.2)
        delivered_before = net.delivered_count()
        assert delivered_before == first.sent

        # fail the primary core link and reconverge LDP
        topo.remove_link("lsr-1", "lsr-2")
        ldp.reconverge()

        second = CBRSource(net.scheduler, net.source_sink("ler-a"),
                           src="10.1.0.5", dst="10.2.0.9",
                           rate_bps=1e6, packet_size=500,
                           start=0.2, stop=0.3)
        second.begin()
        net.run(until=0.5)
        assert net.delivered_count() == delivered_before + second.sent
        # the detour carried the post-failure traffic
        assert net.nodes["lsr-3"].stats.forwarded_mpls == second.sent

    def test_stale_forwarding_state_drops_after_failure(self):
        """Without reconvergence, traffic for the broken path dies in
        the core: the LSP's next hop no longer has a link."""
        topo, net = _net()
        ldp = LDPProcess(topo, net.nodes)
        ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
        net.fail_link("lsr-1", "lsr-2")
        net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9"))
        net.run()
        assert net.delivered_count() == 0
        assert any("no link towards" in d.reason for d in net.drops.views())

    def test_rsvp_backup_path_protection(self):
        """Primary + node-disjoint backup; after failure the backup FEC
        steering restores service."""
        topo, net = _net()
        sig = RSVPTESignaler(topo, net.nodes)
        fec = PrefixFEC("10.2.0.0/16")
        sig.setup("primary", "ler-a", "ler-b",
                  explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
                  fec=fec)
        net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9"))
        net.run()
        assert net.delivered_count() == 1
        # fail lsr-2: tear down primary, steer onto a backup LSP
        sig.teardown("primary")
        sig.setup("backup", "ler-a", "ler-b",
                  explicit_route=["ler-a", "lsr-1", "lsr-3", "ler-b"],
                  fec=fec)
        net.inject("ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9"))
        net.run()
        assert net.delivered_count() == 2
        assert net.nodes["lsr-3"].stats.forwarded_mpls == 1


class TestQoSUnderCongestion:
    def _run_scenario(self, queue_factory):
        topo, net = _net(queue_factory=queue_factory, bandwidth=2e6)
        ldp = LDPProcess(topo, net.nodes)
        # EF traffic onto one FEC, best effort onto another; both ride
        # the same links -- the queue discipline decides who suffers.
        fec_voice = CoSFEC(PrefixFEC("10.2.0.0/16"), DSCP_EF)
        fec_data = PrefixFEC("10.2.0.0/16")
        ldp.establish_fec(fec_data, egress="ler-b")
        ldp.establish_fec(fec_voice, egress="ler-b")
        voice = VoIPSource(net.scheduler, net.source_sink("ler-a"),
                           src="10.1.0.5", dst="10.2.0.9", stop=1.0)
        # data deliberately overruns the 2 Mbps links
        data = CBRSource(net.scheduler, net.source_sink("ler-a"),
                         src="10.1.0.6", dst="10.2.0.10",
                         rate_bps=4e6, packet_size=1000, stop=1.0)
        voice.begin()
        data.begin()
        net.run(until=3.0)
        voice_delivered = net.delivered_count(voice.flow_id)
        return voice, data, net, voice_delivered

    def test_fifo_congestion_hurts_voice(self):
        voice, _, net, voice_delivered = self._run_scenario(None)
        assert voice_delivered < voice.sent  # voice loses packets too

    def test_priority_scheduler_protects_voice(self):
        voice, data, net, voice_delivered = self._run_scenario(
            lambda: PriorityScheduler(capacity_per_class=64)
        )
        assert voice_delivered == voice.sent
        # data still congested
        assert net.delivered_count(data.flow_id) < data.sent

    def test_voice_latency_bounded_under_priority(self):
        voice, _, net, _ = self._run_scenario(
            lambda: PriorityScheduler(capacity_per_class=64)
        )
        lat = net.latencies(voice.flow_id)
        # voice never waits behind more than one in-flight data packet
        # per hop: 3 hops x (1ms prop + ~0.7ms tx + <=4ms wait) << 20 ms
        assert max(lat) < 0.02
