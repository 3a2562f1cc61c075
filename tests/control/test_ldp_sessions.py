"""Tests for message-level LDP (discovery, sessions, distribution)."""

import pytest

from repro.control.ldp_sessions import MessageLDPProcess, MsgType
from repro.control.retry import MAX_RETRIES
from repro.mpls.errors import NoRouteError
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelOp
from repro.mpls.router import LSRNode, RouterRole
from repro.net.events import EventScheduler
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import line, paper_figure1, ring
from repro.net.traffic import CBRSource


def _env(topo=None, edges=("ler-a", "ler-b")):
    topo = topo or paper_figure1(delay_s=1e-3)
    nodes = {
        name: LSRNode(
            name, RouterRole.LER if name in edges else RouterRole.LSR
        )
        for name in topo.nodes
    }
    scheduler = EventScheduler()
    ldp = MessageLDPProcess(topo, nodes, scheduler)
    return topo, nodes, scheduler, ldp


class TestDiscoveryAndSessions:
    def test_sessions_form_on_every_link(self):
        topo, nodes, scheduler, ldp = _env()
        ldp.start()
        scheduler.run(until=1.0)
        assert ldp.all_sessions_up()
        assert len(ldp.sessions_established) == 2 * len(topo.links)

    def test_hello_counts(self):
        topo, nodes, scheduler, ldp = _env()
        ldp.start()
        scheduler.run(until=1.0)
        # one hello each way per adjacency
        assert ldp.message_counts[MsgType.HELLO] == 2 * len(topo.links)

    def test_one_init_exchange_per_link(self):
        topo, nodes, scheduler, ldp = _env()
        ldp.start()
        scheduler.run(until=1.0)
        assert ldp.message_counts[MsgType.INIT] == 2 * len(topo.links)

    def test_double_start_rejected(self):
        _, _, _, ldp = _env()
        ldp.start()
        with pytest.raises(RuntimeError):
            ldp.start()


class TestLabelDistribution:
    def _converge(self, topo=None, edges=("ler-a", "ler-b"),
                  egress="ler-b"):
        topo, nodes, scheduler, ldp = _env(topo, edges)
        ldp.start()
        scheduler.run(until=1.0)
        state = ldp.announce_fec(
            "f1", PrefixFEC("10.2.0.0/16"), egress=egress
        )
        scheduler.run(until=2.0)
        return topo, nodes, scheduler, ldp, state

    def test_converges(self):
        _, _, _, ldp, state = self._converge()
        assert ldp.converged("f1")

    def test_forwarding_state_installed(self):
        _, nodes, _, ldp, state = self._converge()
        # egress pops
        egress_label = state.advertised["ler-b"]
        assert nodes["ler-b"].ilm.get(egress_label).op is LabelOp.POP
        # ingress pushes towards its SPF next hop
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        _, nhlfe = nodes["ler-a"].ftn.lookup(packet)
        assert nhlfe.op is LabelOp.PUSH
        assert nhlfe.next_hop == "lsr-1"

    def test_ordered_control_installs_egress_first(self):
        _, _, _, ldp, state = self._converge(topo=line(5),
                                             edges=("n0", "n4"),
                                             egress="n4")
        times = state.installed_at
        order = sorted(times, key=times.get)
        assert order == ["n4", "n3", "n2", "n1", "n0"]

    def test_convergence_time_scales_with_diameter(self):
        *_, ldp_short, state_short = self._converge(
            topo=line(3, delay_s=1e-3), edges=("n0", "n2"), egress="n2"
        )
        *_, ldp_long, state_long = self._converge(
            topo=line(8, delay_s=1e-3), edges=("n0", "n7"), egress="n7"
        )
        assert (ldp_long.convergence_time("f1")
                > ldp_short.convergence_time("f1"))

    def test_duplicate_announce_rejected(self):
        _, _, scheduler, ldp, _ = self._converge()
        with pytest.raises(ValueError):
            ldp.announce_fec("f1", PrefixFEC("10.9.0.0/16"), egress="ler-b")

    def test_works_on_a_ring(self):
        topo = ring(6, delay_s=1e-3)
        _, nodes, _, ldp, state = self._converge(
            topo=topo, edges=("n0", "n3"), egress="n3"
        )
        assert ldp.converged("f1")
        # every non-egress node advertised a label
        assert len(state.advertised) == 6


class TestWithdrawal:
    def test_withdraw_removes_all_state(self):
        topo, nodes, scheduler, ldp = _env()
        ldp.start()
        scheduler.run(until=1.0)
        ldp.announce_fec("f1", PrefixFEC("10.2.0.0/16"), egress="ler-b")
        scheduler.run(until=2.0)
        ldp.withdraw_fec("f1")
        scheduler.run(until=3.0)
        assert all(len(n.ilm) == 0 for n in nodes.values())
        assert all(len(n.ftn) == 0 for n in nodes.values())
        assert ldp.message_counts[MsgType.LABEL_WITHDRAW] > 0

    def test_mapping_after_withdraw_ignored(self):
        topo, nodes, scheduler, ldp = _env()
        ldp.start()
        scheduler.run(until=1.0)
        ldp.announce_fec("f1", PrefixFEC("10.2.0.0/16"), egress="ler-b")
        # withdraw while mappings are still in flight
        scheduler.after(1e-4, lambda: ldp.withdraw_fec("f1"))
        scheduler.run(until=3.0)
        # no stale FTN state survives at the ingress
        assert len(nodes["ler-a"].ftn) == 0


class TestSessionLoss:
    """Regression: a dropped session used to leave every upstream
    router holding stale label mappings through the dead peer (and a
    withdrawal could cascade around the whole network tearing down
    healthy state).  Session loss must withdraw exactly the mappings
    that depended on the lost peer, then recover via the
    exponential-backoff reconnect."""

    def _converged_env(self):
        topo, nodes, scheduler, ldp = _env()
        ldp.start()
        scheduler.run(until=1.0)
        ldp.announce_fec("f1", PrefixFEC("10.2.0.0/16"), egress="ler-b")
        scheduler.run(until=2.0)
        assert ldp.converged("f1")
        return topo, nodes, scheduler, ldp

    def _path_of(self, nodes, ldp):
        """(first hop, second hop) of ler-a's installed path."""
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        _, nhlfe = nodes["ler-a"].ftn.lookup(packet)
        first = nhlfe.next_hop
        speaker = ldp.speakers[first]
        label = speaker.local_labels["f1"]
        second = nodes[first].ilm.get(label).next_hop
        return first, second

    def test_drop_withdraws_dependent_mappings(self):
        topo, nodes, scheduler, ldp = self._converged_env()
        first, second = self._path_of(nodes, ldp)
        before = ldp.message_counts[MsgType.LABEL_WITHDRAW]
        ldp.drop_session(first, second)
        # look before the first reconnect attempt (50 ms backoff)
        scheduler.run(until=scheduler.now + 0.02)
        # the transit router withdrew its mapping through the dead peer
        assert "f1" not in ldp.speakers[first].local_labels
        assert ldp.message_counts[MsgType.LABEL_WITHDRAW] > before
        # ... and the ingress no longer pushes into the black hole
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        try:
            _, nhlfe = nodes["ler-a"].ftn.lookup(packet)
        except NoRouteError:
            pass  # the FTN entry was withdrawn entirely
        else:
            assert nhlfe.next_hop != first

    def test_drop_does_not_cascade_past_dependents(self):
        """Regression for the withdrawal cascade: routers whose state
        does not traverse the lost session must keep it."""
        topo, nodes, scheduler, ldp = self._converged_env()
        first, second = self._path_of(nodes, ldp)
        egress_label = ldp.speakers["ler-b"].local_labels["f1"]
        ldp.drop_session(first, second)
        scheduler.run(until=scheduler.now + 0.02)
        # the egress's origination is untouched
        assert ldp.speakers["ler-b"].local_labels["f1"] == egress_label
        assert nodes["ler-b"].ilm.get(egress_label).op is LabelOp.POP

    def test_reconnect_restores_convergence(self):
        topo, nodes, scheduler, ldp = self._converged_env()
        first, second = self._path_of(nodes, ldp)
        ldp.drop_session(first, second)
        scheduler.run(until=scheduler.now + 1.5)
        assert ldp.sessions_recovered, "session never re-established"
        _, _, _, downtime = ldp.sessions_recovered[0]
        assert downtime < 0.5
        assert ldp.converged("f1")
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        assert nodes["ler-a"].ftn.lookup(packet) is not None

    def test_bindings_from_lost_peer_purged(self):
        topo, nodes, scheduler, ldp = self._converged_env()
        first, second = self._path_of(nodes, ldp)
        assert second in ldp.speakers[first].bindings.get("f1", {})
        ldp.drop_session(first, second)
        assert second not in ldp.speakers[first].bindings.get("f1", {})
        assert first not in ldp.speakers[second].bindings.get("f1", {})

    def test_reconnect_gives_up_when_link_stays_gone(self):
        topo, nodes, scheduler, _ = self._converged_env()
        ldp2 = MessageLDPProcess(topo, nodes, scheduler)
        # sessions live in the speakers; fake one for the pair, then
        # remove the adjacency so reconnection can never succeed
        ldp2.speakers["lsr-1"].sessions.add("lsr-2")
        ldp2.speakers["lsr-2"].sessions.add("lsr-1")
        topo.remove_link("lsr-1", "lsr-2")
        try:
            ldp2.drop_session("lsr-1", "lsr-2")
            # 50 ms doubling to the 2 s cap: 20 retries span ~33 s
            scheduler.run(until=scheduler.now + 40.0)
            assert ldp2.reconnects_abandoned == 1
            assert ldp2.reconnect_attempts == MAX_RETRIES
            assert not ldp2.sessions_recovered
        finally:
            from repro.net.topology import LinkAttributes

            topo.restore_link("lsr-1", "lsr-2", LinkAttributes())


class TestDataPlaneAfterConvergence:
    def test_traffic_flows_once_converged(self):
        """The full story: sessions, distribution, then packets."""
        topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
        net = MPLSNetwork(
            topo,
            roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER},
        )
        net.attach_host("ler-b", "10.2.0.0/16")
        ldp = MessageLDPProcess(topo, net.nodes, net.scheduler)
        ldp.start()
        net.scheduler.after(
            0.1,
            lambda: ldp.announce_fec(
                "f1", PrefixFEC("10.2.0.0/16"), egress="ler-b"
            ),
        )
        src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                        src="10.1.0.5", dst="10.2.0.9", rate_bps=1e6,
                        packet_size=500, start=0.5, stop=0.7)
        src.begin()
        net.run(until=2.0)
        assert ldp.converged("f1")
        assert net.delivered_count() == src.sent
