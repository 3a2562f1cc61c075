"""Tests for fast reroute (path protection)."""

import pytest

from repro.control.frr import FastRerouteManager
from repro.control.routing import LinkStateDatabase
from repro.control.rsvp_te import RSVPTESignaler, SignalingError
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import LSRNode, RouterRole
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import Topology, line, paper_figure1
from repro.net.traffic import CBRSource


def _env():
    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    nodes = {
        name: LSRNode(
            name,
            RouterRole.LER if name.startswith("ler") else RouterRole.LSR,
        )
        for name in topo.nodes
    }
    sig = RSVPTESignaler(topo, nodes)
    return topo, nodes, sig


class TestProtect:
    def test_primary_and_backup_signalled(self):
        _, _, sig = _env()
        frr = FastRerouteManager(sig)
        protected = frr.protect(
            "p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16")
        )
        assert protected.primary.up and protected.backup.up
        assert protected.active == "primary"
        # maximally disjoint: no shared core links
        shared = set(protected.primary.links()) & set(
            protected.backup.links()
        )
        assert all("ler-a" in link for link in shared)

    def test_link_disjoint_penalty_goes_through_set_metric(self, monkeypatch):
        """ler-a is single-homed, so the backup comes from the
        link-penalising fallback: every metric it touches moves through
        ``Topology.set_metric`` (an SPF memo sees it come and go) and is
        back to its own value afterwards."""
        topo, _, sig = _env()
        topo.set_metric("lsr-1", "lsr-3", 2)
        lsdb = LinkStateDatabase(topo)
        before = lsdb.spf("ler-a")
        moves = []
        set_metric = Topology.set_metric

        def recording(self, a, b, metric):
            moves.append((a, b, metric))
            set_metric(self, a, b, metric)

        monkeypatch.setattr(Topology, "set_metric", recording)
        protected = FastRerouteManager(sig).protect(
            "p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16")
        )
        primary = list(protected.primary.links())
        assert moves == [(a, b, 1000.0) for a, b in primary] + [
            (a, b, 1.0) for a, b in primary
        ]
        assert topo.version == 11 + len(moves)
        assert {
            (a, b): attrs.metric for a, b, attrs in topo.edges_with_attrs()
        } == {
            link: 2 if link == ("lsr-1", "lsr-3") else 1.0
            for link in topo.links
        }
        after = lsdb.spf("ler-a")
        assert after is not before and after.paths == before.paths

    def test_penalty_is_undone_when_no_route_exists(self):
        topo = line(3, bandwidth_bps=10e6)
        nodes = {
            "n0": LSRNode("n0", RouterRole.LER),
            "n1": LSRNode("n1", RouterRole.LSR),
            "n2": LSRNode("n2", RouterRole.LER),
        }
        frr = FastRerouteManager(RSVPTESignaler(topo, nodes))
        with pytest.raises(SignalingError):
            frr.protect("p1", "n0", "n2", PrefixFEC("10.2.0.0/16"))
        assert [attrs.metric for _, _, attrs in topo.edges_with_attrs()] == [
            1.0, 1.0
        ]

    def test_duplicate_name_rejected(self):
        _, _, sig = _env()
        frr = FastRerouteManager(sig)
        frr.protect("p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16"))
        with pytest.raises(SignalingError):
            frr.protect("p1", "ler-a", "ler-b", PrefixFEC("10.3.0.0/16"))

    def test_no_disjoint_path_rejected(self):
        """On a pure line there is no alternative path at all."""
        topo = line(3, bandwidth_bps=10e6)
        nodes = {
            "n0": LSRNode("n0", RouterRole.LER),
            "n1": LSRNode("n1", RouterRole.LSR),
            "n2": LSRNode("n2", RouterRole.LER),
        }
        sig = RSVPTESignaler(topo, nodes)
        frr = FastRerouteManager(sig)
        with pytest.raises(SignalingError):
            frr.protect("p1", "n0", "n2", PrefixFEC("10.2.0.0/16"))


class TestSwitchover:
    def test_failure_on_primary_switches_to_backup(self):
        _, nodes, sig = _env()
        frr = FastRerouteManager(sig)
        protected = frr.protect(
            "p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16")
        )
        mid = protected.primary.path[2]  # lsr-2 or lsr-3
        repaired = frr.handle_link_failure("lsr-1", mid)
        assert repaired == ["p1"]
        assert protected.active == "backup"
        assert frr.switchovers == 1
        # the ingress now pushes the backup's first label
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        _, nhlfe = nodes["ler-a"].ftn.lookup(packet)
        assert nhlfe.out_label == protected.backup.hop_labels[0]

    def test_unrelated_failure_is_ignored(self):
        _, _, sig = _env()
        frr = FastRerouteManager(sig)
        protected = frr.protect(
            "p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16")
        )
        backup_mid = protected.backup.path[2]
        repaired = frr.handle_link_failure(backup_mid, "ler-b")
        assert repaired == []
        assert protected.active == "primary"

    def test_revert(self):
        _, nodes, sig = _env()
        frr = FastRerouteManager(sig)
        protected = frr.protect(
            "p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16")
        )
        mid = protected.primary.path[2]
        frr.handle_link_failure("lsr-1", mid)
        frr.revert("p1")
        assert protected.active == "primary"
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        _, nhlfe = nodes["ler-a"].ftn.lookup(packet)
        assert nhlfe.out_label == protected.primary.hop_labels[0]

    def test_double_failure_leaves_state(self):
        _, _, sig = _env()
        frr = FastRerouteManager(sig)
        protected = frr.protect(
            "p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16")
        )
        p_mid = protected.primary.path[2]
        b_mid = protected.backup.path[2]
        frr.handle_link_failure("lsr-1", p_mid)
        assert protected.active == "backup"
        # now the backup dies too: nothing to switch to
        repaired = frr.handle_link_failure("lsr-1", b_mid)
        assert repaired == []
        assert protected.active == "backup"


class TestLiveSwitchover:
    def test_traffic_survives_failure(self):
        """End to end: packets flow, the primary's core link dies, FRR
        steers onto the backup, packets keep flowing."""
        topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
        net = MPLSNetwork(
            topo,
            roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER},
        )
        net.attach_host("ler-b", "10.2.0.0/16")
        sig = RSVPTESignaler(topo, net.nodes)
        frr = FastRerouteManager(sig)
        protected = frr.protect(
            "p1", "ler-a", "ler-b", PrefixFEC("10.2.0.0/16")
        )
        src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                        src="10.1.0.5", dst="10.2.0.9", rate_bps=1e6,
                        packet_size=500, stop=0.4)
        src.begin()
        mid = protected.primary.path[2]

        def fail_and_repair():
            net.fail_link("lsr-1", mid)
            frr.handle_link_failure("lsr-1", mid)

        net.scheduler.at(0.2, fail_and_repair)
        net.run(until=1.0)
        # at most a couple of in-flight packets die during switchover
        lost = src.sent - net.delivered_count()
        assert lost <= 3
        assert protected.active == "backup"
        # traffic after the failure used the backup's middle node
        backup_mid = protected.backup.path[2]
        assert net.nodes[backup_mid].stats.forwarded_mpls > 0
