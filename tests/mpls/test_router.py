"""Tests for LER/LSR node behaviour."""

import pytest

from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket


def ip_pkt(dst="10.0.0.1"):
    return IPv4Packet(src="192.168.0.1", dst=dst)


class TestLSRNode:
    def test_ler_classifies_ip(self):
        node = LSRNode("ler-a", RouterRole.LER)
        node.ftn.install(
            PrefixFEC("10.0.0.0/8"),
            NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="lsr-1"),
        )
        decision = node.receive(ip_pkt())
        assert decision.action is Action.FORWARD_MPLS
        assert node.stats.forwarded_mpls == 1

    def test_core_lsr_rejects_unlabelled(self):
        node = LSRNode("lsr-1", RouterRole.LSR)
        decision = node.receive(ip_pkt())
        assert decision.action is Action.DISCARD
        assert "unlabelled" in decision.reason
        assert node.stats.discarded == 1

    def test_core_lsr_switches_labelled(self):
        node = LSRNode("lsr-1", RouterRole.LSR)
        node.ilm.install(
            100, NHLFE(op=LabelOp.SWAP, out_label=200, next_hop="lsr-2")
        )
        packet = MPLSPacket(LabelStack([LabelEntry(label=100, ttl=9)]), ip_pkt())
        decision = node.receive(packet)
        assert decision.action is Action.FORWARD_MPLS
        assert decision.packet.stack.top.label == 200

    def test_neighbor_interface_resolution(self):
        node = LSRNode("lsr-1", RouterRole.LSR)
        node.add_interface("if0")
        node.neighbor_interfaces["lsr-2"] = "if0"
        node.ilm.install(
            100, NHLFE(op=LabelOp.SWAP, out_label=200, next_hop="lsr-2")
        )
        packet = MPLSPacket(LabelStack([LabelEntry(label=100, ttl=9)]), ip_pkt())
        decision = node.receive(packet)
        assert decision.out_interface == "if0"

    def test_explicit_interface_not_overridden(self):
        node = LSRNode("lsr-1", RouterRole.LSR)
        node.neighbor_interfaces["lsr-2"] = "if9"
        node.ilm.install(
            100,
            NHLFE(
                op=LabelOp.SWAP,
                out_label=200,
                next_hop="lsr-2",
                out_interface="if0",
            ),
        )
        packet = MPLSPacket(LabelStack([LabelEntry(label=100, ttl=9)]), ip_pkt())
        decision = node.receive(packet)
        assert decision.out_interface == "if0"

    def test_add_interface(self):
        node = LSRNode("n")
        node.add_interface("if0")
        node.add_interface("if1")
        assert node.interfaces == ["if0", "if1"]
        with pytest.raises(ValueError):
            node.add_interface("if0")

    def test_stats_discard_reasons(self):
        node = LSRNode("lsr-1", RouterRole.LSR)
        packet = MPLSPacket(LabelStack([LabelEntry(label=42, ttl=9)]), ip_pkt())
        node.receive(packet)
        assert sum(node.stats.discard_reasons.values()) == 1

    def test_is_edge(self):
        assert LSRNode("a", RouterRole.LER).is_edge
        assert not LSRNode("b", RouterRole.LSR).is_edge
