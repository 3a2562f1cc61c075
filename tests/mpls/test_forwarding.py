"""Tests for the software label-switching engine."""

import dataclasses

import pytest

from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action, ForwardingEngine, OpCounts
from repro.mpls.label import (
    IPV4_EXPLICIT_NULL,
    ROUTER_ALERT,
    LabelEntry,
    LabelOp,
)
from repro.mpls.nhlfe import NHLFE
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket


def ip_pkt(dst="10.0.0.1", ttl=64, dscp=0):
    return IPv4Packet(src="192.168.0.1", dst=dst, ttl=ttl, dscp=dscp)


def labelled(label, ttl=64, inner=None, extra=()):
    inner = inner or ip_pkt()
    entries = [LabelEntry(label=label, ttl=ttl)] + [
        LabelEntry(label=l, ttl=ttl) for l in extra
    ]
    return MPLSPacket(LabelStack(entries), inner)


class TestIngress:
    def _engine(self):
        engine = ForwardingEngine(node_name="ler-a")
        engine.ftn.install(
            PrefixFEC("10.0.0.0/8"),
            NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="lsr-1"),
        )
        return engine

    def test_push_label(self):
        engine = self._engine()
        decision = engine.ingress(ip_pkt())
        assert decision.action is Action.FORWARD_MPLS
        assert decision.packet.stack.top.label == 100
        assert decision.next_hop == "lsr-1"

    def test_ip_ttl_decremented_and_copied(self):
        engine = self._engine()
        decision = engine.ingress(ip_pkt(ttl=60))
        assert decision.packet.inner.ttl == 59
        assert decision.packet.stack.top.ttl == 59

    def test_no_route_discard(self):
        engine = self._engine()
        decision = engine.ingress(ip_pkt(dst="99.0.0.1"))
        assert decision.action is Action.DISCARD
        assert "no FEC" in decision.reason

    def test_ttl_expiry_at_ingress(self):
        engine = self._engine()
        decision = engine.ingress(ip_pkt(ttl=1))
        assert decision.action is Action.DISCARD
        assert "TTL" in decision.reason

    def test_cos_from_dscp(self):
        engine = self._engine()
        decision = engine.ingress(ip_pkt(dscp=46))  # EF -> CoS 5
        assert decision.packet.stack.top.cos == 5

    def test_cos_override_from_nhlfe(self):
        engine = ForwardingEngine(node_name="ler-a")
        engine.ftn.install(
            PrefixFEC("10.0.0.0/8"),
            NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="lsr-1", cos=7),
        )
        decision = engine.ingress(ip_pkt(dscp=0))
        assert decision.packet.stack.top.cos == 7

    def test_non_push_ftn_forwards_ip(self):
        engine = ForwardingEngine(node_name="ler-a")
        engine.ftn.install(
            PrefixFEC("10.0.0.0/8"),
            NHLFE(op=LabelOp.NOOP, next_hop="attached"),
        )
        decision = engine.ingress(ip_pkt())
        assert decision.action is Action.FORWARD_IP

    def test_counts(self):
        engine = self._engine()
        engine.ingress(ip_pkt())
        assert engine.counts.ftn_lookups == 1
        assert engine.counts.pushes == 1
        assert engine.counts.ttl_updates == 1


class TestTransit:
    def _engine(self):
        engine = ForwardingEngine(node_name="lsr-1")
        engine.ilm.install(
            100, NHLFE(op=LabelOp.SWAP, out_label=200, next_hop="lsr-2")
        )
        engine.ilm.install(300, NHLFE(op=LabelOp.POP, next_hop="ler-b"))
        engine.ilm.install(
            400,
            NHLFE(op=LabelOp.PUSH, out_label=500, next_hop="tunnel-head"),
        )
        return engine

    def test_swap(self):
        engine = self._engine()
        decision = engine.transit(labelled(100, ttl=10))
        assert decision.action is Action.FORWARD_MPLS
        assert decision.packet.stack.top.label == 200
        assert decision.packet.stack.top.ttl == 9

    def test_lookup_miss_discards(self):
        """The paper's Figure 16: unknown label -> packet discard."""
        engine = self._engine()
        decision = engine.transit(labelled(27))
        assert decision.action is Action.DISCARD
        assert "27" in decision.reason
        assert engine.counts.discards == 1

    def test_ttl_expiry_discards(self):
        engine = self._engine()
        decision = engine.transit(labelled(100, ttl=1))
        assert decision.action is Action.DISCARD
        assert "TTL" in decision.reason

    def test_pop_to_ip_at_egress(self):
        engine = self._engine()
        decision = engine.transit(labelled(300, ttl=10))
        assert decision.action is Action.FORWARD_IP
        assert isinstance(decision.packet, IPv4Packet)
        assert decision.packet.ttl <= 9

    def test_pop_exposes_lower_label(self):
        engine = self._engine()
        packet = labelled(300, ttl=10, extra=(700,))
        decision = engine.transit(packet)
        assert decision.action is Action.FORWARD_MPLS
        assert decision.packet.stack.top.label == 700
        assert decision.packet.stack.depth == 1

    def test_pop_propagates_ttl_down(self):
        engine = self._engine()
        inner_entry_ttl = 200
        packet = MPLSPacket(
            LabelStack(
                [
                    LabelEntry(label=300, ttl=5),
                    LabelEntry(label=700, ttl=inner_entry_ttl),
                ]
            ),
            ip_pkt(),
        )
        decision = engine.transit(packet)
        # uniform model: the smaller (outer, decremented) TTL wins
        assert decision.packet.stack.top.ttl == 4

    def test_push_nests_tunnel(self):
        engine = self._engine()
        decision = engine.transit(labelled(400, ttl=10))
        assert decision.packet.stack.depth == 2
        assert decision.packet.stack.top.label == 500
        assert decision.packet.stack.entries[1].label == 400
        assert decision.packet.stack.entries[1].ttl == 9

    def test_router_alert_goes_local(self):
        engine = self._engine()
        decision = engine.transit(labelled(ROUTER_ALERT))
        assert decision.action is Action.DELIVER_LOCAL

    def test_explicit_null_pops(self):
        engine = self._engine()
        packet = MPLSPacket(
            LabelStack([LabelEntry(label=IPV4_EXPLICIT_NULL, ttl=9)]),
            ip_pkt(),
        )
        decision = engine.transit(packet)
        assert decision.action is Action.FORWARD_IP

    def test_empty_stack_discards(self):
        engine = self._engine()
        packet = MPLSPacket(LabelStack(), ip_pkt())
        decision = engine.transit(packet)
        assert decision.action is Action.DISCARD

    def test_swap_preserves_cos(self):
        engine = self._engine()
        packet = MPLSPacket(
            LabelStack([LabelEntry(label=100, cos=5, ttl=10)]), ip_pkt()
        )
        decision = engine.transit(packet)
        assert decision.packet.stack.top.cos == 5


class TestProcessDispatch:
    def test_ip_goes_to_ingress(self):
        engine = ForwardingEngine()
        decision = engine.process(ip_pkt())
        assert decision.action is Action.DISCARD  # empty FTN

    def test_mpls_goes_to_transit(self):
        engine = ForwardingEngine()
        decision = engine.process(labelled(100))
        assert decision.action is Action.DISCARD  # empty ILM

    def test_reset_counts(self):
        engine = ForwardingEngine()
        engine.process(ip_pkt())
        engine.reset_counts()
        assert engine.counts.ftn_lookups == 0


class TestOpCounts:
    def test_merged(self):
        a = OpCounts(pushes=1, swaps=2)
        b = OpCounts(pushes=3, discards=1)
        m = a.merged(b)
        assert m.pushes == 4
        assert m.swaps == 2
        assert m.discards == 1

    @pytest.mark.parametrize(
        "field",
        [f.name for f in dataclasses.fields(OpCounts)],
    )
    def test_merged_sums_each_field_and_only_it(self, field):
        """The software cost model prices every field: a merge that
        dropped or crossed one would misprice a whole run."""
        a = OpCounts(**{field: 3})
        b = OpCounts(**{field: 4})
        merged = a.merged(b)
        assert getattr(merged, field) == 7
        assert merged == OpCounts(**{field: 7})
        assert a == OpCounts(**{field: 3})  # the operands stay as they were
