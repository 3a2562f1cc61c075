"""Unit tests for the batched fast path's per-node flow cache."""

import pytest

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action, ForwardingEngine
from repro.mpls.fastpath import FlowCache, key_of
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.stack import LabelStack
from repro.net.aggregate import FlowAggregate
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.obs import ListSink, telemetry_session
from repro.obs.events import LabelOpApplied


def ip_pkt(dst="10.0.0.1", ttl=64, dscp=0, seq=0):
    return IPv4Packet(src="192.168.0.1", dst=dst, ttl=ttl, dscp=dscp, seq=seq)


def labelled(label, ttl=64, inner=None):
    inner = inner or ip_pkt()
    return MPLSPacket(
        LabelStack([LabelEntry(label=label, ttl=ttl)]), inner
    )


def _engine():
    engine = ForwardingEngine(node_name="lsr-1")
    engine.ftn.install(
        PrefixFEC("10.0.0.0/8"),
        NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="lsr-2"),
    )
    engine.ilm.install(
        200, NHLFE(op=LabelOp.SWAP, out_label=201, next_hop="lsr-3")
    )
    engine.ilm.install(300, NHLFE(op=LabelOp.POP, next_hop="ler-b"))
    return engine


class TestKeys:
    def test_ip_key_ignores_identity_fields(self):
        a = ip_pkt(seq=1)
        b = ip_pkt(seq=2)
        assert a.uid != b.uid
        assert key_of(a) == key_of(b)

    def test_ip_key_separates_ttl_and_dscp(self):
        assert key_of(ip_pkt(ttl=64)) != key_of(ip_pkt(ttl=63))
        assert key_of(ip_pkt(dscp=0)) != key_of(ip_pkt(dscp=46))

    def test_mpls_key_covers_stack_and_inner_ttl(self):
        assert key_of(labelled(200)) == key_of(labelled(200))
        assert key_of(labelled(200)) != key_of(labelled(201))
        assert key_of(labelled(200, ttl=3)) != key_of(labelled(200, ttl=4))
        assert key_of(
            labelled(200, inner=ip_pkt(ttl=9))
        ) != key_of(labelled(200, inner=ip_pkt(ttl=8)))


class TestHitEquivalence:
    def test_hit_decision_matches_scalar(self):
        engine = _engine()
        oracle = ForwardingEngine(engine.ilm, engine.ftn, "lsr-1")
        cache = FlowCache(engine)
        for make in (
            lambda i: ip_pkt(seq=i),
            lambda i: labelled(200, inner=ip_pkt(seq=i)),
            lambda i: labelled(300, inner=ip_pkt(seq=i)),
            lambda i: ip_pkt(dst="99.0.0.1", seq=i),  # discard
        ):
            for i in range(3):
                packet = make(i)
                got = cache.process(packet)
                want = oracle.process(packet)
                assert got.action is want.action
                assert got.packet == want.packet
                assert got.next_hop == want.next_hop
                assert got.out_interface == want.out_interface
                assert got.reason == want.reason
        assert cache.hits == 8
        assert cache.misses == 4

    def test_replay_preserves_identity_of_each_packet(self):
        engine = _engine()
        cache = FlowCache(engine)
        first = ip_pkt(seq=0)
        second = ip_pkt(seq=1)
        cache.process(first)
        replayed = cache.process(second)
        assert replayed.packet.inner.uid == second.uid
        assert replayed.packet.inner.seq == 1

    def test_counts_advance_exactly_as_scalar(self):
        engine = _engine()
        oracle = ForwardingEngine(engine.ilm, engine.ftn, "lsr-1")
        cache = FlowCache(engine)
        packets = [ip_pkt(seq=i) for i in range(5)] + [
            labelled(200, inner=ip_pkt(seq=i)) for i in range(5)
        ]
        for packet in packets:
            cache.process(packet)
            oracle.process(packet)
        assert engine.counts == oracle.counts


class TestInvalidation:
    def test_install_invalidates(self):
        engine = _engine()
        cache = FlowCache(engine)
        assert cache.process(labelled(200)).packet.stack.top.label == 201
        engine.ilm.install(
            200, NHLFE(op=LabelOp.SWAP, out_label=999, next_hop="lsr-9")
        )
        decision = cache.process(labelled(200))
        assert decision.packet.stack.top.label == 999
        assert cache.invalidations == 1

    def test_remove_invalidates(self):
        engine = _engine()
        cache = FlowCache(engine)
        assert cache.process(labelled(200)).action is Action.FORWARD_MPLS
        engine.ilm.remove(200)
        assert cache.process(labelled(200)).action is Action.DISCARD

    def test_commit_invalidates_but_rollback_does_not(self):
        engine = _engine()
        cache = FlowCache(engine)
        cache.process(labelled(200))
        engine.ilm.begin()
        engine.ilm.install(
            200, NHLFE(op=LabelOp.SWAP, out_label=555, next_hop="x")
        )
        engine.ilm.rollback()
        cache.process(labelled(200))
        assert cache.invalidations == 0  # rollback left the bank alone
        assert cache.hits == 1
        engine.ilm.begin()
        engine.ilm.install(
            200, NHLFE(op=LabelOp.SWAP, out_label=555, next_hop="x")
        )
        engine.ilm.commit()
        decision = cache.process(labelled(200))
        assert decision.packet.stack.top.label == 555
        assert cache.invalidations == 1

    def test_stale_flush_invalidates(self):
        engine = _engine()
        cache = FlowCache(engine)
        cache.process(labelled(200))
        engine.ilm.mark_all_stale()
        engine.ilm.flush_stale()
        assert cache.process(labelled(200)).action is Action.DISCARD

    def test_ftn_mutation_invalidates_ingress(self):
        engine = _engine()
        cache = FlowCache(engine)
        assert cache.process(ip_pkt()).packet.stack.top.label == 100
        engine.ftn.install(
            PrefixFEC("10.0.0.0/8"),
            NHLFE(op=LabelOp.PUSH, out_label=777, next_hop="lsr-2"),
        )
        assert cache.process(ip_pkt()).packet.stack.top.label == 777


    def test_a_cache_built_before_its_tables_counts_no_flush(self):
        """A node builds its cache before the control plane programs
        its tables: the first packet adopts the version it sees."""
        engine = ForwardingEngine(node_name="lsr-1")
        cache = FlowCache(engine)
        engine.ilm.install(
            200, NHLFE(op=LabelOp.SWAP, out_label=201, next_hop="lsr-3")
        )
        assert cache.process(labelled(200)).packet.stack.top.label == 201
        assert cache.invalidations == 0
        engine.ilm.install(
            200, NHLFE(op=LabelOp.SWAP, out_label=999, next_hop="lsr-9")
        )
        assert cache.process(labelled(200)).packet.stack.top.label == 999
        assert cache.invalidations == 1


class TestOneMode:
    @pytest.mark.parametrize("cls", [LSRNode, HardwareLSRNode])
    def test_a_node_forwards_through_the_cache_it_was_built_with(self, cls):
        node = cls("lsr-1", RouterRole.LSR)
        cache = node.flow_cache
        assert cache.engine is node.engine
        node.ilm.install(
            200, NHLFE(op=LabelOp.SWAP, out_label=201, next_hop="lsr-3")
        )
        train = FlowAggregate(template=labelled(200), count=4)
        node.receive(train.template, train)
        node.receive(labelled(200))
        assert node.flow_cache is cache
        assert (cache.misses, cache.hits) == (1, 1)
        assert node.stats.received == node.stats.forwarded_mpls == 5


class TestLRU:
    def test_capacity_evicts_least_recently_used(self):
        engine = _engine()
        cache = FlowCache(engine, capacity=2)
        a, b, c = (
            ip_pkt(dst="10.0.0.1"),
            ip_pkt(dst="10.0.0.2"),
            ip_pkt(dst="10.0.0.3"),
        )
        cache.process(a)
        cache.process(b)
        cache.process(a)  # refresh a; b is now LRU
        cache.process(c)  # evicts b
        assert cache.evictions == 1
        assert key_of(a) in cache._entries
        assert key_of(b) not in cache._entries
        assert key_of(c) in cache._entries

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowCache(_engine(), capacity=0)


class TestTelemetryReplay:
    def test_hits_mirror_op_counters_and_events(self):
        """With telemetry on, N cached packets must produce exactly the
        registry increments and LabelOpApplied events N scalar packets
        would."""
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            engine = _engine()
            cache = FlowCache(engine)
            for i in range(4):
                cache.process(labelled(200, inner=ip_pkt(seq=i)))
            cached_events = [
                e for e in sink.events if isinstance(e, LabelOpApplied)
            ]
            cached_swaps = tel.registry.value(
                "repro_mpls_ops_total", node="lsr-1", op="swap"
            )
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            oracle = _engine()
            for i in range(4):
                oracle.process(labelled(200, inner=ip_pkt(seq=i)))
            scalar_events = [
                e for e in sink.events if isinstance(e, LabelOpApplied)
            ]
            scalar_swaps = tel.registry.value(
                "repro_mpls_ops_total", node="lsr-1", op="swap"
            )
        assert cached_swaps == scalar_swaps == 4
        assert len(cached_events) == len(scalar_events) == 4
        for got, want in zip(cached_events, scalar_events):
            assert (got.node, got.op, got.label_in, got.label_out) == (
                want.node,
                want.op,
                want.label_in,
                want.label_out,
            )

    def test_unobserved_fill_is_not_served_while_observing(self):
        """An entry filled with telemetry off has no recorded ops; it
        must be refilled -- not replayed -- once telemetry turns on."""
        with telemetry_session(enabled=False) as tel:
            cache = FlowCache(_engine())
            cache.process(labelled(200))  # unobserved fill
            tel.enable()
            cache.process(labelled(200))
            assert cache.hits == 0  # refill, not a (silent) hit
            assert tel.registry.value(
                "repro_mpls_ops_total", node="lsr-1", op="swap"
            ) == 1

    def test_scale_last_multiplies_counters_not_events(self):
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            engine = _engine()
            cache = FlowCache(engine)
            cache.process(labelled(200), count=10)
            assert engine.counts.swaps == 10
            assert tel.registry.value(
                "repro_mpls_ops_total", node="lsr-1", op="swap"
            ) == 10
            events = [
                e for e in sink.events if isinstance(e, LabelOpApplied)
            ]
            assert len(events) == 1  # aggregates trade event granularity

    def test_train_on_a_hit_advances_counters_and_emits_once(self):
        with telemetry_session() as tel:
            engine = _engine()
            cache = FlowCache(engine)
            cache.process(labelled(200))  # fill
            sink = tel.events.add_sink(ListSink())
            cache.process(labelled(200), count=10)  # hit
            assert (cache.hits, cache.misses) == (1, 1)
            assert engine.counts.swaps == 11
            assert tel.registry.value(
                "repro_mpls_ops_total", node="lsr-1", op="swap"
            ) == 11
            events = [
                e for e in sink.events if isinstance(e, LabelOpApplied)
            ]
            assert len(events) == 1


class TestCrossCheck:
    def test_cross_check_passes_on_consistent_cache(self):
        engine = _engine()
        cache = FlowCache(engine, cross_check=True)
        for i in range(5):
            cache.process(labelled(200, inner=ip_pkt(seq=i)))
        assert cache.hits == 4
