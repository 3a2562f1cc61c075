"""Tests for the hardware node's flow-cache memo.

The memo replays complete forwarding outcomes -- decision, exact
hardware cycle deltas, LRU touches -- and is invalidated by any write
to the information base (the modifier's ``state_version``), including
corruption and scrub repairs, because search cycle counts depend on
pair *positions*.  The reference is the same node with every packet
one uncached pass (``measure``, :func:`tests.strategies.flows.uncached`).
"""

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.forwarding import Action
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import RouterRole
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket
from tests.strategies.flows import uncached


def ip_pkt(dst="10.2.0.9", ttl=64, dscp=0, seq=0):
    return IPv4Packet(src="10.1.0.5", dst=dst, ttl=ttl, dscp=dscp, seq=seq)


def labelled(label, ttl=20, seq=0):
    return MPLSPacket(
        LabelStack([LabelEntry(label=label, ttl=ttl)]), ip_pkt(seq=seq)
    )


def _transit_node(cached=True):
    node = HardwareLSRNode("lsr-1", RouterRole.LSR, ib_depth=64)
    node.ilm.install(
        100, NHLFE(op=LabelOp.SWAP, out_label=200, next_hop="lsr-2")
    )
    node.ilm.install(300, NHLFE(op=LabelOp.POP, next_hop="ler-b"))
    return node if cached else uncached(node)


def _ingress_node(cached=True, ib_depth=64):
    from repro.mpls.fec import PrefixFEC

    node = HardwareLSRNode("ler-a", RouterRole.LER, ib_depth=ib_depth)
    node.ftn.install(
        PrefixFEC("10.2.0.0/16"),
        NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="lsr-1"),
    )
    return node if cached else uncached(node)


class TestMemoEquivalence:
    def test_memoized_run_matches_uncached_passes_exactly(self):
        """N packets through the memo produce the same decisions and
        the same cumulative cycle counters as N uncached passes."""
        uncached = _transit_node(cached=False)
        cached = _transit_node(cached=True)
        for i in range(6):
            p_u, p_c = labelled(100, seq=i), labelled(100, seq=i)
            d_u = uncached.receive(p_u)
            d_c = cached.receive(p_c)
            assert d_c.action is d_u.action
            assert d_c.packet.stack == d_u.packet.stack
            # replay preserves each packet's own identity
            assert d_c.packet.inner.uid == p_c.inner.uid
            assert d_u.packet.inner.uid == p_u.inner.uid
            assert d_c.next_hop == d_u.next_hop
        assert cached.hw_data_cycles == uncached.hw_data_cycles
        assert cached.fast_path_packets == uncached.fast_path_packets
        assert (
            cached.modifier.total_cycles == uncached.modifier.total_cycles
        )
        assert cached.flow_cache.hits == 5

    def test_discard_outcomes_are_memoized_too(self):
        uncached = _transit_node(cached=False)
        cached = _transit_node(cached=True)
        for i in range(4):
            d_u = uncached.receive(labelled(42, seq=i))  # no ILM entry
            d_c = cached.receive(labelled(42, seq=i))
            assert d_c.action is d_u.action is Action.DISCARD
            assert d_c.reason == d_u.reason
        assert cached.hw_data_cycles == uncached.hw_data_cycles
        assert cached.flow_cache.hits == 3

    def test_ingress_fast_path_is_memoized_after_install(self):
        uncached = _ingress_node(cached=False)
        cached = _ingress_node(cached=True)
        for i in range(5):
            d_u = uncached.receive(ip_pkt(seq=i))
            d_c = cached.receive(ip_pkt(seq=i))
            assert d_c.action is d_u.action is Action.FORWARD_MPLS
            assert d_c.packet.stack == d_u.packet.stack
        assert cached.hw_data_cycles == uncached.hw_data_cycles
        assert cached.slow_path_packets == uncached.slow_path_packets == 1
        assert cached.fast_path_packets == uncached.fast_path_packets == 4
        # packet 1 installed the level-1 pair (a write: not memoizable),
        # packet 2 filled the memo, packets 3-5 replayed it
        assert cached.flow_cache.hits == 3


class TestMemoInvalidation:
    def test_ilm_install_flushes_memo(self):
        node = _transit_node()
        node.receive(labelled(100, seq=0))
        node.receive(labelled(100, seq=1))
        assert node.flow_cache.hits == 1
        node.ilm.install(
            100, NHLFE(op=LabelOp.SWAP, out_label=999, next_hop="lsr-9")
        )
        decision = node.receive(labelled(100, seq=2))
        assert decision.packet.stack.top.label == 999
        assert node.flow_cache.invalidations >= 1

    def test_corruption_flushes_memo_via_state_version(self):
        """An SEU flip changes what a search returns without touching
        the ILM generation; the modifier's state_version must catch it."""
        node = _transit_node()
        node.receive(labelled(100, seq=0))
        node.receive(labelled(100, seq=1))
        version_before = node.modifier.state_version
        assert node.modifier.corrupt_pair(1, 0, label_xor=0xFF)
        assert node.modifier.state_version > version_before
        node.receive(labelled(100, seq=2))
        assert node.flow_cache.invalidations >= 1

    def test_scrub_repair_flushes_memo(self):
        """A scrub that repairs a corrupted pair writes the info base;
        the memo must not replay decisions from before the repair."""
        node = _transit_node()
        d_good = node.receive(labelled(100, seq=0))
        node.receive(labelled(100, seq=1))
        node.modifier.corrupt_pair(1, 0, label_xor=0x3FF)
        reports = node.scrub_info_base()
        assert sum(r.repaired for r in reports) > 0
        decision = node.receive(labelled(100, seq=2))
        # post-repair behavior equals the original good decision
        assert decision.action is d_good.action
        assert decision.packet.stack == d_good.packet.stack

    def test_flow_cache_eviction_flushes_memo(self):
        """A level-1 eviction (remove_pair + write_pair) moves pair
        positions; memoized search cycles would be wrong."""
        node = _ingress_node(ib_depth=2)
        # ib_depth 2, no mirrored ILM entries -> flow cache capacity 2
        node.receive(ip_pkt(dst="10.2.0.1", seq=0))
        node.receive(ip_pkt(dst="10.2.0.1", seq=1))  # fills memo
        node.receive(ip_pkt(dst="10.2.0.1", seq=2))  # memo hit
        hits_before = node.flow_cache.hits
        node.receive(ip_pkt(dst="10.2.0.2", seq=3))
        node.receive(ip_pkt(dst="10.2.0.3", seq=4))  # evicts 10.2.0.1
        assert node.flow_cache_evictions == 1
        node.receive(ip_pkt(dst="10.2.0.3", seq=5))
        assert node.flow_cache.invalidations >= 1
        assert node.flow_cache.hits >= hits_before

    def test_replay_touches_the_level1_lru(self):
        """Memo hits must refresh the destination's LRU slot exactly as
        uncached fast-path hits do, or eviction order diverges."""
        node = _ingress_node(ib_depth=2)
        node.receive(ip_pkt(dst="10.2.0.1", seq=0))
        node.receive(ip_pkt(dst="10.2.0.2", seq=1))
        # both installed; now hit .1 repeatedly through the memo
        node.receive(ip_pkt(dst="10.2.0.1", seq=2))
        node.receive(ip_pkt(dst="10.2.0.1", seq=3))
        assert list(node._flow_cache) == [
            ip_pkt(dst="10.2.0.2").identifier(),
            ip_pkt(dst="10.2.0.1").identifier(),
        ]
        # the next eviction takes .2 (the LRU), not .1
        node.receive(ip_pkt(dst="10.2.0.3", seq=4))
        assert ip_pkt(dst="10.2.0.1").identifier() in node._flow_cache
        assert (
            ip_pkt(dst="10.2.0.2").identifier() not in node._flow_cache
        )


class TestAggregates:
    def test_aggregate_processing_matches_a_packet_loop(self):
        from repro.net.aggregate import FlowAggregate

        uncached = _transit_node(cached=False)
        cached = _transit_node(cached=True)
        for i in range(10):
            uncached.receive(labelled(100, seq=i))
        train = FlowAggregate(template=labelled(100), count=10)
        cached.receive(train.template, train)
        assert cached.hw_data_cycles == uncached.hw_data_cycles
        assert cached.stats.received == uncached.stats.received
        assert (
            cached.stats.forwarded_mpls == uncached.stats.forwarded_mpls
        )
        assert (
            cached.modifier.total_cycles == uncached.modifier.total_cycles
        )
