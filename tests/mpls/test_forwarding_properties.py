"""Property-based tests of the software forwarding engine's invariants.

For arbitrary table contents and packets, forwarding must never raise,
must only ever shrink TTLs, may change stack depth by at most one, and
must preserve CoS across swaps -- the invariants the paper's hardware
enforces structurally.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.mpls.forwarding import Action, ForwardingEngine
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.stack import LabelStack
from repro.net.addressing import IPv4Prefix
from repro.net.packet import IPv4Packet, MPLSPacket

labels = st.integers(min_value=16, max_value=40)
real_labels = st.integers(min_value=16, max_value=1 << 19)
ttls = st.integers(min_value=0, max_value=255)
cos_values = st.integers(min_value=0, max_value=7)


def nhlfe_strategy():
    return st.one_of(
        st.builds(
            NHLFE,
            op=st.just(LabelOp.SWAP),
            out_label=real_labels,
            next_hop=st.just("peer"),
        ),
        st.builds(
            NHLFE,
            op=st.just(LabelOp.PUSH),
            out_label=real_labels,
            next_hop=st.just("peer"),
        ),
        st.builds(NHLFE, op=st.just(LabelOp.POP), next_hop=st.just("peer")),
        st.builds(NHLFE, op=st.just(LabelOp.NOOP), next_hop=st.just("peer")),
    )


ilm_contents = st.dictionaries(labels, nhlfe_strategy(), max_size=8)

stacks = st.lists(
    st.builds(LabelEntry, label=labels, cos=cos_values, ttl=ttls),
    min_size=1,
    max_size=3,
).map(LabelStack)


def mpls_packet(stack):
    return MPLSPacket(stack, IPv4Packet(src="1.1.1.1", dst="2.2.2.2"))


class TestTransitInvariants:
    @given(ilm_contents, stacks)
    def test_never_raises(self, contents, stack):
        engine = ForwardingEngine()
        for label, nhlfe in contents.items():
            engine.ilm.install(label, nhlfe)
        engine.transit(mpls_packet(stack))  # must not raise

    @given(ilm_contents, stacks)
    def test_ttl_never_increases(self, contents, stack):
        engine = ForwardingEngine()
        for label, nhlfe in contents.items():
            engine.ilm.install(label, nhlfe)
        decision = engine.transit(mpls_packet(stack))
        if decision.action is Action.FORWARD_MPLS:
            before = max(e.ttl for e in stack)
            after = max(e.ttl for e in decision.packet.stack)
            assert after <= before

    @given(ilm_contents, stacks)
    def test_depth_changes_by_at_most_one(self, contents, stack):
        engine = ForwardingEngine()
        for label, nhlfe in contents.items():
            engine.ilm.install(label, nhlfe)
        decision = engine.transit(mpls_packet(stack))
        if decision.action is Action.FORWARD_MPLS:
            assert abs(decision.packet.stack.depth - stack.depth) <= 1

    @given(ilm_contents, stacks)
    def test_forwarded_stack_is_wellformed(self, contents, stack):
        engine = ForwardingEngine()
        for label, nhlfe in contents.items():
            engine.ilm.install(label, nhlfe)
        decision = engine.transit(mpls_packet(stack))
        if decision.action is Action.FORWARD_MPLS:
            out = decision.packet.stack
            assert out.entries[-1].is_bottom
            assert all(not e.is_bottom for e in out.entries[:-1])

    @given(real_labels, cos_values, st.integers(min_value=2, max_value=255))
    def test_swap_preserves_cos(self, out_label, cos, ttl):
        engine = ForwardingEngine()
        engine.ilm.install(
            20, NHLFE(op=LabelOp.SWAP, out_label=out_label, next_hop="x")
        )
        stack = LabelStack([LabelEntry(label=20, cos=cos, ttl=ttl)])
        decision = engine.transit(mpls_packet(stack))
        assert decision.packet.stack.top.cos == cos

    @given(ilm_contents, stacks)
    def test_miss_or_expiry_discards_with_reason(self, contents, stack):
        engine = ForwardingEngine()
        for label, nhlfe in contents.items():
            engine.ilm.install(label, nhlfe)
        top = stack.top
        decision = engine.transit(mpls_packet(stack))
        if top.label not in engine.ilm:
            assert decision.action is Action.DISCARD
            assert decision.reason

    @given(ilm_contents, stacks)
    def test_counts_monotone(self, contents, stack):
        engine = ForwardingEngine()
        for label, nhlfe in contents.items():
            engine.ilm.install(label, nhlfe)
        engine.transit(mpls_packet(stack))
        first = engine.counts
        total_first = (
            first.ilm_lookups + first.discards + first.swaps + first.pops
        )
        engine.transit(mpls_packet(stack))
        second = engine.counts
        total_second = (
            second.ilm_lookups + second.discards + second.swaps + second.pops
        )
        assert total_second >= total_first


class TestIngressInvariants:
    @given(
        real_labels,
        st.integers(min_value=2, max_value=255),
        st.integers(min_value=0, max_value=63),
    )
    def test_push_uses_ftn_label_and_decrements(self, label, ttl, dscp):
        engine = ForwardingEngine()
        engine.ftn.install(
            PrefixFEC("0.0.0.0/0"),
            NHLFE(op=LabelOp.PUSH, out_label=label, next_hop="x"),
        )
        packet = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", ttl=ttl, dscp=dscp)
        decision = engine.ingress(packet)
        assert decision.action is Action.FORWARD_MPLS
        assert decision.packet.stack.top.label == label
        assert decision.packet.inner.ttl == ttl - 1
        assert decision.packet.stack.top.ttl == ttl - 1

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_most_specific_fec_always_wins(self, dst):
        engine = ForwardingEngine()
        engine.ftn.install(
            PrefixFEC("0.0.0.0/0"),
            NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="x"),
        )
        engine.ftn.install(
            PrefixFEC(IPv4Prefix(dst, 32)),
            NHLFE(op=LabelOp.PUSH, out_label=200, next_hop="x"),
        )
        packet = IPv4Packet(src="1.1.1.1", dst=dst, ttl=9)
        decision = engine.ingress(packet)
        assert decision.packet.stack.top.label == 200
