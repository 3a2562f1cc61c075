"""Differential tests for the flow cache: a node with it against the
same node without it.

:class:`~repro.mpls.fastpath.FlowCache` is the one decision memo for
both node kinds: it replays a pass's decision and counter deltas while
nothing the decision depends on has moved.  The reference is the
simplest node there is -- the same class, batching off, every packet
one real pass.  Both run the same script (:mod:`tests.strategies.flows`):
interleaved packets and trains, ILM/FTN writes, transactions, stale
flushes and, on a hardware node, ``corrupt_pair``, ``scrub_info_base``
and level-1 evictions (an information base 2-4 pairs deep), with
telemetry held fixed per example (off, on, or on with a span recorder
sampling half the packets).  After every step they must agree on the
decision, the node stats, the engine's op counts, the hardware counters,
the modifier's total cycles and state version, the level-1 LRU order
and evictions, and every metric in the registry; and on the events of
every step but a train.

A train of N on the cached node is N packets on the reference: one
:meth:`FlowCache.process` call must advance every counter exactly as N
passes would, and emits no per-packet event.  The same scripts drive a
bare engine's cache in its cross-check mode, at tiny capacities too.
Two seeded mutants show the suite is not vacuous.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fastpath import DEFAULT_CAPACITY, FlowCache
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import ForwardingEngine
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.net.aggregate import FlowAggregate
from repro.obs import ListSink, telemetry_session
from repro.obs.metrics import Histogram
from repro.obs.spans import SpanRecorder
from tests.strategies.flows import apply, packet, scripts


def _node(cls, role, ib_depth, capacity):
    """``cls`` programmed with one swap and one push; ``capacity`` None
    leaves batching off."""
    if issubclass(cls, HardwareLSRNode):
        node = cls("n1", role, ib_depth=ib_depth)
    else:
        node = cls("n1", role)
    node.ilm.install(100, NHLFE(op=LabelOp.SWAP, out_label=500, next_hop="n2"))
    node.ftn.install(
        PrefixFEC("10.2.0.0/16"),
        NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="n2"),
    )
    if capacity is not None:
        node.enable_batching(capacity)
    return node


def _state(node, decision):
    state = {
        "decision": decision,
        # every field, the discard reasons too
        "stats": repr(node.stats),
        "counts": node.engine.counts.as_dict(),
    }
    if isinstance(node, HardwareLSRNode):
        state.update({
            "hw": (
                node.hw_data_cycles,
                node.hw_control_cycles,
                node.fast_path_packets,
                node.slow_path_packets,
            ),
            "modifier": (node.modifier.total_cycles, node.modifier.state_version),
            "level-1 LRU": list(node._flow_cache.items()),
            "evictions": node.flow_cache_evictions,
        })
    return state


def _metrics(tel):
    out = {}
    for family in tel.registry.collect():
        if not len(family):
            continue
        for values, child in family.samples():
            if isinstance(child, Histogram):
                out[family.name, values] = (
                    child.count, child.sum, child.cumulative_counts()
                )
            else:
                out[family.name, values] = child.value
    return out


def _run(cls, role, ib_depth, capacity, telemetry, steps):
    """Drive one node through ``steps``; return one record per step."""
    records = []
    with telemetry_session(enabled=telemetry != "off") as tel:
        sink = tel.events.add_sink(ListSink())
        if telemetry == "spans":
            SpanRecorder(sample_rate=0.5)
        node = _node(cls, role, ib_depth, capacity)
        for op, pkt in steps:
            before = len(sink.events)
            decision = None
            train = op[0] == "train"
            if pkt is None:
                apply(node, op)
            elif train and capacity is not None:
                decision = node.receive(pkt, FlowAggregate(template=pkt, count=op[2]))
            else:
                decision = node.receive(pkt)
                for _ in range(op[2] - 1 if train else 0):
                    node.receive(pkt)
            if capacity is not None:
                assert len(node.flow_cache) <= capacity
            records.append({
                **_state(node, decision),
                "metrics": _metrics(tel),
                # a train emits no per-packet event
                "events": None if train else [repr(e) for e in sink.events[before:]],
            })
    return records


def _compare(cls, role, ib_depth, capacity, telemetry, ops, cached=None):
    """The node with a flow cache of ``capacity`` (of class ``cached``,
    ``cls`` by default) against ``cls`` without one."""
    steps = [
        (op, packet(op[1], seq) if op[0] in ("packet", "train") else None)
        for seq, op in enumerate(ops)
    ]
    want = _run(cls, role, ib_depth, None, telemetry, steps)
    got = _run(cached or cls, role, ib_depth, capacity, telemetry, steps)
    for (op, _), got_step, want_step in zip(steps, got, want):
        assert got_step == want_step, op


# -- the property ----------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(
    # the cache on a hardware ingress LER is the one with most to get wrong
    hardware=st.sampled_from((True, True, True, False)),
    role=st.sampled_from((RouterRole.LER, RouterRole.LER, RouterRole.LSR)),
    ib_depth=st.integers(2, 4),
    # tiny capacities thrash: refill after evict
    capacity=st.sampled_from((DEFAULT_CAPACITY, DEFAULT_CAPACITY, 1, 2, 3)),
    telemetry=st.sampled_from(("off", "on", "spans")),
    data=st.data(),
)
def test_the_cached_node_matches_the_uncached_one(
    hardware, role, ib_depth, capacity, telemetry, data
):
    ops = data.draw(scripts(hardware=hardware), label="ops")
    cls = HardwareLSRNode if hardware else LSRNode
    _compare(cls, role, ib_depth, capacity, telemetry, ops)


# -- the cross-check mode, on a bare engine -----------------------------------------
def _cross_checked(capacity, ops):
    """``FlowCache(cross_check=True)`` over a bare engine against a
    scalar engine over the same tables; the cache re-derives every hit
    itself and raises on a divergence."""
    engine = ForwardingEngine(node_name="n1")
    cache = FlowCache(engine, capacity=capacity, cross_check=True)
    oracle = ForwardingEngine(engine.ilm, engine.ftn, "n1")
    for seq, op in enumerate(ops):
        if op[0] not in ("packet", "train"):
            apply(engine, op)
            continue
        pkt = packet(op[1], seq)
        count = op[2] if op[0] == "train" else 1
        got = cache.process(pkt, count)  # raises FlowCacheInconsistency
        want = oracle.process(pkt)
        for _ in range(count - 1):
            oracle.process(pkt)
        assert (got.action, got.packet, got.next_hop, got.reason) == (
            want.action, want.packet, want.next_hop, want.reason
        ), op
        assert len(cache) <= capacity
    assert engine.counts == oracle.counts
    return cache


@settings(max_examples=120, deadline=None)
@given(ops=scripts(hardware=False))
def test_random_interleavings_never_serve_stale_decisions(ops):
    _cross_checked(4, ops)


@settings(max_examples=60, deadline=None)
@given(ops=scripts(hardware=False), capacity=st.integers(1, 3))
def test_tiny_capacities_thrash_but_stay_consistent(ops, capacity):
    """Eviction pressure exercises refill-after-evict against every
    write."""
    _cross_checked(capacity, ops)


# -- what the cache does, pinned ----------------------------------------------------
def _cached_node(ib_depth=4, role=RouterRole.LER):
    return _node(HardwareLSRNode, role, ib_depth, DEFAULT_CAPACITY)


def test_a_train_served_from_the_cache_counts_one_hit():
    dst = ("ip", "10.2.0.1", 64, 0)
    ops = [("packet", dst), ("packet", dst), ("train", dst, 16)]
    _compare(HardwareLSRNode, RouterRole.LER, 4, DEFAULT_CAPACITY, "off", ops)
    node = _cached_node()
    for seq, (op, shape, *count) in enumerate(ops):
        pkt = packet(shape, seq)
        node.receive(pkt, FlowAggregate(template=pkt, count=count[0]) if count else None)
    # install, fill, then a train served from the cache
    assert (node.flow_cache.hits, node.flow_cache.misses) == (1, 2)


def test_an_unlabelled_packet_at_a_core_lsr_never_reaches_the_cache():
    ops = [("packet", ("ip", "10.2.0.1", 64, 0))] * 3
    _compare(HardwareLSRNode, RouterRole.LSR, 4, DEFAULT_CAPACITY, "off", ops)
    node = _cached_node(role=RouterRole.LSR)
    for seq in range(3):
        decision = node.receive(packet(ops[0][1], seq))
        assert decision.reason == "n1: unlabelled packet at a core LSR"
    assert len(node.flow_cache) == 0
    assert (node.flow_cache.hits, node.flow_cache.misses) == (0, 0)


def test_a_train_after_a_level1_install_takes_process_anew():
    """The lead installs the destination (a write: not memoized); the
    rest of the train misses once, fills from a fast-path pass and
    replays it -- never the lead's slow-path delta."""
    ops = [("train", ("ip", "10.2.0.1", 64, 0), 8)]
    _compare(HardwareLSRNode, RouterRole.LER, 4, DEFAULT_CAPACITY, "on", ops)
    node = _cached_node()
    pkt = packet(ops[0][1], 0)
    node.receive(pkt, FlowAggregate(template=pkt, count=8))
    assert (node.slow_path_packets, node.fast_path_packets) == (1, 7)
    assert (node.flow_cache.hits, node.flow_cache.misses) == (0, 2)


def test_a_replayed_ingress_discard_touches_level1_like_the_pass():
    expiring, other = ("ip", "10.2.0.1", 1, 0), ("ip", "10.2.0.2", 64, 0)
    # installs, fills, then a replayed discard of .1 must make .2 the LRU
    shapes = (expiring, expiring, other, other, expiring, other, expiring)
    orders = {}
    for name, capacity in (("scalar", None), ("batched", DEFAULT_CAPACITY)):
        node = _node(HardwareLSRNode, RouterRole.LER, 3, capacity)
        for seq, shape in enumerate(shapes):
            node.receive(packet(shape, seq))
        orders[name] = [dst & 0xFF for dst in node._flow_cache]
    assert orders == {"scalar": [2, 1], "batched": [2, 1]}


# -- seeded mutants the suite must catch ---------------------------------------------
class _ReplaySkipsLRUTouch(HardwareLSRNode):
    def replay(self, packet, delta, times, events):
        order = list(self._flow_cache.items())
        super().replay(packet, delta, times, events)
        self._flow_cache = OrderedDict(order)


class _FillsFromImpurePass(HardwareLSRNode):
    """The cache's purity check sees the version from before the pass."""

    _pretend = None

    def measure(self, packet):
        before = self.version()
        result = super().measure(packet)
        self._pretend = before
        return result

    def version(self):
        pretend, self._pretend = self._pretend, None
        return pretend if pretend is not None else super().version()


def test_the_suite_catches_a_replay_that_skips_the_lru_touch():
    one, two = ("ip", "10.2.0.1", 64, 0), ("ip", "10.2.0.2", 64, 0)
    # two level-1 slots beside the mirrored ILM pair: two installs,
    # two fills, then a hit on .1 must make .2 the LRU
    ops = [("packet", s) for s in (one, two, one, two, one)]
    _compare(HardwareLSRNode, RouterRole.LER, 3, DEFAULT_CAPACITY, "off", ops)
    with pytest.raises(AssertionError):
        _compare(HardwareLSRNode, RouterRole.LER, 3, DEFAULT_CAPACITY, "off", ops,
                 _ReplaySkipsLRUTouch)


def test_the_suite_catches_a_fill_from_an_impure_pass():
    ops = [("train", ("ip", "10.2.0.1", 64, 0), 4)]
    _compare(HardwareLSRNode, RouterRole.LER, 4, DEFAULT_CAPACITY, "off", ops)
    with pytest.raises(AssertionError):
        _compare(HardwareLSRNode, RouterRole.LER, 4, DEFAULT_CAPACITY, "off", ops,
                 _FillsFromImpurePass)
