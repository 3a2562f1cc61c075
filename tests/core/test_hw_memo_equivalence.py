"""One decision memo for both node kinds: the hardware node's flow cache
against the private memo it replaced.

:class:`_OracleNode` keeps the replaced hardware memo verbatim --
``_HwMemoEntry``, the memo-aware ``_forward``, ``_hw_replay`` and the
node's own ``receive`` ladder -- on top of today's modifier pass.  The
hypothesis suite drives it and a :class:`HardwareLSRNode` through the
same interleavings of labelled and unlabelled packets, trains of 1-64,
ILM/FTN installs, ``corrupt_pair``, ``scrub_info_base`` and level-1
evictions (an information base 2-4 pairs deep), with telemetry held
fixed per example (off, on, or on with a span recorder sampling half
the packets), and after every step compares every decision field, the
hardware counters, the modifier's total cycles and state version, the
level-1 LRU order, evictions, node stats, the metrics registry, the
event stream and the memo's hit and miss counts.

Where the one ladder legitimately differs, the comparison names it:

* an unlabelled packet at a core LSR is discarded by
  :meth:`LSRNode.receive` before the forwarding step, so it never
  reaches the cache (the oracle counted a miss, then hits) and does not
  sync the information base -- the harness syncs the node first, as the
  oracle's ladder did, so everything after stays comparable;
* a train is one :meth:`FlowCache.process` call: it counts one hit when
  its lead is served from the memo, where the oracle counted one per
  packet (misses agree exactly, including the second miss after a lead
  pass that installed a level-1 pair).

One input differs because the replaced memo diverged from the scalar
pass it replayed, and the harness corrects the oracle there: an ingress
packet discarded after a level-1 hit (its TTL expires in the update).
The pass touches the destination's LRU slot before the discard; the
old replay skipped the touch for every discard, so batched and scalar
runs could evict different destinations afterwards.  The flow cache
replays the touch.

Two seeded mutants show the suite is not vacuous: a replay that skips
the level-1 LRU touch, and a fill from a pass that wrote the
information base.
"""

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action, ForwardingDecision
from repro.mpls.label import IMPLICIT_NULL, LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.stack import LabelStack
from repro.net.aggregate import FlowAggregate
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.obs import ListSink, telemetry_session
from repro.obs.metrics import Histogram
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import get_telemetry


# -- the oracle: the replaced memo, verbatim -----------------------------------


@dataclass(frozen=True)
class _HwMemoEntry:
    """One memoized hardware forwarding outcome.

    Valid only while the (ilm generation, ftn generation, modifier
    state_version) triple under which it was filled still holds: the
    hardware's search cycle counts depend on pair *positions*, so any
    information-base write invalidates every entry at once.
    """

    action: Action
    reason: Optional[str]
    next_hop: Optional[str]
    out_interface: Optional[str]
    #: output label stack for FORWARD_MPLS results, else None
    stack: Optional[LabelStack]
    #: computed inner TTL for MPLS->IP (pop-to-empty) results
    inner_ttl: Optional[int]
    #: counter deltas the real pass produced, replayed verbatim
    data_cycles: int
    fast_path: int
    slow_path: int


class _OracleNode(HardwareLSRNode):
    """The hardware node as it was before :class:`FlowCache` became
    its memo; only ``__init__``'s first line and ``observe`` are new."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # -- batched fast path ---------------------------------------------
        #: flow-keyed memo of complete hardware forwarding outcomes,
        #: armed by :meth:`enable_batching`; None = scalar processing
        self._hw_memo: "Optional[OrderedDict[tuple, _HwMemoEntry]]" = None
        self._hw_memo_capacity = 0
        #: (ilm gen, ftn gen, modifier state_version) the memo was
        #: filled under; any mismatch flushes the whole memo
        self._hw_memo_valid: Optional[Tuple[int, int, int]] = None
        self.hw_memo_hits = 0
        self.hw_memo_misses = 0
        self.hw_memo_invalidations = 0

    # its own receive emits the captured phases after the hop event
    observe = LSRNode.observe

    # -- batched fast path --------------------------------------------------
    def enable_batching(self, cache_capacity: Optional[int] = None):
        """Arm the hardware memo: repeat packets of a flow replay the
        memoized decision and cycle deltas instead of re-running the
        modifier (see the module docstring of
        :mod:`repro.mpls.fastpath` for the invalidation contract)."""
        from repro.mpls.fastpath import DEFAULT_CAPACITY

        self._hw_memo = OrderedDict()
        self._hw_memo_capacity = (
            cache_capacity if cache_capacity is not None else DEFAULT_CAPACITY
        )
        self._hw_memo_valid = None
        # the software FlowCache never applies here: the hardware node
        # forwards through the modifier, not the software engine
        self.flow_cache = None
        return None

    def disable_batching(self) -> None:
        self._hw_memo = None
        self.flow_cache = None

    def _forward(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        bypass_memo: bool = False,
    ) -> ForwardingDecision:
        """One packet through the hardware path, memo-aware.

        Memo entries are filled only from *pure* passes -- ones that
        did not write the information base (``state_version``
        unchanged) -- so a slow-path flow-cache install is never
        replayed with the wrong cycle count.
        """
        memo = self._hw_memo
        use_memo = memo is not None and not bypass_memo
        if use_memo:
            valid = (
                self.ilm.generation,
                self.ftn.generation,
                self.modifier.state_version,
            )
            if valid != self._hw_memo_valid:
                if memo:
                    self.hw_memo_invalidations += 1
                memo.clear()
                self._hw_memo_valid = valid
            else:
                from repro.mpls.fastpath import key_of

                cached = memo.get(key_of(packet))
                if cached is not None:
                    self.hw_memo_hits += 1
                    memo.move_to_end(key_of(packet))
                    return self._hw_replay(packet, cached)
            self.hw_memo_misses += 1
        before_version = self.modifier.state_version
        before_cycles = self.hw_data_cycles
        before_fast = self.fast_path_packets
        before_slow = self.slow_path_packets
        if isinstance(packet, MPLSPacket):
            decision = self._hw_transit(packet)
        elif self.is_edge:
            decision = self._hw_ingress(packet)
        else:
            decision = ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: unlabelled packet at a core LSR",
            )
        if use_memo and self.modifier.state_version == before_version:
            from repro.mpls.fastpath import key_of

            out = decision.packet
            memo[key_of(packet)] = _HwMemoEntry(
                action=decision.action,
                reason=decision.reason,
                next_hop=decision.next_hop,
                out_interface=decision.out_interface,
                stack=(
                    out.stack if isinstance(out, MPLSPacket) else None
                ),
                inner_ttl=(
                    out.ttl
                    if isinstance(packet, MPLSPacket)
                    and isinstance(out, IPv4Packet)
                    else None
                ),
                data_cycles=self.hw_data_cycles - before_cycles,
                fast_path=self.fast_path_packets - before_fast,
                slow_path=self.slow_path_packets - before_slow,
            )
            if len(memo) > self._hw_memo_capacity:
                memo.popitem(last=False)
        return decision

    def _hw_replay(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        cached: _HwMemoEntry,
    ) -> ForwardingDecision:
        """Re-apply a memoized outcome to a fresh packet: same counter
        deltas the real pass produced, output rebuilt around this
        packet's identity (uid, payload)."""
        self.hw_data_cycles += cached.data_cycles
        self.modifier.total_cycles += cached.data_cycles
        self.fast_path_packets += cached.fast_path
        self.slow_path_packets += cached.slow_path
        if cached.action is Action.DISCARD:
            out = None
        elif isinstance(packet, MPLSPacket):
            if cached.action is Action.FORWARD_MPLS:
                out = packet.with_stack(cached.stack)
            else:  # pop-to-empty: FORWARD_IP with the computed TTL
                out = packet.inner.with_ttl(cached.inner_ttl)
        else:
            # the scalar ingress fast path touches its LRU entry; the
            # replay must too, or evictions would diverge
            dst = packet.identifier()
            if dst in self._flow_cache:
                self._flow_cache.move_to_end(dst)
            if cached.action is Action.FORWARD_MPLS:
                out = MPLSPacket(cached.stack, packet.decremented())
            else:  # non-PUSH NHLFE: unlabelled forwarding
                out = packet.decremented()
        return ForwardingDecision(
            cached.action,
            packet=out,
            next_hop=cached.next_hop,
            out_interface=cached.out_interface,
            reason=cached.reason,
        )

    # -- the hardware data path ---------------------------------------------
    def receive(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        train=None,
    ) -> ForwardingDecision:
        if train is None:
            count = 1
        elif self._hw_memo is None:
            raise RuntimeError(
                f"{self.name}: aggregates need batching enabled"
            )
        else:
            count = train.count
        self.stats.received += count
        self._sync_info_base()
        # span capture is decided head-of-packet: one global lookup and
        # one boolean when telemetry is off (the hot-path contract;
        # benchmarks/test_bench_obs_overhead.py counts the reads)
        tel = get_telemetry()
        tel_enabled = tel.enabled
        inner = packet.inner if isinstance(packet, MPLSPacket) else packet
        capture = (
            train is None
            and tel_enabled
            and tel.spans is not None
            and tel.spans.wants(inner.flow_id, inner.uid)
        )
        self._phase_log = [] if capture else None
        decision = self._forward(packet, bypass_memo=capture)
        if tel_enabled:
            self._publish_cycles(tel, inner.flow_id)
        for _ in range(count - 1):
            # the rest of a train replays the memo in O(1) each
            self._forward(packet)
            if tel_enabled:
                self._publish_cycles(tel, inner.flow_id)
        decision = self._fill_interface(decision)
        self.stats.record(decision, count)
        self.observe(packet, decision, train)
        if capture:
            self._emit_phases(tel, inner.uid, inner.flow_id)
        return decision


# -- the harness ---------------------------------------------------------------
LABELS = (100, 200, 300, 42)  # 42 is never installed
DESTINATIONS = (
    "10.2.0.1", "10.2.0.2", "10.2.0.3",
    "10.3.0.1",  # the non-PUSH FTN entry, once installed
    "10.9.0.1",  # no FEC
)
PREFIXES = ("10.2.0.0/16", "10.2.0.0/24", "10.3.0.0/16")


def _packet(shape, seq):
    kind, key, ttl, extra = shape
    inner = IPv4Packet(
        src="10.1.0.5",
        dst=key if kind == "ip" else "10.2.0.1",
        ttl=ttl if kind == "ip" else 64,
        dscp=extra if kind == "ip" else 0,
        flow_id=7,
        seq=seq,
    )
    if kind == "ip":
        return inner
    entries = [LabelEntry(label=key, ttl=ttl)]
    if extra:  # a tunnel: the LSP label below the top
        entries.append(LabelEntry(label=200, ttl=ttl))
    return MPLSPacket(LabelStack(entries), inner)


def _node(cls, role, ib_depth, batching):
    node = cls("n1", role, ib_depth=ib_depth)
    node.ilm.install(100, NHLFE(op=LabelOp.SWAP, out_label=500, next_hop="n2"))
    node.ftn.install(
        PrefixFEC("10.2.0.0/16"),
        NHLFE(op=LabelOp.PUSH, out_label=100, next_hop="n2"),
    )
    if batching:
        node.enable_batching()
    return node


def _memo_counts(node):
    if isinstance(node, _OracleNode):
        return node.hw_memo_hits, node.hw_memo_misses
    cache = node.flow_cache
    return (cache.hits, cache.misses) if cache is not None else (0, 0)


def _state(node, decision):
    return {
        "decision": decision,
        "hw": (
            node.hw_data_cycles,
            node.hw_control_cycles,
            node.fast_path_packets,
            node.slow_path_packets,
        ),
        "modifier": (node.modifier.total_cycles, node.modifier.state_version),
        "level-1 LRU": list(node._flow_cache.items()),
        "evictions": node.flow_cache_evictions,
        "stats": dataclasses.asdict(node.stats),
    }


def _metrics(tel):
    out = {}
    for family in tel.registry.collect():
        for values, child in family.samples():
            if isinstance(child, Histogram):
                out[family.name, values] = (
                    child.count, child.sum, child.cumulative_counts()
                )
            else:
                out[family.name, values] = child.value
    return out


def _apply(node, op):
    """A control-plane or fault step; both nodes take it alike."""
    if op[0] == "ilm":
        _, label, kind, out_label = op
        node.ilm.install(
            label,
            NHLFE(op=LabelOp.POP, next_hop="n0")
            if kind == "pop"
            else NHLFE(op=LabelOp[kind.upper()], out_label=out_label,
                       next_hop="n2"),
        )
    elif op[0] == "ftn":
        _, prefix, out_label = op
        node.ftn.install(
            PrefixFEC(prefix),
            NHLFE(op=LabelOp.PUSH, out_label=out_label, next_hop="n2"),
        )
    elif op[0] == "corrupt":
        _, level, address, label_xor = op
        node.modifier.corrupt_pair(level, address, label_xor=label_xor)
    else:  # scrub
        node.scrub_info_base()


def _run(cls, role, ib_depth, batching, telemetry, steps):
    """Drive one node through ``steps``; return one record per step."""
    records = []
    with telemetry_session(enabled=telemetry != "off") as tel:
        sink = tel.events.add_sink(ListSink())
        if telemetry == "spans":
            SpanRecorder(sample_rate=0.5)
        node = _node(cls, role, ib_depth, batching)
        for op, packet in steps:
            before = _memo_counts(node)
            decision = train = None
            if packet is None:
                _apply(node, op)
            else:
                core = isinstance(packet, IPv4Packet) and not node.is_edge
                if core and not isinstance(node, _OracleNode):
                    # the ladder discards before the forwarding step,
                    # so the info base syncs with the next packet; sync
                    # now, where the oracle's ladder did
                    node._sync_info_base()
                if op[0] == "train":
                    train = FlowAggregate(template=packet, count=op[2])
                decision = node.receive(packet, train)
                if (
                    isinstance(node, _OracleNode)
                    and decision.action is Action.DISCARD
                    and not core
                    and isinstance(packet, IPv4Packet)
                    and node.hw_memo_hits > before[0]
                    and packet.identifier() in node._flow_cache
                ):
                    # the one correction (see the module docstring): a
                    # replayed ingress discard touches level 1 like the
                    # pass it replays
                    node._flow_cache.move_to_end(packet.identifier())
            after = _memo_counts(node)
            records.append({
                **_state(node, decision),
                "memo": (after[0] - before[0], after[1] - before[1]),
                "metrics": _metrics(tel),
                "events": len(sink.events),
            })
        events = [repr(e) for e in sink.events]
    return records, events


def _compare(role, ib_depth, batching, telemetry, ops, cls=HardwareLSRNode):
    steps = []
    for seq, op in enumerate(ops):
        if op[0] == "train" and not batching:
            op = ("packet", op[1])  # trains need batching: send the one
        shape = op[1] if op[0] in ("packet", "train") else None
        steps.append((op, None if shape is None else _packet(shape, seq)))
    oracle, oracle_events = _run(
        _OracleNode, role, ib_depth, batching, telemetry, steps
    )
    new, new_events = _run(cls, role, ib_depth, batching, telemetry, steps)
    for (op, packet), want, got in zip(steps, oracle, new):
        want_hits, want_misses = want.pop("memo")
        got_hits, got_misses = got.pop("memo")
        assert got == want, op
        if packet is None:
            continue
        if isinstance(packet, IPv4Packet) and role is RouterRole.LSR:
            # discarded before the cache
            assert (got_hits, got_misses) == (0, 0), op
        elif op[0] == "train":
            # one process call per train: one hit iff its lead hit
            assert got_misses == want_misses, op
            assert got_hits == int(want_misses == 0), op
        else:
            assert (got_hits, got_misses) == (want_hits, want_misses), op
    assert new_events == oracle_events


# -- the properties ------------------------------------------------------------
IP_SHAPES = st.tuples(
    st.just("ip"), st.sampled_from(DESTINATIONS),
    st.sampled_from((64, 1)), st.sampled_from((0, 46)),
)
MPLS_SHAPES = st.tuples(
    st.just("mpls"), st.sampled_from(LABELS),
    st.sampled_from((20, 2, 1)), st.booleans(),
)
WRITES = {
    "ilm": st.tuples(
        st.just("ilm"), st.sampled_from(LABELS[:3]),
        st.sampled_from(("swap", "pop", "push")), st.sampled_from((500, 600)),
    ),
    "ftn": st.tuples(
        st.just("ftn"), st.sampled_from(PREFIXES),
        st.sampled_from((100, 200, IMPLICIT_NULL)),
    ),
    "corrupt": st.tuples(
        st.just("corrupt"), st.integers(1, 3), st.integers(0, 3),
        st.sampled_from((1, 0xFF)),
    ),
    "scrub": st.just(("scrub",)),
}


@st.composite
def scripts(draw):
    """Mostly traffic over a few packet shapes -- repeats of one key are
    what the memo serves -- with the table and info-base writes that
    flush it in between."""
    shapes = st.sampled_from(
        # two or more destinations: ingress is where the level-1 LRU
        # and its evictions live
        draw(st.lists(IP_SHAPES, min_size=2, max_size=4, unique=True))
        + draw(st.lists(MPLS_SHAPES, min_size=1, max_size=3, unique=True))
    )
    ops = []
    for kind in draw(st.lists(
        st.sampled_from(("packet",) * 6 + ("train",) + tuple(WRITES)),
        min_size=10, max_size=60,
    )):
        if kind == "packet":
            ops.append(("packet", draw(shapes)))
        elif kind == "train":
            ops.append(("train", draw(shapes), draw(st.integers(1, 64))))
        else:
            ops.append(draw(WRITES[kind]))
    return ops


@settings(max_examples=300, deadline=None)
@given(
    # the memo at an ingress LER is the one with most to get wrong
    role=st.sampled_from((RouterRole.LER, RouterRole.LER, RouterRole.LSR)),
    ib_depth=st.integers(2, 4),
    batching=st.sampled_from((True, True, False)),
    telemetry=st.sampled_from(("off", "on", "spans")),
    ops=scripts(),
)
def test_flow_cache_matches_the_private_memo(
    role, ib_depth, batching, telemetry, ops
):
    _compare(role, ib_depth, batching, telemetry, ops)


# -- the named differences, pinned -----------------------------------------------
def test_a_train_counts_one_hit_where_the_memo_counted_each_packet():
    dst = ("ip", "10.2.0.1", 64, 0)
    ops = [("packet", dst), ("packet", dst), ("train", dst, 16)]
    _compare(RouterRole.LER, 4, True, "off", ops)
    node = _node(HardwareLSRNode, RouterRole.LER, 4, True)
    oracle = _node(_OracleNode, RouterRole.LER, 4, True)
    for seq, (op, shape, *count) in enumerate(ops):
        packet = _packet(shape, seq)
        train = FlowAggregate(template=packet, count=count[0]) if count else None
        node.receive(packet, train)
        oracle.receive(packet, train)
    # install, fill, then a train served from the memo
    assert (node.flow_cache.hits, node.flow_cache.misses) == (1, 2)
    assert (oracle.hw_memo_hits, oracle.hw_memo_misses) == (16, 2)


def test_an_unlabelled_packet_at_a_core_lsr_never_reaches_the_cache():
    ops = [("packet", ("ip", "10.2.0.1", 64, 0))] * 3
    _compare(RouterRole.LSR, 4, True, "off", ops)
    node = _node(HardwareLSRNode, RouterRole.LSR, 4, True)
    for seq in range(3):
        decision = node.receive(_packet(ops[0][1], seq))
        assert decision.reason == "n1: unlabelled packet at a core LSR"
    assert len(node.flow_cache) == 0
    assert (node.flow_cache.hits, node.flow_cache.misses) == (0, 0)


def test_a_train_after_a_level1_install_takes_process_anew():
    """The lead installs the destination (a write: not memoized); the
    rest of the train misses once, fills from a fast-path pass and
    replays it -- never the lead's slow-path delta."""
    ops = [("train", ("ip", "10.2.0.1", 64, 0), 8)]
    _compare(RouterRole.LER, 4, True, "on", ops)
    node = _node(HardwareLSRNode, RouterRole.LER, 4, True)
    packet = _packet(ops[0][1], 0)
    node.receive(packet, FlowAggregate(template=packet, count=8))
    assert (node.slow_path_packets, node.fast_path_packets) == (1, 7)
    assert (node.flow_cache.hits, node.flow_cache.misses) == (0, 2)


def test_a_replayed_ingress_discard_touches_level1_like_the_pass():
    expiring, other = ("ip", "10.2.0.1", 1, 0), ("ip", "10.2.0.2", 64, 0)
    # installs, fills, then a replayed discard of .1 must make .2 the LRU
    shapes = (expiring, expiring, other, other, expiring, other, expiring)
    orders = {}
    for name, cls, batching in (
        ("scalar", HardwareLSRNode, False),
        ("batched", HardwareLSRNode, True),
        ("old memo", _OracleNode, True),
    ):
        node = _node(cls, RouterRole.LER, 3, batching)
        for seq, shape in enumerate(shapes):
            node.receive(_packet(shape, seq))
        orders[name] = [dst & 0xFF for dst in node._flow_cache]
    assert orders == {
        "scalar": [2, 1], "batched": [2, 1], "old memo": [1, 2],
    }


# -- seeded mutants the suite must catch -----------------------------------------
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
    _compare(RouterRole.LER, 3, True, "off", ops)
    with pytest.raises(AssertionError):
        _compare(RouterRole.LER, 3, True, "off", ops, _ReplaySkipsLRUTouch)


def test_the_suite_catches_a_fill_from_an_impure_pass():
    ops = [("train", ("ip", "10.2.0.1", 64, 0), 4)]
    _compare(RouterRole.LER, 4, True, "off", ops)
    with pytest.raises(AssertionError):
        _compare(RouterRole.LER, 4, True, "off", ops, _FillsFromImpurePass)
