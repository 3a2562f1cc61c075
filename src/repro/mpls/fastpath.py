"""The data plane's decision memo: per-node flow caching.

Every node forwards through its :class:`FlowCache`.  An engine pass
re-derives the full ILM/FTN decision, even though consecutive packets
of one flow are byte-identical except for their uid/seq.  This module
memoizes the complete ILM -> NHLFE -> egress decision per *flow key*
-- the tuple of fields the :class:`~repro.mpls.forwarding.
ForwardingEngine` actually consults -- and replays it for every
subsequent packet with the same key, exactly as the paper's embedded
architecture collapses the lookup into one information-base search.
The engine stays as the miss path (``measure``) and as the oracle of
``cross_check``.

Equivalence contract (``tests/mpls/test_flow_cache_equivalence.py``
checks a cached node against its own uncached pass; the reports,
flow exports and tables it gives a run are pinned by
``tests/integration/test_batching_equivalence.py``):

* a replayed decision is value-identical to the decision the engine
  would have produced (action, output packet, next hop, interface,
  discard reason),
* the engine's :class:`~repro.mpls.forwarding.OpCounts` advance by the
  same deltas,
* with telemetry enabled, the same ``repro_mpls_ops_total`` increments
  and :class:`~repro.obs.events.LabelOpApplied` events are emitted, in
  the same order,
* with telemetry disabled, a replay performs no telemetry reads beyond
  the one audited ``tel.enabled`` boolean.

Invalidation is wired to the transactional table API: the ILM/FTN
``generation`` counters bump on every visible mutation of the active
bank (install/remove/clear, transaction commit, stale flush) -- which
covers LDP withdraws, FRR switchovers, graceful-restart flushes and
consistency-audit repairs -- so the cache compares the engine's
``version()`` per packet and flushes wholesale when it moved.  A
transaction *rollback* leaves the active bank untouched and does not
bump the generation; cached decisions correctly survive it.

The cache is the one decision memo for both node kinds.  A hardware
node's version adds its modifier's ``state_version`` (search cycles
depend on pair positions, so any information-base write counts) and
its deltas are data cycles, fast/slow-path counts, the level-1 LRU
touch and the per-packet cycle sample.  One rule covers both: only a
pass that left the version unchanged is memoized; after one that did
not (a level-1 install), the rest of a train takes :meth:`FlowCache.
process` anew instead of replaying the first packet's deltas.

The cache key captures every input field the engine reads:

* labelled packets: the exact label-stack entries (label, CoS, S, TTL),
  the stack's depth limit, and the inner IPv4 TTL (consulted when a pop
  exposes the IP header),
* unlabelled packets: destination address, IPv4 TTL and DSCP.

Anything outside the key (uid, flow id, payload, source address) is
threaded through from the incoming packet at replay time, never from
the cached exemplar.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.mpls.forwarding import (
    Action,
    ForwardingDecision,
    ForwardingEngine,
)
from repro.net.addressing import FLOW_WORKING_SET
from repro.net.packet import IPv4Packet, MPLSPacket, _new, _set_inner, _set_stack

#: Default bound on cached decisions per node: each entry is one flow
#: shape, and the bound is the flow working set the simulator is sized
#: for.
DEFAULT_CAPACITY = FLOW_WORKING_SET

# How to rebuild the output packet from the incoming one at replay
# time.  Stored per cached decision; see _build().
_DISCARD = 0        # no packet
_LOCAL = 1          # the incoming packet itself (router alert)
_IP_INGRESS = 2     # packet.decremented()
_MPLS_INGRESS = 3   # MPLSPacket(stack, packet.decremented())
_MPLS_TRANSIT = 4   # packet.with_stack(stack)
_IP_TRANSIT = 5     # packet.inner.with_ttl(inner_ttl)

_new_decision = tuple.__new__  # skips the generated NamedTuple ``__new__``


def key_of(packet: Union[IPv4Packet, MPLSPacket]) -> tuple:
    """The flow key: exactly the fields the engine consults, as ints.

    A labelled packet's stack part is the stack's own memo
    (:meth:`~repro.mpls.stack.LabelStack.key`): a hit hands every
    packet of a flow the same cached stack object, so from the next hop
    on the key is a stored tuple, hashed in C."""
    if isinstance(packet, MPLSPacket):
        stack = packet.stack
        return (stack._key or stack.key(), packet.inner.ttl)
    return (packet.dst.value, packet.ttl, packet.dscp)


class FlowCacheInconsistency(AssertionError):
    """A cross-checked cache hit diverged from a fresh lookup."""


@dataclass(slots=True)
class _CachedDecision:
    """One memoized decision plus everything needed to replay it."""

    action: Action
    builder: int
    stack: Optional[object]
    inner_ttl: Optional[int]
    next_hop: Optional[str]
    out_interface: Optional[str]
    reason: Optional[str]
    #: the engine's counter deltas for one pass (its measure())
    delta: tuple
    #: telemetry was enabled at fill time
    observed: bool


class FlowCache:
    """Memoizes a forwarding pass's per-flow decisions.

    Parameters
    ----------
    engine:
        The pass whose decisions are cached: a
        :class:`ForwardingEngine`, or a
        :class:`~repro.core.hwnode.HardwareLSRNode` (its own engine).
        It reports three things -- ``version()``, what every decision
        depends on beyond the packet; ``measure(packet)``, one pass and
        its counter deltas; ``replay(packet, delta, times, events)``,
        those deltas applied again -- so its counters advance exactly
        as passes would.
    capacity:
        Bound on cached flow shapes; least recently used entries are
        evicted at capacity.
    cross_check:
        When true, every cache hit is re-derived with a scratch software
        engine over the same tables (the hop contract both node kinds
        run) and compared field by field; a divergence raises
        :class:`FlowCacheInconsistency`.  For the property tests
        -- the scratch lookup mirrors telemetry, so only use it with
        telemetry disabled.
    """

    def __init__(
        self,
        engine: ForwardingEngine,
        capacity: int = DEFAULT_CAPACITY,
        cross_check: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flow cache capacity must be >= 1: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.cross_check = cross_check
        self._entries: "OrderedDict[tuple, _CachedDecision]" = OrderedDict()
        #: the version the entries were filled under; the first packet
        #: adopts its own, so a cache built with its node (before the
        #: control plane programs the tables) counts no flush of nothing
        self._version = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    # -- the fast path ------------------------------------------------------
    def process(
        self, packet: Union[IPv4Packet, MPLSPacket], count: int = 1
    ) -> ForwardingDecision:
        """Engine-equivalent processing: replay a cached decision, or
        compute one engine pass and memoize it.

        ``count > 1`` processes ``packet`` as the template of a train
        of that many identical packets: the engine's counters advance
        ``count`` times, the template's own LabelOpApplied events are
        emitted once -- aggregates trade event granularity for speed
        (see :mod:`repro.net.aggregate`).
        """
        engine = self.engine
        version = engine.version()
        if version != self._version:
            # anything a decision depends on moved since the last
            # packet: the whole cache is suspect, flush it wholesale
            if self._version is not None:
                self._entries.clear()
                self.invalidations += 1
            self._version = version
        key = key_of(packet)
        cached = self._entries.get(key)
        observing = engine.telemetry.enabled
        if cached is not None and cached.observed == observing:
            self.hits += 1
            self._entries.move_to_end(key)
            engine.replay(packet, cached.delta, count, True)
            decision = _new_decision(
                ForwardingDecision,
                (
                    cached.action,
                    self._build(packet, cached),
                    cached.next_hop,
                    cached.out_interface,
                    cached.reason,
                ),
            )
            if self.cross_check:
                self._verify(packet, decision)
            return decision
        self.misses += 1
        return self._fill(packet, key, observing, count, version)

    # -- miss: one measured pass + record -------------------------------------
    def _fill(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        key: tuple,
        observing: bool,
        count: int,
        version: tuple,
    ) -> ForwardingDecision:
        engine = self.engine
        decision, delta = engine.measure(packet)
        if engine.version() != version:
            # the pass wrote what decisions depend on (a hardware
            # level-1 install): it is not memoized, and the rest of a
            # train is not this pass again -- it takes process anew
            if count > 1:
                self.process(packet, count - 1)
            return decision
        builder, stack, inner_ttl = self._template_of(packet, decision)
        self._entries[key] = _CachedDecision(
            decision.action,
            builder,
            stack,
            inner_ttl,
            decision.next_hop,
            decision.out_interface,
            decision.reason,
            delta,
            observing,
        )
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        if count > 1:
            # the pass advanced everything for the template itself;
            # the rest of the train advances the same deltas
            engine.replay(packet, delta, count - 1, False)
        return decision

    @staticmethod
    def _template_of(
        packet: Union[IPv4Packet, MPLSPacket],
        decision: ForwardingDecision,
    ) -> Tuple[int, Optional[object], Optional[int]]:
        """How to rebuild ``decision.packet`` from a future packet with
        the same key."""
        if decision.action is Action.DISCARD:
            return _DISCARD, None, None
        if decision.action is Action.DELIVER_LOCAL:
            return _LOCAL, None, None
        out = decision.packet
        if isinstance(packet, MPLSPacket):
            if isinstance(out, MPLSPacket):
                return _MPLS_TRANSIT, out.stack, None
            return _IP_TRANSIT, None, out.ttl
        if isinstance(out, MPLSPacket):
            return _MPLS_INGRESS, out.stack, None
        return _IP_INGRESS, None, None

    # -- replay: rebuild the packet --------------------------------------------
    @staticmethod
    def _build(
        packet: Union[IPv4Packet, MPLSPacket], cached: _CachedDecision
    ) -> Optional[Union[IPv4Packet, MPLSPacket]]:
        builder = cached.builder
        if builder == _MPLS_TRANSIT:
            return packet.with_stack(cached.stack)
        if builder == _MPLS_INGRESS:
            # slot by slot, as ``with_stack`` builds a transit replay
            out = _new(MPLSPacket)
            _set_stack(out, cached.stack)
            _set_inner(out, packet.decremented())
            return out
        if builder == _IP_TRANSIT:
            return packet.inner.with_ttl(cached.inner_ttl)
        if builder == _IP_INGRESS:
            return packet.decremented()
        if builder == _LOCAL:
            return packet
        return None  # _DISCARD

    # -- cross-checking ------------------------------------------------------
    def _verify(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        replayed: ForwardingDecision,
    ) -> None:
        scratch = ForwardingEngine(
            self.engine.ilm, self.engine.ftn, self.engine.name
        )
        fresh = scratch.process(packet)
        if (
            fresh.action is not replayed.action
            or fresh.packet != replayed.packet
            or fresh.next_hop != replayed.next_hop
            or fresh.out_interface != replayed.out_interface
            or fresh.reason != replayed.reason
        ):
            raise FlowCacheInconsistency(
                f"{self.engine.name}: stale cached decision for "
                f"{packet!r}: cached {replayed!r} != fresh {fresh!r}"
            )

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
