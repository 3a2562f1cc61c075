"""The batched data-plane fast path: per-node flow caching.

The scalar data plane re-derives the full ILM/FTN decision for every
packet, even though consecutive packets of one flow are byte-identical
except for their uid/seq.  This module memoizes the complete
ILM -> NHLFE -> egress decision per *flow key* -- the tuple of fields
the :class:`~repro.mpls.forwarding.ForwardingEngine` actually consults
-- and replays it for every subsequent packet with the same key,
exactly as the paper's embedded architecture collapses the lookup into
one information-base search.

Equivalence contract (enforced by ``tests/integration/
test_batching_equivalence.py``):

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
consistency-audit repairs -- so the cache compares one generation pair
per packet and flushes wholesale when it moved.  A transaction
*rollback* leaves the active bank untouched and does not bump the
generation; cached decisions correctly survive it.

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
from typing import Optional, Tuple, Union

from repro.mpls.forwarding import (
    Action,
    ForwardingDecision,
    ForwardingEngine,
    OpCounts,
)
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.obs.events import LabelOpApplied
from repro.obs.telemetry import get_telemetry

#: Default bound on cached decisions per node.  Each entry is one flow
#: shape; 64k covers the 100k-concurrent-flow target with the normal
#: per-hop key collapse (many flows share a label/CoS shape mid-path).
DEFAULT_CAPACITY = 65_536

# How to rebuild the output packet from the incoming one at replay
# time.  Stored per cached decision; see _build().
_DISCARD = 0        # no packet
_LOCAL = 1          # the incoming packet itself (router alert)
_IP_INGRESS = 2     # packet.decremented()
_MPLS_INGRESS = 3   # MPLSPacket(stack, packet.decremented())
_MPLS_TRANSIT = 4   # packet.with_stack(stack)
_IP_TRANSIT = 5     # packet.inner.with_ttl(inner_ttl)


def key_of(packet: Union[IPv4Packet, MPLSPacket]) -> tuple:
    """The flow key: exactly the fields the engine consults."""
    if isinstance(packet, MPLSPacket):
        return (
            packet.stack.entries,
            packet.stack.max_depth,
            packet.inner.ttl,
        )
    return (packet.dst.value, packet.ttl, packet.dscp)


class FlowCacheInconsistency(AssertionError):
    """A cross-checked cache hit diverged from a fresh lookup."""


class _CachedDecision:
    """One memoized decision plus everything needed to replay it."""

    __slots__ = (
        "action",
        "builder",
        "stack",
        "inner_ttl",
        "next_hop",
        "out_interface",
        "reason",
        "counts",
        "ops",
        "observed",
    )

    def __init__(
        self,
        action: Action,
        builder: int,
        stack,
        inner_ttl: Optional[int],
        next_hop: Optional[str],
        out_interface: Optional[str],
        reason: Optional[str],
        counts: Tuple[int, ...],
        ops: Tuple[tuple, ...],
        observed: bool,
    ) -> None:
        self.action = action
        self.builder = builder
        self.stack = stack
        self.inner_ttl = inner_ttl
        self.next_hop = next_hop
        self.out_interface = out_interface
        self.reason = reason
        self.counts = counts
        self.ops = ops
        self.observed = observed


class FlowCache:
    """Memoizes a :class:`ForwardingEngine`'s per-flow decisions.

    Parameters
    ----------
    engine:
        The engine whose decisions are cached.  The cache reads the
        engine's ILM/FTN generation counters for invalidation and keeps
        its ``counts`` tally advancing exactly as scalar processing
        would.
    capacity:
        Bound on cached flow shapes; least recently used entries are
        evicted at capacity.
    cross_check:
        When true, every cache hit is re-derived with a scratch engine
        over the same tables and compared field by field; a divergence
        raises :class:`FlowCacheInconsistency`.  For the property tests
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
        self._generations: Tuple[int, int] = (
            engine.ilm.generation,
            engine.ftn.generation,
        )
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    # -- keys ---------------------------------------------------------------
    key_of = staticmethod(key_of)

    # -- the fast path ------------------------------------------------------
    def process(
        self, packet: Union[IPv4Packet, MPLSPacket], count: int = 1
    ) -> ForwardingDecision:
        """Engine-equivalent processing: replay a cached decision, or
        compute one scalar decision and memoize it.

        ``count > 1`` processes ``packet`` as the template of a train
        of that many identical packets: op counts and registry mirrors
        advance ``count`` times, the template's own LabelOpApplied
        events are emitted once -- aggregates trade event granularity
        for speed (see :mod:`repro.net.aggregate`).
        """
        generations = (
            self.engine.ilm.generation,
            self.engine.ftn.generation,
        )
        if generations != self._generations:
            # any visible table mutation since the last packet: the
            # whole cache is suspect, flush it wholesale
            self._entries.clear()
            self._generations = generations
            self.invalidations += 1
        key = self.key_of(packet)
        cached = self._entries.get(key)
        observing = get_telemetry().enabled
        if cached is not None and cached.observed == observing:
            self.hits += 1
            self._entries.move_to_end(key)
            self._advance(cached, count, observing, events=True)
            decision = ForwardingDecision(
                cached.action,
                packet=self._build(packet, cached),
                next_hop=cached.next_hop,
                out_interface=cached.out_interface,
                reason=cached.reason,
            )
            if self.cross_check:
                self._verify(packet, decision)
            return decision
        self.misses += 1
        return self._fill(packet, key, observing, count)

    # -- miss: scalar compute + record --------------------------------------
    def _fill(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        key: tuple,
        observing: bool,
        count: int,
    ) -> ForwardingDecision:
        engine = self.engine
        before = engine.counts
        engine.counts = OpCounts()
        recorder: list = []
        engine.recorder = recorder
        try:
            decision = engine.process(packet)
        finally:
            engine.recorder = None
            delta = engine.counts
            engine.counts = before.merged(delta)
        builder, stack, inner_ttl = self._template_of(packet, decision)
        cached = self._entries[key] = _CachedDecision(
            decision.action,
            builder,
            stack,
            inner_ttl,
            decision.next_hop,
            decision.out_interface,
            decision.reason,
            (
                delta.ftn_lookups,
                delta.ilm_lookups,
                delta.entries_scanned,
                delta.pushes,
                delta.pops,
                delta.swaps,
                delta.ttl_updates,
                delta.discards,
            ),
            tuple(recorder),
            observing,
        )
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        if count > 1:
            # the engine advanced everything for the template itself;
            # the rest of the train advances the same deltas
            self._advance(cached, count - 1, observing, events=False)
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

    # -- replay: advance the counts, rebuild the packet ----------------------
    def _advance(
        self,
        cached: _CachedDecision,
        times: int,
        observing: bool,
        events: bool,
    ) -> None:
        """Advance the engine's op counts -- and, while observing, the
        registry mirrors -- as ``times`` packets through ``cached``.

        With ``events`` the recorded LabelOpApplied events are
        re-emitted too, once (one packet's worth, whatever ``times``):
        the same registry increments and events as
        :meth:`ForwardingEngine._mirror` /
        :meth:`ForwardingEngine._emit_stack_op` produced at fill time.
        """
        counts = self.engine.counts
        (
            ftn_lookups,
            ilm_lookups,
            entries_scanned,
            pushes,
            pops,
            swaps,
            ttl_updates,
            discards,
        ) = cached.counts
        counts.ftn_lookups += ftn_lookups * times
        counts.ilm_lookups += ilm_lookups * times
        counts.entries_scanned += entries_scanned * times
        counts.pushes += pushes * times
        counts.pops += pops * times
        counts.swaps += swaps * times
        counts.ttl_updates += ttl_updates * times
        counts.discards += discards * times
        if not (observing and cached.ops):
            return
        tel = get_telemetry()
        node = self.engine.node_name
        mpls_ops = tel.mpls_ops
        for op in cached.ops:
            if op[0] == "m":
                mpls_ops.labels(node, op[1]).inc(op[2] * times)
            else:  # ("e", op, label_in, label_out)
                mpls_ops.labels(node, op[1]).inc(times)
                if events:
                    tel.events.emit(
                        LabelOpApplied(
                            node=node,
                            op=op[1],
                            label_in=op[2],
                            label_out=op[3],
                        )
                    )

    @staticmethod
    def _build(
        packet: Union[IPv4Packet, MPLSPacket], cached: _CachedDecision
    ) -> Optional[Union[IPv4Packet, MPLSPacket]]:
        builder = cached.builder
        if builder == _MPLS_TRANSIT:
            return packet.with_stack(cached.stack)
        if builder == _MPLS_INGRESS:
            return MPLSPacket(cached.stack, packet.decremented())
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
            self.engine.ilm, self.engine.ftn, self.engine.node_name
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
                f"{self.engine.node_name}: stale cached decision for "
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
