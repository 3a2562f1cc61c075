"""A network node whose data plane runs on the label stack modifier.

:class:`HardwareLSRNode` is a drop-in replacement for
:class:`~repro.mpls.router.LSRNode` inside an
:class:`~repro.net.network.MPLSNetwork`: the control plane programs the
same ILM/FTN tables, but every packet is forwarded by the hardware
model (the :class:`~repro.hw.model.FunctionalModifier`, equivalent to
the RTL by property test), with exact clock-cycle accounting per
packet.

Two hardware/software co-design mechanisms, both in the spirit of the
paper's hybrid premise:

* **table mirroring** -- when the ILM generation changes, the node
  reprograms the information base through the hardware's write port
  (3 cycles per pair, counted as control cycles).  ILM entries are
  mirrored into all three levels because a label can appear at any
  stack depth once tunnels nest.
* **level-1 flow cache** -- the hardware's level 1 is keyed by exact
  packet identifiers (destination addresses), but ingress
  classification is by prefix.  A destination's first packet therefore
  misses in hardware, takes the software FTN slow path, and installs
  its (destination -> label) pair in level 1; subsequent packets to
  that destination are label-switched entirely in hardware.  The
  node counts slow-path events so benchmarks can show the cache
  working.

Packets take :meth:`LSRNode.receive`, the one hop ladder, like on any
node.  The node overrides the ladder's forwarding step -- sync the
information base, then one modifier pass, or while batching the
:class:`~repro.mpls.fastpath.FlowCache`, which memoizes that pass by
the software engine's rules (the node is its own engine) -- and
:meth:`observe`, which hands a span-sampled pass's phases over after
the hop event.

Known, documented semantic difference from the software engine: on a
pop that exposes a lower stack entry, the hardware writes the
decremented outer TTL into the exposed entry unconditionally (the
paper's UPDATE_TOP), while the software engine takes the minimum with
the exposed entry's own TTL.  Under the uniform TTL model both values
coincide, since nested entries are created with equal TTLs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple, Union

from repro.core.device import STRATIX_EP1S40
from repro.hw.model import (
    MAX_LEVELS,
    FunctionalModifier,
    ScrubReport,
    StagingBackpressure,
)
from repro.mpls.forwarding import (
    Action,
    ForwardingDecision,
    OpCounts,
    _dscp_to_cos,
)
from repro.mpls.label import LabelOp
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.obs.events import InfoBaseProgrammed, InfoBaseScrubbed


def stored_pair(op: LabelOp, out_label: Optional[int]) -> Optional[Tuple[int, LabelOp]]:
    """How an ILM entry is stored in the information base: the paired
    ``(label, op)``, or None for a NOOP, which stays software-only.

    A pop's paired label is unused; it is stored as 16 (the lowest
    unreserved value) to keep the memory word valid."""
    if op is LabelOp.POP:
        return 16, LabelOp.POP
    if op is LabelOp.SWAP or op is LabelOp.PUSH:
        return out_label, op
    return None


class HardwareLSRNode(LSRNode):
    """An LSR/LER whose label operations run on the hardware model."""

    def __init__(
        self,
        name: str,
        role: RouterRole = RouterRole.LSR,
        interfaces=None,
        ib_depth: int = 1024,
        staging_limit: Optional[int] = None,
    ) -> None:
        super().__init__(name, role, interfaces)
        self.modifier = FunctionalModifier(
            ib_depth=ib_depth, staging_limit=staging_limit
        )
        self.modifier.set_router_type(role is RouterRole.LSR)
        #: times the bounded bank-write queue pushed back during
        #: info-base programming (see StagingBackpressure)
        self.backpressure_stalls = 0
        self._mirrored_ilm_generation = -1
        #: destination (int) -> label cached at level 1, in LRU order
        #: (oldest first); bounded by the information base depth, with
        #: hardware remove_pair evicting the LRU entry when full
        self._flow_cache: "OrderedDict[int, int]" = OrderedDict()
        #: level-1 slots not consumed by mirrored ILM entries
        self._flow_cache_capacity = ib_depth
        # -- accounting ----------------------------------------------------
        self.hw_data_cycles = 0
        self.hw_control_cycles = 0
        self.slow_path_packets = 0
        self.fast_path_packets = 0
        self.flow_cache_evictions = 0
        #: data cycles already published to telemetry (delta tracking)
        self._observed_data_cycles = 0
        #: per-packet phase capture for span tracing: a list of
        #: (phase, parent_phase, cycle_start, cycle_end) while the
        #: current packet is sampled, else None (the hot-path default)
        self._phase_log = None
        #: the node is its own engine: the flow cache memoizes its
        #: modifier pass (version / measure / replay below); the
        #: software op counts it never advances stay zero
        self.engine = self
        self.counts = OpCounts()

    # -- information-base synchronization ---------------------------------
    def _sync_info_base(self) -> None:
        """Reprogram the information base through the double-buffered
        bank path: the new table is assembled in the shadow bank (3
        cycles per pair, same write port as WRITE_PAIR) while packets
        keep hitting the active bank, then swapped in atomically in a
        single cycle.  No packet ever observes a half-programmed
        information base, and an exception mid-assembly leaves the
        active bank untouched (the shadow bank rolls back).
        """
        if self.ilm.generation == self._mirrored_ilm_generation:
            return
        self.modifier.bank_begin()
        cycles = 0
        try:
            for label, nhlfe in self.ilm:
                stored = stored_pair(nhlfe.op, nhlfe.out_label)
                if stored is None:
                    continue
                stored_label, stored_op = stored
                # a label can arrive at any stack depth: mirror per level
                for level in (1, 2, 3):
                    try:
                        cycles += self.modifier.bank_write_pair(
                            level, label, stored_label, stored_op
                        )
                    except StagingBackpressure:
                        # bounded command queue full: the control plane
                        # yields until it drains, then retries the write
                        self.modifier.bank_drain()
                        self.backpressure_stalls += 1
                        cycles += self.modifier.bank_write_pair(
                            level, label, stored_label, stored_op
                        )
        except Exception:
            self.modifier.bank_rollback()
            raise
        cycles += self.modifier.bank_commit()
        self._flow_cache.clear()
        self.modifier.set_router_type(self.role is RouterRole.LSR)
        self._mirrored_ilm_generation = self.ilm.generation
        # whatever level 1 doesn't hold for the ILM is flow-cache space
        mirrored = self.modifier.ib_counts()[0]
        self._flow_cache_capacity = max(0, self.modifier.ib_depth - mirrored)
        self.hw_control_cycles += cycles
        tel = self.telemetry
        if tel.enabled:
            entries = sum(self.modifier.ib_counts())
            tel.hw_cycles.labels(self.name, "control").inc(cycles)
            tel.info_base_writes.labels(self.name).inc(entries)
            tel.events.emit(
                InfoBaseProgrammed(
                    node=self.name,
                    entries=entries,
                    cycles=cycles,
                    reason=f"ilm generation {self.ilm.generation}",
                )
            )

    def _expected_pairs(self, level: int):
        """The shadow of what ``level`` should hold: the mirrored ILM
        entries (same traversal as :meth:`_sync_info_base`) plus, at
        level 1, the learned flow-cache pairs."""
        pairs = []
        for label, nhlfe in self.ilm:
            stored = stored_pair(nhlfe.op, nhlfe.out_label)
            if stored is not None:
                pairs.append((label, stored[0], int(stored[1])))
        if level == 1:
            pairs.extend(
                (dst, cached, int(LabelOp.PUSH))
                for dst, cached in self._flow_cache.items()
            )
        return pairs

    def scrub_info_base(self) -> "list[ScrubReport]":
        """Run a VERIFY_INFO-style scrub over all three levels.

        Each level is read back through the management port and
        compared against the node's shadow (ILM mirror + flow cache);
        corrupted pairs are repaired in place.  Much cheaper than the
        full reset-and-reprogram of :meth:`_sync_info_base` when only a
        few pairs were hit, and the cycles are charged to the control
        plane either way.
        """
        self._sync_info_base()  # never scrub against a stale mirror
        reports = []
        cycles = 0
        for level in (1, 2, 3):
            report = self.modifier.scrub(
                level, self._expected_pairs(level)
            )
            reports.append(report)
            cycles += report.cycles
        self.hw_control_cycles += cycles
        tel = self.telemetry
        if tel.enabled:
            repaired = sum(r.repaired for r in reports)
            if repaired:
                tel.scrub_repairs.labels(self.name).inc(repaired)
            tel.hw_cycles.labels(self.name, "control").inc(cycles)
            tel.events.emit(
                InfoBaseScrubbed(
                    node=self.name,
                    checked=sum(r.checked for r in reports),
                    corrupted=sum(r.corrupted for r in reports),
                    repaired=repaired,
                    cycles=cycles,
                )
            )
        return reports

    # -- the data path ------------------------------------------------------
    def _forward(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        count: int,
        train,
    ) -> ForwardingDecision:
        """The ladder's forwarding step: bring the information base up
        to date, then decide.  Span capture is decided head-of-packet
        (one read of the node's own telemetry reference and one boolean
        when telemetry is off, shared with the cycle publication;
        benchmarks/test_bench_obs_overhead.py counts the reads): a packet
        a recorder wants takes a real pass, since a replay has no phases
        to give, and :meth:`observe` hands them over.  Anything else
        takes the flow cache while batching."""
        self._sync_info_base()
        tel = self.telemetry
        tel_enabled = tel.enabled
        labelled = isinstance(packet, MPLSPacket)
        inner = packet.inner if labelled else packet
        if (
            train is None
            and tel_enabled
            and tel.spans is not None
            and tel.spans.wants(inner.flow_id, inner.uid)
        ):
            self._phase_log = []
        elif self.flow_cache is not None:
            return self.flow_cache.process(packet, count)
        if labelled:
            decision = self._hw_transit(packet)
        else:
            decision = self._hw_ingress(packet)
        if tel_enabled:
            self._publish_cycles(tel, inner.flow_id)
        return decision

    def observe(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        decision: ForwardingDecision,
        train=None,
    ) -> None:
        """The hop's telemetry, then a captured pass's phases: they
        follow the hop event the span recorder parents them to."""
        super().observe(packet, decision, train)
        if self._phase_log is not None:
            inner = packet.inner if isinstance(packet, MPLSPacket) else packet
            self._emit_phases(self.telemetry, inner.uid, inner.flow_id)

    # -- what the flow cache memoizes (see repro.mpls.fastpath) ---------------
    def version(self) -> Tuple[int, int, int]:
        """What an outcome depends on beyond the packet: the tables and
        every information-base write (search cycles depend on pair
        positions, so corruption, scrub repairs and level-1 installs
        and evictions all count)."""
        return (
            self.ilm.generation,
            self.ftn.generation,
            self.modifier.state_version,
        )

    def measure(
        self, packet: Union[IPv4Packet, MPLSPacket]
    ) -> Tuple[ForwardingDecision, Tuple[int, int, int]]:
        """One pass, its data cycles published as one packet's cost, and
        its deltas: data cycles, fast- and slow-path packets."""
        cycles, fast, slow = (
            self.hw_data_cycles,
            self.fast_path_packets,
            self.slow_path_packets,
        )
        if isinstance(packet, MPLSPacket):
            decision = self._hw_transit(packet)
            flow_id = packet.inner.flow_id
        else:
            decision = self._hw_ingress(packet)
            flow_id = packet.flow_id
        tel = self.telemetry
        if tel.enabled:
            self._publish_cycles(tel, flow_id)
        return decision, (
            self.hw_data_cycles - cycles,
            self.fast_path_packets - fast,
            self.slow_path_packets - slow,
        )

    def replay(
        self,
        packet: Union[IPv4Packet, MPLSPacket],
        delta: Tuple[int, int, int],
        times: int,
        events: bool,
    ) -> None:
        """Advance the counters as ``times`` more packets through the
        measured pass: its data cycles and path counts, one per-packet
        cycle sample each, and the level-1 LRU touch a fast-path
        ingress makes (or eviction order would diverge).  A hardware
        pass records no events to emit again."""
        cycles, fast, slow = delta
        self.fast_path_packets += fast * times
        self.slow_path_packets += slow * times
        if isinstance(packet, IPv4Packet):
            dst = packet.identifier()
            if dst in self._flow_cache:
                self._flow_cache.move_to_end(dst)
            flow_id = packet.flow_id
        else:
            flow_id = packet.inner.flow_id
        tel = self.telemetry
        tel_enabled = tel.enabled
        for _ in range(times):
            self.hw_data_cycles += cycles
            self.modifier.total_cycles += cycles
            if tel_enabled:
                self._publish_cycles(tel, flow_id)

    def _publish_cycles(self, tel, flow_id: int) -> None:
        """Publish the data cycles spent since the last call as one
        packet's cost (a train publishes once per replayed packet, so
        the per-packet histogram never sees a summed sample)."""
        cycles_after = self.hw_data_cycles
        delta = cycles_after - self._observed_data_cycles
        self._observed_data_cycles = cycles_after
        if delta:
            tel.hw_cycles.labels(self.name, "data").inc(delta)
            tel.hw_packet_cycles.labels(self.name).observe(delta)
            # flow accounting attributes the cycle delta to this
            # packet's flow record; rides the guard already taken
            if tel.flows is not None:
                tel.flows.record_hw_cycles(self.name, flow_id, delta)

    def _emit_phases(self, tel, uid: int, flow_id: int) -> None:
        """Publish the captured phases as one cycles-domain batch, with
        the cycle-to-scheduler-time anchor (``anchor_time`` is "now":
        the phases just ran, instantaneously in scheduler time).  The
        list goes as logged; the node starts a fresh one per packet."""
        log = self._phase_log
        self._phase_log = None
        if not log:
            return
        clock = tel.events.clock
        tel.events.emit_phases(
            self.name, uid, flow_id,
            clock() if clock is not None else 0.0,
            STRATIX_EP1S40.clock_hz, log,
        )

    def _log_update_phases(self, log, offset: int, result) -> None:
        """Record an UPDATE transaction and its RTL-level split."""
        log.append(("update", None, offset, offset + result.cycles))
        searched = result.search_cycles
        if searched is not None:
            log.append(("search", "update", offset, offset + searched))
            if result.cycles > searched:
                log.append(
                    ("modify", "update", offset + searched, offset + result.cycles)
                )

    def _load_stack(self, stack: LabelStack) -> int:
        cycles = 0
        for entry in reversed(list(stack)):
            cycles += self.modifier.user_push(entry)
        return cycles

    def _drain_stack(self) -> int:
        cycles = 0
        while self.modifier.stack():
            _, c = self.modifier.user_pop()
            cycles += c
        return cycles

    def _hw_transit(self, packet: MPLSPacket) -> ForwardingDecision:
        if packet.stack.is_empty:
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: labelled packet with empty stack",
            )
        top = packet.stack.top
        nhlfe = self.ilm.get(top.label)
        log = self._phase_log
        cycles = self._load_stack(packet.stack)
        if log is not None:
            log.append(("stack-load", None, 0, cycles))
        result = self.modifier.update()
        if log is not None:
            self._log_update_phases(log, cycles, result)
        cycles += result.cycles
        if result.discarded:
            self.hw_data_cycles += cycles
            self.fast_path_packets += 1
            # named as the software engine names it: a miss (or a pair
            # the modifier lost), an expired TTL, a push past the stack
            full = packet.stack.depth >= MAX_LEVELS
            reason = f"no ILM entry for label {top.label}"
            if nhlfe is not None and top.ttl <= 1:
                reason = "MPLS TTL expired"
            elif nhlfe is not None and nhlfe.op is LabelOp.PUSH and full:
                reason = f"push would exceed the {MAX_LEVELS}-level stack limit"
            return ForwardingDecision(Action.DISCARD, reason=f"{self.name}: {reason}")
        new_stack = LabelStack(list(result.stack))
        drained = self._drain_stack()
        if log is not None:
            log.append(("stack-drain", None, cycles, cycles + drained))
        cycles += drained
        self.hw_data_cycles += cycles
        self.fast_path_packets += 1
        next_hop = nhlfe.next_hop if nhlfe is not None else None
        out_interface = nhlfe.out_interface if nhlfe is not None else None
        if new_stack.is_empty:
            inner = packet.inner
            inner = inner.with_ttl(min(max(0, top.ttl - 1), inner.ttl))
            return ForwardingDecision(
                Action.FORWARD_IP,
                packet=inner,
                next_hop=next_hop,
                out_interface=out_interface,
            )
        return ForwardingDecision(
            Action.FORWARD_MPLS,
            packet=packet.with_stack(new_stack),
            next_hop=next_hop,
            out_interface=out_interface,
        )

    def _hw_ingress(self, packet: IPv4Packet) -> ForwardingDecision:
        dst = packet.identifier()
        cached_label = self._flow_cache.get(dst)
        if cached_label is None:
            # slow path: software classification, then learn into the
            # level-1 flow cache
            self.slow_path_packets += 1
            pair = self.ftn.get(packet)
            if pair is None:
                return ForwardingDecision(
                    Action.DISCARD,
                    reason=f"{self.name}: no FEC matches packet to {packet.dst}",
                )
            _fec, nhlfe = pair
            if nhlfe.op is not LabelOp.PUSH:
                # unlabelled forwarding (e.g. PHP-adjacent): software path
                if packet.ttl <= 1:
                    return ForwardingDecision(
                        Action.DISCARD,
                        reason=f"{self.name}: IPv4 TTL expired at ingress",
                    )
                return ForwardingDecision(
                    Action.FORWARD_IP,
                    packet=packet.decremented(),
                    next_hop=nhlfe.next_hop,
                    out_interface=nhlfe.out_interface,
                )
            if self._flow_cache_capacity == 0:
                # no level-1 space at all: forward in software
                return self._software_ingress(packet, nhlfe)
            if len(self._flow_cache) >= self._flow_cache_capacity:
                # evict the least recently used destination through the
                # hardware's remove path, keeping dict and IB in step
                old_dst, _ = self._flow_cache.popitem(last=False)
                removal = self.modifier.remove_pair(1, old_dst)
                self.hw_control_cycles += removal.cycles
                self.flow_cache_evictions += 1
            self.hw_control_cycles += self.modifier.write_pair(
                1, dst, nhlfe.out_label, LabelOp.PUSH
            )
            self._flow_cache[dst] = nhlfe.out_label
            cached_label = nhlfe.out_label
        else:
            self._flow_cache.move_to_end(dst)
            self.fast_path_packets += 1
        pair = self.ftn.get(packet)
        nhlfe = pair[1] if pair is not None else None
        cos = (
            nhlfe.cos
            if nhlfe is not None and nhlfe.cos is not None
            else _dscp_to_cos(packet.dscp)
        )
        log = self._phase_log
        result = self.modifier.update(
            packet_id=dst, ttl=packet.ttl, cos=cos
        )
        if log is not None:
            self._log_update_phases(log, 0, result)
        self.hw_data_cycles += result.cycles
        if result.discarded:
            self._drain_stack()
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: IPv4 TTL expired at ingress"
                if packet.ttl <= 1
                else f"{self.name}: hardware discard at ingress",
            )
        new_stack = LabelStack(list(result.stack))
        drained = self._drain_stack()
        if log is not None:
            log.append(
                ("stack-drain", None, result.cycles, result.cycles + drained)
            )
        self.hw_data_cycles += drained
        inner = packet.decremented()
        return ForwardingDecision(
            Action.FORWARD_MPLS,
            packet=MPLSPacket(new_stack, inner),
            next_hop=nhlfe.next_hop if nhlfe is not None else None,
            out_interface=nhlfe.out_interface if nhlfe is not None else None,
        )

    def _software_ingress(
        self, packet: IPv4Packet, nhlfe
    ) -> ForwardingDecision:
        """Pure-software push, used when the flow cache has no space.

        Semantically identical to
        :meth:`~repro.mpls.forwarding.ForwardingEngine.ingress`.
        """
        if packet.ttl <= 1:
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: IPv4 TTL expired at ingress",
            )
        from repro.mpls.label import LabelEntry

        inner = packet.decremented()
        cos = (
            nhlfe.cos if nhlfe.cos is not None else _dscp_to_cos(packet.dscp)
        )
        stack = LabelStack().push(
            LabelEntry(label=nhlfe.out_label, cos=cos, ttl=inner.ttl)
        )
        return ForwardingDecision(
            Action.FORWARD_MPLS,
            packet=MPLSPacket(stack, inner),
            next_hop=nhlfe.next_hop,
            out_interface=nhlfe.out_interface,
        )

    # -- statistics ---------------------------------------------------------
    @property
    def mean_hw_cycles_per_packet(self) -> float:
        total = self.fast_path_packets + self.slow_path_packets
        return self.hw_data_cycles / total if total else 0.0
