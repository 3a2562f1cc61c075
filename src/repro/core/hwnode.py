"""The hardware router: the paper's Figure 6 as a network node.

:class:`HardwareLSRNode` is the one hardware router, and a drop-in
replacement for :class:`~repro.mpls.router.LSRNode` inside an
:class:`~repro.net.network.MPLSNetwork`: the control plane (the paper's
"routing functionality") programs the same ILM/FTN tables, but every
label operation runs on the label stack modifier, with exact
clock-cycle accounting per packet.  The modifier backend is chosen once,
on the node:

* ``backend="model"`` (the default) -- the functional model
  (:class:`~repro.hw.model.FunctionalModifier`), equivalent to the RTL
  by property test, with cycle counts from the Table 6 formulas.  Fast
  enough for network-scale workloads.
* ``backend="rtl"`` -- the cycle-accurate RTL
  (:class:`~repro.hw.driver.ModifierDriver`): every pass is simulated
  clock edges.  Slow, exact.

A network hands the node packets (:meth:`LSRNode.receive`); a layer-2
frame takes the whole of Figure 6 (:meth:`HardwareLSRNode.process_frame`):
the ingress packet processing module's parse, the same hop, the egress
module's build.

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
  that destination are label-switched entirely in hardware.  The FTN
  is still read once per packet: a learned pair whose label is no
  longer the FTN's push label (an FRR switchover or revert rewrites
  only the FTN) is removed through the management port and learned
  again.  The node counts slow-path events so benchmarks can show the
  cache working.

Packets take :meth:`LSRNode.receive`, the one hop ladder, like on any
node, and the hop contract of :mod:`repro.mpls.forwarding`, the
software engine's rules: the reserved-label step, the discard checks
and their reasons, the software-only NOOP entry, the CoS of a push and
the IPv4 TTL a popped-empty stack leaves.  What the node adds is only
hardware: the information-base sync, the level-1 learned pairs, one
:meth:`~repro.hw.model.ModifierBackend.forward` pass for the label
operation (load the stack, UPDATE, drain, its phases logged when the
packet is span-sampled) and its cycles.  A hop the contract discards
still takes its pass, since the hardware searches before VERIFY_INFO
refuses; a NOOP hop takes none (the information base stores no NOOP
pair).  The path counters count ingress classifications (slow) and
passes (fast): a hop decided without the modifier counts in neither.
A pass the modifier discards although the contract forwards is a pair
the information base lost (a soft error a scrub repairs), named as a
miss.  The node overrides the ladder's forwarding step -- sync, then
the pass, or while batching the
:class:`~repro.mpls.fastpath.FlowCache`, which memoizes it (the node
is its own engine) -- and :meth:`observe`, which hands a span-sampled
pass's phases over after the hop event.  The node advances no
:class:`~repro.mpls.forwarding.OpCounts`, mirrors no
``repro_mpls_ops_total`` and emits no ``LabelOpApplied``.

Known, documented semantic difference from the software engine: on a
pop that exposes a lower stack entry, the hardware writes the
decremented outer TTL into the exposed entry unconditionally (the
paper's UPDATE_TOP), while the software engine takes the minimum with
the exposed entry's own TTL.  Under the uniform TTL model both values
coincide, since nested entries are created with equal TTLs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional, Tuple, Union

from repro.core.device import STRATIX_EP1S40
from repro.core.packet_processing import (
    EgressPacketProcessor,
    Frame,
    IngressPacketProcessor,
)
from repro.hw.driver import ModifierDriver
from repro.hw.model import (
    FunctionalModifier,
    ModifierBackend,
    ScrubReport,
)
from repro.mpls.forwarding import (
    EMPTY_STACK,
    Action,
    ForwardingDecision,
    OpCounts,
    discard,
    dscp_to_cos,
    forward,
    ingress_discard,
    ingress_hop,
    leaving_ip,
    noop,
    push_cos,
    reserved_step,
    transit_discard,
)
from repro.mpls.label import IMPLICIT_NULL, LabelEntry, LabelOp
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


class ProcessResult(NamedTuple):
    """One frame through Figure 6."""

    #: the rebuilt frame; None unless the hop forwarded
    frame: Optional[Frame]
    decision: ForwardingDecision
    #: the hop's data cycles (the change in ``hw_data_cycles``)
    cycles: int
    discarded: bool
    #: the outgoing label stack; empty unless forwarded labelled
    stack_after: Tuple[LabelEntry, ...]


class HardwareLSRNode(LSRNode):
    """An LSR/LER whose label operations run on the label stack
    modifier: ``backend`` is ``"model"`` or ``"rtl"`` (see the module
    docstring)."""

    def __init__(
        self,
        name: str,
        role: RouterRole = RouterRole.LSR,
        ib_depth: int = 1024,
        backend: str = "model",
    ) -> None:
        super().__init__(name, role)
        if backend == "model":
            backend_class = FunctionalModifier
        elif backend == "rtl":
            backend_class = ModifierDriver
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.modifier: ModifierBackend = backend_class(ib_depth=ib_depth)
        self.modifier.set_router_type(role is RouterRole.LSR)
        #: Figure 6's packet processing modules, around the hop
        self.ingress = IngressPacketProcessor()
        self.egress = EgressPacketProcessor()
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
    def process_frame(self, frame: Frame) -> ProcessResult:
        """Figure 6 end to end: the ingress module parses the frame, the
        node's hop (:meth:`receive`, the one ladder) decides, and the
        egress module rebuilds the frame around what leaves."""
        parsed = self.ingress.parse(frame)
        packet = parsed.inner
        if not parsed.stack.is_empty:
            packet = MPLSPacket(parsed.stack, packet)
        cycles = self.hw_data_cycles
        decision = self.receive(packet)
        out = decision.packet
        stack: Tuple[LabelEntry, ...] = ()
        if not decision.forwarded:
            frame = None
        elif isinstance(out, MPLSPacket):
            stack = tuple(out.stack)
            frame = self.egress.build(parsed, out.stack, new_ttl=out.inner.ttl)
        else:
            frame = self.egress.build(parsed, LabelStack(), new_ttl=out.ttl)
        return ProcessResult(
            frame,
            decision,
            self.hw_data_cycles - cycles,
            decision.action is Action.DISCARD,
            stack,
        )

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

    def _hw_transit(self, packet: MPLSPacket) -> ForwardingDecision:
        """The hop contract with the label operation on the modifier:
        one pass for every hop past the reserved-label step but a NOOP,
        a discard included (its search and VERIFY_INFO cost cycles)."""
        stack = packet.stack
        if stack.is_empty:
            return discard(self.name, EMPTY_STACK)
        top = stack.top
        if top.label <= IMPLICIT_NULL:
            step = reserved_step(self.name, packet)
            if isinstance(step, ForwardingDecision):
                return step
            packet, stack = step, step.stack
            top = stack.top
        nhlfe = self.ilm.get(top.label)
        reason = transit_discard(stack, top, nhlfe)
        if reason is None and nhlfe.op is LabelOp.NOOP:
            return forward(
                Action.FORWARD_MPLS,
                noop(packet, top),
                nhlfe,
                self.neighbor_interfaces,
            )
        result, cycles = self.modifier.forward(stack, log=self._phase_log)
        self.hw_data_cycles += cycles
        self.fast_path_packets += 1
        if reason is not None:
            return discard(self.name, reason)
        if result.discarded:
            # the information base lost the pair (a soft error a scrub
            # repairs): named as the miss it is to the modifier
            return discard(self.name, transit_discard(stack, top, None))
        entries = result.stack
        if not entries:
            action, out = Action.FORWARD_IP, leaving_ip(packet.inner, top.ttl - 1)
        else:
            if result.performed is LabelOp.PUSH:
                # the information base holds no CoS: egress writes the push's
                pushed = entries[0]
                entries = (pushed.with_cos(push_cos(nhlfe, pushed.cos)),) + entries[1:]
            action, out = Action.FORWARD_MPLS, packet.with_stack(LabelStack(entries))
        return forward(action, out, nhlfe, self.neighbor_interfaces)

    def _hw_ingress(self, packet: IPv4Packet) -> ForwardingDecision:
        """The ingress hop on a learned level-1 pair, or the software
        hop when there is none to learn (no FEC, an FTN entry that does
        not push) or no level-1 space to learn it in."""
        dst = packet.identifier()
        pair = self.ftn.get(packet)
        nhlfe = pair[1] if pair is not None else None
        pushed = nhlfe.out_label if nhlfe is not None and nhlfe.op is LabelOp.PUSH else None
        cached_label = self._flow_cache.get(dst)
        if cached_label is not None and cached_label != pushed:
            # the FTN moved under a learned pair (an FRR switchover or
            # revert rewrites only the FTN): unlearn it through the
            # management port and take the slow path below
            del self._flow_cache[dst]
            self.hw_control_cycles += self.modifier.remove_pair(1, dst).cycles
            cached_label = None
        if cached_label is None:
            # slow path: software classification, then learn into the
            # level-1 flow cache
            self.slow_path_packets += 1
            if pushed is None or self._flow_cache_capacity == 0:
                return ingress_hop(
                    self.name, packet, nhlfe, self.neighbor_interfaces
                )
            if len(self._flow_cache) >= self._flow_cache_capacity:
                # evict the least recently used destination through the
                # hardware's remove path, keeping dict and IB in step
                old_dst, _ = self._flow_cache.popitem(last=False)
                removal = self.modifier.remove_pair(1, old_dst)
                self.hw_control_cycles += removal.cycles
                self.flow_cache_evictions += 1
            self.hw_control_cycles += self.modifier.write_pair(
                1, dst, pushed, LabelOp.PUSH
            )
            self._flow_cache[dst] = pushed
        else:
            self._flow_cache.move_to_end(dst)
            self.fast_path_packets += 1
        result, cycles = self.modifier.forward(
            packet_id=dst,
            ttl=packet.ttl,
            cos=push_cos(nhlfe, dscp_to_cos(packet.dscp)),
            log=self._phase_log,
        )
        self.hw_data_cycles += cycles
        reason = ingress_discard(packet, nhlfe)
        if reason is not None:
            return discard(self.name, reason)
        if result.discarded:
            # the learned pair was lost (a soft error)
            return discard(self.name, "hardware discard at ingress")
        return forward(
            Action.FORWARD_MPLS,
            MPLSPacket(LabelStack(result.stack), packet.decremented()),
            nhlfe,
            self.neighbor_interfaces,
        )

    # -- statistics ---------------------------------------------------------
    @property
    def mean_hw_cycles_per_packet(self) -> float:
        total = self.fast_path_packets + self.slow_path_packets
        return self.hw_data_cycles / total if total else 0.0
