"""Cross-layer span tracing: the packet flight recorder.

A :class:`SpanRecorder` is a sink over the existing
:class:`~repro.obs.events.EventLog` that correlates the flat event
stream into per-packet trace trees:

* a **root span** per packet (trace id = flow id + uid),
* a **hop span** per node traversal (ingress-to-egress in
  event-scheduler seconds, folded from ``PacketForwarded`` /
  ``PacketDropped`` / ``PacketDelivered``),
* **phase spans** per hardware operation beneath each hop
  (label-stack-modifier work in RTL cycles, folded from
  ``HWOpExecuted`` and placed on the simulation timeline via the
  cycle-to-time anchor the hardware node publishes), with **RTL spans**
  (search/modify) nested one level further down.

A traced packet is bytes, not objects: the recorder keeps one compact
store -- a few columns per trace, and one fixed-size packed row per
hop, label op, phase batch and fault note, each naming its trace by
index and its strings, label stacks and phase lists by intern id (the
layouts are :data:`_HOP`, :data:`_OP`, :data:`_PHASES` and
:data:`_NOTE`).  :meth:`SpanRecorder.summary`,
:meth:`~SpanRecorder.finalize`, fault annotation and the SLO quantiles
read the store; :meth:`~SpanRecorder.traces`,
:meth:`~SpanRecorder.trace_of` and :meth:`~SpanRecorder.slowest` build
:class:`Trace` and :class:`Span` objects from it, afresh on every call.

Sampling is head-based and deterministic: the keep/drop decision is a
pure hash of the packet uid against ``sample_rate`` (with per-flow
overrides), so the same seeded run always samples the same packets and
exports are byte-stable.  Fault-injection events annotate every trace
whose lifetime overlaps the fault window.  SLO latency histograms are
observed per FEC for *every* delivered packet regardless of sampling;
p50/p95/p99 are published as gauges at :meth:`SpanRecorder.finalize`.

Exporters: :func:`to_chrome_trace` (Chrome trace-event JSON, loadable
in Perfetto / ``chrome://tracing``) and :func:`spans_to_jsonl` (the
repo's JSONL line format, schema v2).
"""

from __future__ import annotations

import json
import struct
from array import array
from dataclasses import dataclass, field
from typing import (
    Any,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    TextIO,
    Tuple,
)

from repro.obs.events import (
    CLOCK_CYCLES,
    CLOCK_SIM,
    Event,
    FaultHealed,
    FaultInjected,
    HWOpExecuted,
    JSONL_SCHEMA_VERSION,
    LabelOpApplied,
    OAMProbeCompleted,
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
)
from repro.obs.telemetry import Telemetry, get_telemetry

#: Span kinds, from root to leaf.
KIND_PACKET = "packet"
KIND_HOP = "hop"
KIND_LABEL_OP = "label-op"
KIND_HW_PHASE = "hw-phase"
KIND_RTL = "rtl"

#: Quantiles published per FEC at finalize.
SLO_QUANTILES = (0.50, 0.95, 0.99)


def sample_hash(uid: int) -> float:
    """Map a packet uid to [0, 1) deterministically (no RNG, so the
    same seeded run samples the same packets on every execution)."""
    return ((uid * 0x9E3779B1) & 0xFFFFFFFF) / 4294967296.0


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted non-empty list."""
    n = len(sorted_values)
    rank = max(1, min(n, int(-(-q * n // 1))))  # ceil without math
    return sorted_values[rank - 1]


@dataclass
class SpanAnnotation:
    """A point-in-time note attached to a span (e.g. a fault event)."""

    time: float
    label: str
    detail: str = ""


@dataclass
class Span:
    """One timed unit of work inside a trace."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    start: float
    end: Optional[float] = None
    clock_domain: str = CLOCK_SIM
    #: Packet-relative RTL cycle interval for hardware spans.
    cycle_start: Optional[int] = None
    cycle_end: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    annotations: List[SpanAnnotation] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "clock_domain": self.clock_domain,
            "cycle_start": self.cycle_start,
            "cycle_end": self.cycle_end,
            "attributes": dict(self.attributes),
            "annotations": [
                {"time": a.time, "label": a.label, "detail": a.detail}
                for a in self.annotations
            ],
        }


@dataclass
class Trace:
    """One packet's span tree, keyed by the packet uid (built by the
    recorder when read: a snapshot, not a live view)."""

    uid: int
    flow_id: int
    fec: str
    root: Span
    #: All non-root spans, in creation (span id) order.
    spans: List[Span] = field(default_factory=list)
    delivered: bool = False
    dropped: bool = False
    probe: bool = False

    @property
    def trace_id(self) -> str:
        return f"flow{self.flow_id}/pkt{self.uid}"

    @property
    def start(self) -> float:
        return self.root.start

    @property
    def end(self) -> float:
        if self.root.end is not None:
            return self.root.end
        ends = [s.end for s in self.spans if s.end is not None]
        return max(ends) if ends else self.root.start

    @property
    def latency(self) -> float:
        return self.end - self.start

    def spans_of_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    @property
    def hop_spans(self) -> List[Span]:
        return [s for s in self.spans if s.kind == KIND_HOP]

    @property
    def path(self) -> List[str]:
        return [s.attributes["node"] for s in self.hop_spans]

    def all_spans(self) -> List[Span]:
        return [self.root, *self.spans]


@dataclass
class FaultWindow:
    """The [injected, healed] interval of one fault, for annotation."""

    start: float
    fault: str
    target: str
    detail: str = ""
    end: Optional[float] = None

    def overlaps(self, t0: float, t1: float) -> bool:
        if self.start > t1:
            return False
        return self.end is None or self.end >= t0


# -- the store ---------------------------------------------------------------
# One packed little-endian row per record, appended to one bytearray per
# kind in arrival order.  A row names its trace by index (the trace
# columns' row) and every string, label stack and phase list by its id
# in the recorder's intern table; span ids are reserved at arrival, so
# a trace's records sorted by span id are its spans in creation order.
#
#   _HOP     trace, span id, start, end (NaN while open), node,
#            labels in, ttl in, action (a drop: reason), labels out
#            (a drop: -1), next hop
#   _OP      trace, span id, time, (op, label in, label out)
#   _PHASES  trace, first span id, node, phase list, anchor, clock
#   _NOTE    trace, span id it notes, time, (label, detail)
#
# A hop's parent is its trace's root; a label op's the hop before it; a
# phase's is found when the trace is built, walking its records in
# arrival order -- what the eager fold found when the phase arrived.
_HOP = struct.Struct("<iqddiiiiii")
_OP = struct.Struct("<iqdi")
_PHASES = struct.Struct("<iqiidd")
_NOTE = struct.Struct("<iqdi")
#: where in a hop row its end is, and how it is written
_HOP_END = struct.calcsize("<iqd")
_END = struct.Struct("<d")

_NAN = float("nan")

#: trace flag bits
_DELIVERED, _DROPPED, _PROBE = 1, 2, 4


class _Interned(dict):
    """value -> id, the next id for a value not seen yet; ``by_id[id]``
    is the value back.  Equal values share one id (and one object)."""

    def __init__(self) -> None:
        super().__init__()
        self.by_id: List[Any] = []

    def __missing__(self, value: Any) -> int:
        self[value] = n = len(self.by_id)
        self.by_id.append(value)
        return n


def _or_none(value: float) -> Optional[float]:
    return None if value != value else value


class SpanRecorder:
    """Folds the event stream into per-packet traces.

    Constructing a recorder enables telemetry on ``telemetry`` (the
    default instance otherwise), attaches itself as an event sink, and
    publishes itself at ``telemetry.spans`` so hardware nodes know to
    emit per-packet phase events; :meth:`detach` undoes all three.

    Parameters
    ----------
    sample_rate:
        Fraction of packets to trace, decided per uid at the first
        event (head-based).  1.0 traces everything, 0.0 nothing.
    flow_rates:
        Per-flow-id overrides of ``sample_rate`` (the per-FEC override
        knob: map the flow ids carrying a FEC to its rate).
    flow_fecs:
        flow id -> FEC name, used for SLO attribution and trace
        labelling; unmapped flows fall back to ``flow-<id>``.
    nodes:
        Restrict folding to these node names (a network's node set), so
        concurrent networks sharing the default telemetry do not
        pollute each other's traces.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        flow_rates: Optional[Mapping[int, float]] = None,
        flow_fecs: Optional[Mapping[int, str]] = None,
        nodes: Optional[Iterable[str]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate not in [0, 1]: {sample_rate}")
        self.sample_rate = sample_rate
        self.flow_rates = dict(flow_rates or {})
        self.flow_fecs = dict(flow_fecs or {})
        self.nodes = frozenset(nodes) if nodes is not None else None
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        #: uid -> its trace's row in the columns below
        self._rows: Dict[int, int] = {}
        self._uid = array("q")
        self._flow = array("q")
        self._root = array("q")  # the root span's id
        self._start = array("d")
        self._end = array("d")  # NaN until delivered, dropped or finalized
        self._latency = array("d")  # NaN until delivered
        self._flags = bytearray()
        #: row -> (fec, reached, rtt) of the latest probe result
        self._probes: Dict[int, Tuple[str, bool, Optional[float]]] = {}
        #: the packed rows, one bytearray per kind (layouts above)
        self._hops = bytearray()
        self._ops = bytearray()
        self._phases = bytearray()
        self._notes = bytearray()
        self._ids = _Interned()
        #: trace row -> its open hop's index in ``_hops``
        self._open: Dict[int, int] = {}
        #: uids decided against: the decision for a uid with a trace is
        #: keep, for one in here drop, for any other ``sample_hash``
        self._dropped_uids: Set[int] = set()
        self._pending_ops: Dict[str, List[LabelOpApplied]] = {}
        self.fault_windows: List[FaultWindow] = []
        self._latencies: Dict[str, array] = {}
        self.quantiles: Dict[str, Dict[str, float]] = {}
        self._next_span_id = 1
        self._finalized = False
        self._detached = False
        self._was_enabled = self.telemetry.enabled
        self.telemetry.enable()
        self.telemetry.spans = self
        self.telemetry.events.add_sink(self)

    # -- sampling ----------------------------------------------------------
    def wants(self, flow_id: int, uid: int) -> bool:
        """The head-based keep/drop decision for one packet (made once
        per uid)."""
        if uid in self._rows:
            return True
        if uid in self._dropped_uids:
            return False
        if sample_hash(uid) < self.flow_rates.get(flow_id, self.sample_rate):
            return True
        self._dropped_uids.add(uid)
        return False

    @property
    def sampled_out(self) -> int:
        """Packets decided against, each counted once."""
        return len(self._dropped_uids)

    def fec_of(self, flow_id: int) -> str:
        return self.flow_fecs.get(flow_id, f"flow-{flow_id}")

    # -- sink protocol -----------------------------------------------------
    def write(self, event: Event) -> None:
        # hops and deliveries are most of what still arrives one by one
        # (hardware phases come in batches, through write_phases)
        if isinstance(event, PacketForwarded):
            self._on_hop(event, dropped=False)
        elif isinstance(event, PacketDelivered):
            self._on_delivered(event)
        elif isinstance(event, PacketDropped):
            self._on_hop(event, dropped=True)
        elif isinstance(event, HWOpExecuted):
            self._on_hw_op(event)
        elif isinstance(event, LabelOpApplied):
            self._pending_ops.setdefault(event.node, []).append(event)
        elif isinstance(event, FaultInjected):
            self.fault_windows.append(
                FaultWindow(
                    start=event.time if event.time is not None else 0.0,
                    fault=event.fault,
                    target=event.target,
                    detail=event.detail,
                )
            )
        elif isinstance(event, FaultHealed):
            for window in reversed(self.fault_windows):
                if (
                    window.end is None
                    and window.fault == event.fault
                    and window.target == event.target
                ):
                    window.end = event.time
                    break
        elif isinstance(event, OAMProbeCompleted):
            self._on_probe(event)

    # -- folding -----------------------------------------------------------
    def _row(self, uid: int, flow_id: int, start: float) -> Optional[int]:
        """The packet's trace row, opened at ``start`` by its first
        sampled event; None when it is sampled out."""
        row = self._rows.get(uid)
        if row is None and self.wants(flow_id, uid):
            row = self._rows[uid] = len(self._uid)
            self._uid.append(uid)
            self._flow.append(flow_id)
            self._root.append(self._next_span_id)
            self._start.append(start)
            self._end.append(_NAN)
            self._latency.append(_NAN)
            self._flags.append(0)
            self._next_span_id += 1
        return row

    def _close_hop(self, row: int, time: float) -> None:
        """Close the trace's open hop, if any, at ``time``."""
        hop = self._open.pop(row, None)
        if hop is not None:
            _END.pack_into(self._hops, hop * _HOP.size + _HOP_END, time)

    def _on_hop(self, event: Any, dropped: bool) -> None:
        # label-op buffers are keyed by node and must drain whether or
        # not this packet is sampled (the node processes synchronously,
        # so pending ops always belong to the packet just recorded)
        node = event.node
        pending = self._pending_ops.pop(node, None)
        if self.nodes is not None and node not in self.nodes:
            return
        time = event.time if event.time is not None else 0.0
        row = self._row(event.uid, event.flow_id, time)
        if row is None:
            return
        self._close_hop(row, time)
        ids = self._ids
        hop_id = span_id = self._next_span_id
        if dropped:
            self._hops += _HOP.pack(
                row, hop_id, time, time, ids[node],
                ids[tuple(event.labels_in)], event.ttl_in, ids[event.reason],
                -1, -1,
            )
            self._flags[row] |= _DROPPED
            end = self._end[row]
            if end != end or end < time:
                self._end[row] = time
        else:
            self._open[row] = len(self._hops) // _HOP.size
            self._hops += _HOP.pack(
                row, hop_id, time, _NAN, ids[node],
                ids[tuple(event.labels_in)], event.ttl_in, ids[event.action],
                ids[tuple(event.labels_out)], ids[event.next_hop],
            )
        for op in pending or ():
            span_id += 1
            self._ops += _OP.pack(
                row, span_id, op.time if op.time is not None else time,
                ids[op.op, op.label_in, op.label_out],
            )
        self._next_span_id = span_id + 1

    def _on_delivered(self, event: PacketDelivered) -> None:
        if self.nodes is not None and event.node not in self.nodes:
            return
        # the SLO histogram sees every delivery, sampled or not; probe
        # flows (negative ids) are the OAM monitor's business instead
        if event.flow_id >= 0:
            fec = self.fec_of(event.flow_id)
            latencies = self._latencies.get(fec)
            if latencies is None:
                latencies = self._latencies[fec] = array("d")
            latencies.append(event.latency)
            tel = self.telemetry
            if tel.enabled:
                tel.fec_latency.labels(fec).observe(event.latency)
        time = event.time if event.time is not None else 0.0
        row = self._row(event.uid, event.flow_id, time)
        if row is None:
            return
        self._flags[row] |= _DELIVERED
        self._end[row] = time
        self._latency[row] = event.latency
        self._close_hop(row, time)

    def _on_hw_op(self, event: HWOpExecuted) -> None:
        self.write_phases(
            event.node, event.uid, event.flow_id,
            event.anchor_time, event.clock_hz,
            [(event.phase, event.parent_phase, event.cycle_start, event.cycle_end)],
        )

    def write_phases(self, node, uid, flow_id, anchor_time, clock_hz, phases):
        """Take one packet-hop's phases as one row: span ids are
        reserved now, the spans are built when the trace is read.  The
        row names the list by its intern id: a traced run repeats a few
        dozen lists over thousands of hops."""
        if not phases or (self.nodes is not None and node not in self.nodes):
            return
        hz = clock_hz if clock_hz > 0 else 1.0
        row = self._row(uid, flow_id, anchor_time + phases[0][2] / hz)
        if row is None:
            return
        ids = self._ids
        self._phases += _PHASES.pack(
            row, self._next_span_id, ids[node], ids[tuple(phases)],
            anchor_time, hz,
        )
        self._next_span_id += len(phases)

    def _note(self, row: int, span_id: int, time: float, label: str,
              detail: str) -> None:
        self._notes += _NOTE.pack(row, span_id, time, self._ids[label, detail])

    def _on_probe(self, event: OAMProbeCompleted) -> None:
        row = self._rows.get(event.uid)
        if row is None:
            return
        self._flags[row] |= _PROBE
        self._probes[row] = (event.fec, event.reached, event.rtt)
        if event.breach:
            time = event.time
            if time is None:
                time = self._trace_ends({row})[row]
            self._note(
                row, self._root[row], time, "slo-breach",
                f"fec {event.fec} rtt {event.rtt}",
            )

    def _trace_ends(self, rows: Collection[int]) -> Dict[int, float]:
        """row -> ``Trace.end`` without building the trace: its root's
        end, else the latest end of its rows, else its start."""
        latest: Dict[int, float] = {}

        def see(row: int, end: float) -> None:
            if row in rows and end == end:
                latest[row] = max(latest.get(row, end), end)

        for row, _, _, end, *_ in _HOP.iter_unpack(self._hops):
            see(row, end)
        for row, _, time, _ in _OP.iter_unpack(self._ops):
            see(row, time)
        shapes = self._ids.by_id
        cycle_ends: Dict[int, int] = {}  # phase list id -> its last cycle
        for row, _, _, shape, anchor, hz in _PHASES.iter_unpack(self._phases):
            if row in rows:
                cycle_end = cycle_ends.get(shape)
                if cycle_end is None:
                    cycle_end = cycle_ends[shape] = max(p[3] for p in shapes[shape])
                see(row, anchor + cycle_end / hz)
        ends = {}
        for row in rows:
            end = self._end[row]
            ends[row] = end if end == end else latest.get(row, self._start[row])
        return ends

    # -- lifecycle ---------------------------------------------------------
    def finalize(self) -> None:
        """Close open spans, attach fault annotations, publish SLO
        quantile gauges.  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        hops = self._hops
        for hop in self._open.values():
            # an open hop closes at its own start
            offset = hop * _HOP.size
            start = _HOP.unpack_from(hops, offset)[2]
            _END.pack_into(hops, offset + _HOP_END, start)
        self._open.clear()
        ends = self._end
        unended = {row for row, end in enumerate(ends) if end != end}
        if unended:
            for row, end in self._trace_ends(unended).items():
                ends[row] = end
        self._annotate_faults()
        for fec in sorted(self._latencies):
            values = sorted(self._latencies[fec])
            per_fec: Dict[str, float] = {}
            for q in SLO_QUANTILES:
                name = f"p{int(q * 100)}"
                per_fec[name] = quantile(values, q)
                if self.telemetry.enabled:
                    self.telemetry.fec_latency_quantiles.labels(
                        fec, name
                    ).set(per_fec[name])
            self.quantiles[fec] = per_fec

    def _annotate_faults(self) -> None:
        """Note every fault window on the root of each trace it overlaps
        and on each of that trace's hops at a node it names."""
        windows = self.fault_windows
        if not windows:
            return
        texts = []
        for window in windows:
            detail = window.target
            if window.detail:
                detail += f" ({window.detail})"
            texts.append((f"fault:{window.fault}", detail))
        starts, ends, roots = self._start, self._end, self._root
        for row in range(len(starts)):
            t0, t1 = starts[row], ends[row]
            for window, (label, detail) in zip(windows, texts):
                if window.overlaps(t0, t1):
                    at = min(max(window.start, t0), t1)
                    self._note(row, roots[row], at, label, detail)
        names = self._ids.by_id
        naming: Dict[int, List[int]] = {}  # node id -> windows naming it
        for row, span_id, start, end, node, *_ in _HOP.iter_unpack(self._hops):
            which = naming.get(node)
            if which is None:
                which = naming[node] = [
                    w for w, window in enumerate(windows)
                    if self._target_names(window.target, names[node])
                ]
            for w in which:
                window = windows[w]
                t1 = ends[row]
                if window.overlaps(starts[row], t1):
                    at = min(max(window.start, start), end or t1)
                    self._note(row, span_id, at, *texts[w])

    def _target_names(self, target: str, node: str) -> bool:
        """Whether a fault target (``node``, or ``a-b`` for a link)
        names ``node`` -- as a whole name, not a substring: ``n10-n11``
        does not name ``n1``.  Names may contain ``-`` themselves, so
        the other side of the split must be a known node when the
        recorder has a ``nodes`` set to check against."""
        if target == node:
            return True
        known, n = self.nodes, len(node)
        return (
            target.startswith(node + "-")
            and (known is None or target[n + 1 :] in known)
        ) or (
            target.endswith("-" + node)
            and (known is None or target[: -n - 1] in known)
        )

    def detach(self) -> None:
        """Stop recording: drop the sink, clear ``telemetry.spans``,
        restore the telemetry switch.  A no-op when already detached."""
        if self._detached:
            return
        self._detached = True
        try:
            self.telemetry.events.remove_sink(self)
        except ValueError:
            pass  # a telemetry reset already dropped the event log
        if self.telemetry.spans is self:
            self.telemetry.spans = None
        if not self._was_enabled:
            self.telemetry.disable()

    # -- reading: the only place Trace and Span objects are built ---------
    def _fec_at(self, row: int) -> str:
        probe = self._probes.get(row)
        return probe[0] if probe is not None else self.fec_of(self._flow[row])

    def _build(self, rows: List[int]) -> List[Trace]:
        """The traces of ``rows``, in that order, with exactly the spans
        the per-event fold built."""
        ids = self._ids.by_id
        wanted = set(rows)
        records: Dict[int, List[Tuple[int, str, tuple]]] = {r: [] for r in rows}
        for kind, layout, buffer in (
            (KIND_HOP, _HOP, self._hops),
            (KIND_LABEL_OP, _OP, self._ops),
            (KIND_HW_PHASE, _PHASES, self._phases),
        ):
            for record in layout.iter_unpack(buffer):
                if record[0] in wanted:
                    records[record[0]].append((record[1], kind, record))
        notes: Dict[int, List[SpanAnnotation]] = {}
        for row, span_id, time, text in _NOTE.iter_unpack(self._notes):
            if row in wanted:
                notes.setdefault(span_id, []).append(
                    SpanAnnotation(time, *ids[text])
                )
        out = []
        for row in rows:
            uid, flow_id, flags = self._uid[row], self._flow[row], self._flags[row]
            root_id = self._root[row]
            attributes: Dict[str, Any] = {"uid": uid, "flow_id": flow_id}
            if flags & _DELIVERED:
                attributes["latency"] = self._latency[row]
            probe = self._probes.get(row)
            if probe is not None:
                fec, reached, rtt = probe
                attributes.update({"fec": fec, "reached": reached, "rtt": rtt})
            root = Span(
                root_id, None,
                f"{'probe' if flags & _PROBE else 'packet'} {uid}",
                KIND_PACKET, self._start[row], _or_none(self._end[row]),
                CLOCK_SIM, None, None, attributes, notes.pop(root_id, []),
            )
            trace = Trace(
                uid, flow_id, self._fec_at(row), root, [],
                bool(flags & _DELIVERED), bool(flags & _DROPPED),
                bool(flags & _PROBE),
            )
            spans = trace.spans
            #: node -> its latest hop's id; phase -> the latest hw-phase
            hop_at: Dict[str, int] = {}
            phase_at: Dict[str, Span] = {}
            hop_id = root_id
            # span ids are unique: the sort never compares past them
            for _, kind, record in sorted(records[row]):
                if kind == KIND_HOP:
                    (_, hop_id, start, end, node, labels_in, ttl_in, what,
                     labels_out, next_hop) = record
                    node = ids[node]
                    attrs = {
                        "node": node, "labels_in": list(ids[labels_in]),
                        "ttl_in": ttl_in,
                    }
                    if labels_out < 0:
                        attrs["action"] = "discard"
                        attrs["reason"] = ids[what]
                    else:
                        attrs["action"] = ids[what]
                        attrs["labels_out"] = list(ids[labels_out])
                        attrs["next_hop"] = ids[next_hop]
                    spans.append(Span(
                        hop_id, root_id, f"hop {node}", KIND_HOP, start,
                        _or_none(end), CLOCK_SIM, None, None, attrs,
                        notes.pop(hop_id, []),
                    ))
                    hop_at[node] = hop_id
                elif kind == KIND_LABEL_OP:
                    _, span_id, time, op = record
                    op, label_in, label_out = ids[op]
                    spans.append(Span(
                        span_id, hop_id, f"{op} {label_in}->{label_out}",
                        KIND_LABEL_OP, time, time, CLOCK_SIM, None, None,
                        {"op": op, "label_in": label_in, "label_out": label_out},
                    ))
                else:
                    _expand(record, ids, hop_at, phase_at, root_id, spans)
            out.append(trace)
        return out

    # -- queries -----------------------------------------------------------
    def _by_start(self, rows: Iterable[int]) -> List[int]:
        starts, uids = self._start, self._uid
        return sorted(rows, key=lambda row: (starts[row], uids[row]))

    def traces(
        self,
        flow: Optional[int] = None,
        fec: Optional[str] = None,
        include_probes: bool = True,
    ) -> List[Trace]:
        flags = self._flags
        rows = [
            row
            for row in range(len(flags))
            if (flow is None or self._flow[row] == flow)
            and (fec is None or self._fec_at(row) == fec)
            and (include_probes or not flags[row] & _PROBE)
        ]
        return self._build(self._by_start(rows))

    def trace_of(self, uid: int) -> Trace:
        return self._build([self._rows[uid]])[0]

    def slowest(self, n: int = 5) -> List[Trace]:
        """The n delivered traces with the largest end-to-end latency."""
        starts, ends, uids = self._start, self._end, self._uid
        delivered = [
            row for row, flags in enumerate(self._flags) if flags & _DELIVERED
        ]
        delivered.sort(key=lambda row: (-(ends[row] - starts[row]), uids[row]))
        return self._build(delivered[:n])

    def summary(self) -> Dict[str, Any]:
        flags = self._flags
        shapes: Dict[int, int] = {}
        for _, _, _, shape, _, _ in _PHASES.iter_unpack(self._phases):
            shapes[shape] = shapes.get(shape, 0) + 1
        kinds = {
            KIND_PACKET: len(flags),
            KIND_HOP: len(self._hops) // _HOP.size,
            KIND_LABEL_OP: len(self._ops) // _OP.size,
            KIND_HW_PHASE: 0,
            KIND_RTL: 0,
        }
        for shape, batches in shapes.items():
            phases = self._ids.by_id[shape]
            hw = [phase[1] for phase in phases].count(None)
            kinds[KIND_HW_PHASE] += hw * batches
            kinds[KIND_RTL] += (len(phases) - hw) * batches
        annotated = {row for row, *_ in _NOTE.iter_unpack(self._notes)}
        return {
            "sample_rate": self.sample_rate,
            "traces": len(flags),
            "sampled_out": self.sampled_out,
            "delivered": sum(1 for f in flags if f & _DELIVERED),
            "dropped": sum(1 for f in flags if f & _DROPPED),
            "probes": sum(1 for f in flags if f & _PROBE),
            "annotated": len(annotated),
            "spans_by_kind": {k: n for k, n in sorted(kinds.items()) if n},
            "fec_latency_quantiles": {
                fec: dict(per_fec)
                for fec, per_fec in sorted(self.quantiles.items())
            },
        }


def _expand(
    record: tuple,
    ids: List[Any],
    hop_at: Dict[str, int],
    phase_at: Dict[str, Span],
    root_id: int,
    out: List[Span],
) -> None:
    """The hardware-phase fold of one batch row: ids in arrival order; an
    RTL phase hangs off the latest enclosing phase, anything without one
    off this node's latest hop, or the root."""
    _, span_id, node, shape, anchor, hz = record
    node = ids[node]
    fallback = hop_at.get(node, root_id)
    for phase, parent_phase, cycle_start, cycle_end in ids[shape]:
        kind = KIND_HW_PHASE if parent_phase is None else KIND_RTL
        parent = None if parent_phase is None else phase_at.get(parent_phase)
        span = Span(
            span_id,
            fallback if parent is None else parent.span_id,
            phase,
            kind,
            anchor + cycle_start / hz,
            anchor + cycle_end / hz,
            CLOCK_CYCLES,
            cycle_start,
            cycle_end,
            {"node": node, "cycles": cycle_end - cycle_start},
        )
        span_id += 1
        if parent_phase is None:
            phase_at[phase] = span
        out.append(span)


# -- exporters ---------------------------------------------------------------
_CATEGORY = {
    KIND_PACKET: "packet",
    KIND_HOP: "hop",
    KIND_LABEL_OP: "label-op",
    KIND_HW_PHASE: "hw-phase",
    KIND_RTL: "rtl",
}

#: Minimum rendered slice width so zero-duration spans stay visible.
_MIN_DUR_US = 0.001


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_chrome_trace(traces: Iterable[Trace]) -> Dict[str, Any]:
    """Render traces as a Chrome trace-event document (Perfetto JSON).

    One trace becomes one "process" (pid = packet uid) whose slices
    nest by time containment on a single thread: the root packet span
    contains the hop spans, each hop contains its hardware phases, and
    phases contain their RTL sub-spans.  Annotations become instant
    events; software label ops too (they are points in sim time).
    """
    events: List[Dict[str, Any]] = []
    for trace in sorted(traces, key=lambda t: (t.start, t.uid)):
        pid = trace.uid
        label = f"flow {trace.flow_id} packet {trace.uid}"
        if trace.probe:
            label = f"OAM probe {trace.uid} fec {trace.fec}"
        events.append(
            {
                "cat": "__metadata",
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": label},
            }
        )
        for span in trace.all_spans():
            end = span.end if span.end is not None else span.start
            args: Dict[str, Any] = {
                k: v for k, v in sorted(span.attributes.items())
            }
            if span.cycle_start is not None:
                args["cycle_start"] = span.cycle_start
                args["cycle_end"] = span.cycle_end
            base = {
                "cat": _CATEGORY.get(span.kind, span.kind),
                "name": span.name,
                "pid": pid,
                "tid": 0,
                "args": args,
            }
            if span.kind == KIND_LABEL_OP:
                events.append(
                    {**base, "ph": "i", "s": "t", "ts": _us(span.start)}
                )
            else:
                events.append(
                    {
                        **base,
                        "ph": "X",
                        "ts": _us(span.start),
                        "dur": max(_us(end) - _us(span.start), _MIN_DUR_US),
                    }
                )
            for note in span.annotations:
                events.append(
                    {
                        "cat": "annotation",
                        "name": note.label,
                        "ph": "i",
                        "s": "p",
                        "pid": pid,
                        "tid": 0,
                        "ts": _us(note.time),
                        "args": {"detail": note.detail, "span": span.name},
                    }
                )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def export_chrome_trace(
    traces: Iterable[Trace], stream: TextIO
) -> int:
    """Write the Chrome trace-event document, byte-stably.  Returns the
    number of trace events written."""
    doc = to_chrome_trace(traces)
    stream.write(
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
    )
    stream.write("\n")
    return len(doc["traceEvents"])


def spans_to_jsonl(traces: Iterable[Trace], stream: TextIO) -> int:
    """Write one JSON line per span (schema v2).  Returns the number of
    lines written."""
    written = 0
    for trace in sorted(traces, key=lambda t: (t.start, t.uid)):
        for span in trace.all_spans():
            record = span.as_dict()
            record["v"] = JSONL_SCHEMA_VERSION
            record["type"] = "span"
            record["trace_id"] = trace.trace_id
            record["uid"] = trace.uid
            record["flow_id"] = trace.flow_id
            record["fec"] = trace.fec
            stream.write(json.dumps(record, sort_keys=True))
            stream.write("\n")
            written += 1
    return written


def render_summary(recorder: SpanRecorder, slowest: int = 5) -> str:
    """The ``repro spans`` summary table, as a plain string."""
    info = recorder.summary()
    lines = ["span tracing summary", "--------------------"]
    lines.append(
        f"  traces: {info['traces']}  (sampled out: {info['sampled_out']}, "
        f"rate {info['sample_rate']})"
    )
    lines.append(
        f"  delivered: {info['delivered']}  dropped: {info['dropped']}  "
        f"probes: {info['probes']}  fault-annotated: {info['annotated']}"
    )
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in info["spans_by_kind"].items()
    )
    lines.append(f"  spans: {kinds if kinds else '(none)'}")
    if info["fec_latency_quantiles"]:
        lines.append("  FEC latency SLO (seconds):")
        for fec, per_fec in info["fec_latency_quantiles"].items():
            quants = "  ".join(
                f"{name}={value * 1e3:.3f}ms"
                for name, value in sorted(per_fec.items())
            )
            lines.append(f"    {fec:20s} {quants}")
    slow = recorder.slowest(slowest)
    if slow:
        lines.append(f"  slowest {len(slow)} traces:")
        for trace in slow:
            path = " > ".join(trace.path) or "(no hops)"
            lines.append(
                f"    uid={trace.uid:<6d} flow={trace.flow_id:<4d} "
                f"{trace.latency * 1e3:8.3f}ms  {path}"
            )
    return "\n".join(lines)
