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
  (search/modify) nested one level further down.  Telemetry builds what
  is read: a hop, each of its label ops and its phases (which arrive as
  one batch, :meth:`~repro.obs.events.EventLog.emit_phases`) stay one
  record each -- a tuple of the event's fields -- until
  :attr:`Trace.spans` is asked for; the summary, fault annotation and
  hop paths read the records as they are.

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
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
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


# -- records: what a trace holds until somebody reads it ---------------------
# A record is a plain tuple of an event's fields and the span id reserved
# for it: the garbage collector stops tracking a tuple of plain values,
# and a traced run keeps one per hop, label op and phase batch.  Item 0
# tags the layout:
#
#   (_HOP, span_id, start, end, node, labels_in, ttl_in,
#          action, labels_out, next_hop)        end is None while open
#   (_DROP, span_id, start, end, node, labels_in, ttl_in, reason)
#   (_LABEL_OP, span_id, start, end, parent_id, op, label_in, label_out)
#   (_PHASES, first_id, node, anchor, hz, hop_id, phases)
#
# _expanded_spans builds from them exactly the spans the eager fold built.
_HOP, _DROP, _LABEL_OP, _PHASES = "hop", "drop", "label-op", "phases"
_RECORD_KINDS = {_HOP: KIND_HOP, _DROP: KIND_HOP, _LABEL_OP: KIND_LABEL_OP}


class _SpanRef(NamedTuple):
    """A hop as ``Trace.hop_at`` and :class:`_PhaseBatch` see it."""

    span_id: int


def _end_of(item: Any) -> Optional[float]:
    """A span's end, or a record's without building its spans."""
    if type(item) is not tuple:
        return item.end
    if item[0] == _PHASES:
        _, _, _, anchor, hz, _, phases = item
        return anchor + max(p[3] for p in phases) / hz
    return item[3]


class _PhaseBatch:
    """Builds a phase record's spans when its trace is read."""

    __slots__ = ("node", "anchor", "hz", "first_id", "hop", "phases")

    def __init__(self, node, anchor, hz, first_id, hop, phases) -> None:
        self.node, self.anchor, self.hz = node, anchor, hz
        self.first_id, self.hop, self.phases = first_id, hop, phases

    def expand(self, trace: "Trace", out: List[Span]) -> None:
        """The hardware-phase fold: ids in arrival order; an RTL phase
        hangs off the latest enclosing phase, anything without one off
        this node's latest hop, or the root."""
        node, anchor, hz, phase_at = self.node, self.anchor, self.hz, trace.phase_at
        span_id = self.first_id
        fallback = (self.hop or trace.root).span_id
        for phase, parent_phase, cycle_start, cycle_end in self.phases:
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


@dataclass
class Trace:
    """One packet's span tree, keyed by the packet uid."""

    uid: int
    flow_id: int
    fec: str
    root: Span
    #: All non-root spans, in creation order (a property, installed
    #: below the class: reading it builds the spans of the records).
    spans: List[Span] = field(default_factory=list)
    delivered: bool = False
    dropped: bool = False
    probe: bool = False
    #: node -> its latest hop's span id (kept by the recorder as it
    #: appends): where a hardware phase finds its parent without
    #: walking ``spans``
    _hop_ids: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: phase name -> the latest hw-phase span (kept as batches expand,
    #: in arrival order): where an RTL phase finds its parent
    phase_at: Dict[str, Span] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: phases still held in phase records in ``_items``
    _pending = 0
    #: ``_items[:_built]`` are spans; records can only follow
    _built = 0
    #: index in ``_items`` of the hop the next hop or delivery closes
    _open = None
    #: span id -> fault notes of a hop still held as a record
    _notes = None

    @property
    def hop_at(self) -> Dict[str, _SpanRef]:
        """Node -> its latest hop, answering ``.span_id`` (a view of
        the ids the recorder keeps)."""
        return {node: _SpanRef(i) for node, i in self._hop_ids.items()}

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
        ends = [end for end in map(_end_of, self._items) if end is not None]
        return max(ends) if ends else self.root.start

    @property
    def latency(self) -> float:
        return self.end - self.start

    def spans_of_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    @property
    def hop_spans(self) -> List[Span]:
        return [s for s in self.spans if s.kind == KIND_HOP]

    def _hops(self) -> Iterator[Tuple[Any, str, float, Optional[float]]]:
        """(hop, node, start, end) for every hop, record or span,
        without building one."""
        for item in self._items:
            if type(item) is tuple:
                if item[0] == _HOP or item[0] == _DROP:
                    yield item, item[4], item[2], item[3]
            elif item.kind == KIND_HOP:
                yield item, item.attributes["node"], item.start, item.end

    @property
    def path(self) -> List[str]:
        return [node for _, node, _, _ in self._hops()]

    def all_spans(self) -> List[Span]:
        return [self.root, *self.spans]

    def _close_hop(self, time: Optional[float]) -> None:
        """Close the open hop at ``time`` (at its own start when None):
        rewrite its record, or set ``end`` on its span if the trace
        was read since it opened."""
        index = self._open
        if index is None:
            return
        self._open = None
        hop = self._items[index]
        if type(hop) is tuple:
            end = hop[2] if time is None else time
            self._items[index] = hop[:3] + (end,) + hop[4:]
        elif hop.end is None:
            hop.end = hop.start if time is None else time

    def _note(self, hop: Any, note: SpanAnnotation) -> None:
        """Attach a fault note to a hop span, or hold it for the span a
        hop record becomes."""
        if type(hop) is not tuple:
            hop.annotations.append(note)
            return
        if self._notes is None:
            self._notes = {}
        self._notes.setdefault(hop[1], []).append(note)


def _expanded_spans(trace: Trace) -> List[Span]:
    """``Trace.spans``: the span list, records built into the spans the
    per-event fold built, in place (same list object, so
    ``trace.spans.append`` still works)."""
    items = trace._items
    first = trace._built
    if first == len(items):
        return items
    root_id = trace.root.span_id
    notes = trace._notes or {}
    open_at = trace._open
    out: List[Span] = []
    for index in range(first, len(items)):
        item = items[index]
        if type(item) is not tuple:
            out.append(item)
            continue
        if item[0] == _PHASES:
            _, first_id, node, anchor, hz, hop_id, phases = item
            hop = None if hop_id is None else _SpanRef(hop_id)
            _PhaseBatch(node, anchor, hz, first_id, hop, phases).expand(trace, out)
            continue
        tag, span_id, start, end = item[:4]
        if index == open_at:
            trace._open = first + len(out)
        if tag == _LABEL_OP:
            _, _, _, _, parent_id, op, label_in, label_out = item
            out.append(Span(
                span_id, parent_id, f"{op} {label_in}->{label_out}",
                KIND_LABEL_OP, start, end, CLOCK_SIM, None, None,
                {"op": op, "label_in": label_in, "label_out": label_out},
            ))
            continue
        node, labels_in, ttl_in = item[4:7]
        attributes = {
            "node": node, "labels_in": list(labels_in), "ttl_in": ttl_in,
        }
        if tag == _HOP:
            attributes["action"] = item[7]
            attributes["labels_out"] = list(item[8])
            attributes["next_hop"] = item[9]
        else:
            attributes["action"] = "discard"
            attributes["reason"] = item[7]
        out.append(Span(
            span_id, root_id, f"hop {node}", KIND_HOP, start, end,
            CLOCK_SIM, None, None, attributes, notes.pop(span_id, []),
        ))
    items[first:] = out
    trace._built = len(items)
    trace._pending = 0
    trace._notes = None
    return items


def _set_spans(trace: Trace, spans: List[Any]) -> None:
    """A new span list (the constructor's): scanned whole on first read,
    and no hop of it is open."""
    trace._items, trace._built, trace._open = spans, 0, None


Trace.spans = property(_expanded_spans, _set_spans)  # type: ignore[assignment]


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
        self._traces: Dict[int, Trace] = {}
        self._decisions: Dict[int, bool] = {}
        self._pending_ops: Dict[str, List[LabelOpApplied]] = {}
        self.fault_windows: List[FaultWindow] = []
        self._latencies: Dict[str, List[float]] = {}
        self.quantiles: Dict[str, Dict[str, float]] = {}
        self.sampled_out = 0
        self._next_span_id = 1
        self._finalized = False
        self._detached = False
        self._was_enabled = self.telemetry.enabled
        self.telemetry.enable()
        self.telemetry.spans = self
        self.telemetry.events.add_sink(self)

    # -- sampling ----------------------------------------------------------
    def wants(self, flow_id: int, uid: int) -> bool:
        """The head-based keep/drop decision for one packet (cached)."""
        decision = self._decisions.get(uid)
        if decision is None:
            rate = self.flow_rates.get(flow_id, self.sample_rate)
            decision = sample_hash(uid) < rate
            self._decisions[uid] = decision
            if not decision:
                self.sampled_out += 1
        return decision

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
    def _span(self, **kwargs: Any) -> Span:
        span = Span(span_id=self._next_span_id, **kwargs)
        self._next_span_id += 1
        return span

    def _trace_for(
        self, uid: int, flow_id: int, start: float
    ) -> Trace:
        trace = self._traces.get(uid)
        if trace is None:
            root = Span(
                self._next_span_id, None, f"packet {uid}", KIND_PACKET,
                start, None, CLOCK_SIM, None, None,
                {"uid": uid, "flow_id": flow_id},
            )
            self._next_span_id += 1
            trace = self._traces[uid] = Trace(
                uid, flow_id, self.fec_of(flow_id), root
            )
        return trace

    def _on_hop(self, event: Any, dropped: bool) -> None:
        # label-op buffers are keyed by node and must drain whether or
        # not this packet is sampled (the node processes synchronously,
        # so pending ops always belong to the packet just recorded)
        node = event.node
        pending = self._pending_ops.pop(node, None)
        if self.nodes is not None and node not in self.nodes:
            return
        if not self.wants(event.flow_id, event.uid):
            return
        time = event.time if event.time is not None else 0.0
        trace = self._trace_for(event.uid, event.flow_id, time)
        trace._close_hop(time)
        items = trace._items
        hop_id = span_id = self._next_span_id
        if dropped:
            items.append((
                _DROP, hop_id, time, time, node, tuple(event.labels_in),
                event.ttl_in, event.reason,
            ))
            trace.dropped = True
            if trace.root.end is None or trace.root.end < time:
                trace.root.end = time
        else:
            trace._open = len(items)
            items.append((
                _HOP, hop_id, time, None, node, tuple(event.labels_in),
                event.ttl_in, event.action, tuple(event.labels_out),
                event.next_hop,
            ))
        trace._hop_ids[node] = hop_id
        for op in pending or ():
            span_id += 1
            op_time = op.time if op.time is not None else time
            items.append((
                _LABEL_OP, span_id, op_time, op_time, hop_id, op.op,
                op.label_in, op.label_out,
            ))
        self._next_span_id = span_id + 1

    def _on_delivered(self, event: PacketDelivered) -> None:
        if self.nodes is not None and event.node not in self.nodes:
            return
        # the SLO histogram sees every delivery, sampled or not; probe
        # flows (negative ids) are the OAM monitor's business instead
        if event.flow_id >= 0:
            fec = self.fec_of(event.flow_id)
            self._latencies.setdefault(fec, []).append(event.latency)
            tel = self.telemetry
            if tel.enabled:
                tel.fec_latency.labels(fec).observe(event.latency)
        if not self.wants(event.flow_id, event.uid):
            return
        time = event.time if event.time is not None else 0.0
        trace = self._trace_for(event.uid, event.flow_id, time)
        trace.delivered = True
        trace.root.end = time
        trace.root.attributes["latency"] = event.latency
        trace._close_hop(time)

    def _on_hw_op(self, event: HWOpExecuted) -> None:
        self.write_phases(
            event.node, event.uid, event.flow_id,
            event.anchor_time, event.clock_hz,
            [(event.phase, event.parent_phase, event.cycle_start, event.cycle_end)],
        )

    def write_phases(self, node, uid, flow_id, anchor_time, clock_hz, phases):
        """Take one packet-hop's phases as one record: span ids are
        reserved now, the spans are built when the trace is read."""
        if not phases or (self.nodes is not None and node not in self.nodes):
            return
        if not self.wants(flow_id, uid):
            return
        hz = clock_hz if clock_hz > 0 else 1.0
        trace = self._trace_for(uid, flow_id, anchor_time + phases[0][2] / hz)
        trace._items.append((
            _PHASES, self._next_span_id, node, anchor_time, hz,
            trace._hop_ids.get(node), tuple(phases),
        ))
        trace._pending += len(phases)
        self._next_span_id += len(phases)

    def _on_probe(self, event: OAMProbeCompleted) -> None:
        trace = self._traces.get(event.uid)
        if trace is None:
            return
        trace.probe = True
        trace.fec = event.fec
        trace.root.name = f"probe {event.uid}"
        trace.root.attributes.update(
            {"fec": event.fec, "reached": event.reached, "rtt": event.rtt}
        )
        if event.breach:
            trace.root.annotations.append(
                SpanAnnotation(
                    time=event.time if event.time is not None else trace.end,
                    label="slo-breach",
                    detail=f"fec {event.fec} rtt {event.rtt}",
                )
            )

    # -- lifecycle ---------------------------------------------------------
    def finalize(self) -> None:
        """Close open spans, attach fault annotations, publish SLO
        quantile gauges.  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        for trace in self._traces.values():
            trace._close_hop(None)
            if trace.root.end is None:
                trace.root.end = trace.end
            self._annotate_faults(trace)
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

    def _annotate_faults(self, trace: Trace) -> None:
        t0, t1 = trace.start, trace.end
        for window in self.fault_windows:
            if not window.overlaps(t0, t1):
                continue
            at = min(max(window.start, t0), t1)
            detail = window.target
            if window.detail:
                detail += f" ({window.detail})"
            trace.root.annotations.append(
                SpanAnnotation(
                    time=at, label=f"fault:{window.fault}", detail=detail
                )
            )
            for hop, node, start, end in trace._hops():
                if self._target_names(window.target, node):
                    trace._note(hop, SpanAnnotation(
                        time=min(max(window.start, start), end or t1),
                        label=f"fault:{window.fault}",
                        detail=detail,
                    ))

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

    # -- queries -----------------------------------------------------------
    def traces(
        self,
        flow: Optional[int] = None,
        fec: Optional[str] = None,
        include_probes: bool = True,
    ) -> List[Trace]:
        out = [
            t
            for t in self._traces.values()
            if (flow is None or t.flow_id == flow)
            and (fec is None or t.fec == fec)
            and (include_probes or not t.probe)
        ]
        out.sort(key=lambda t: (t.start, t.uid))
        return out

    def trace_of(self, uid: int) -> Trace:
        return self._traces[uid]

    def slowest(self, n: int = 5) -> List[Trace]:
        """The n delivered traces with the largest end-to-end latency."""
        delivered = [t for t in self._traces.values() if t.delivered]
        delivered.sort(key=lambda t: (-t.latency, t.uid))
        return delivered[:n]

    def summary(self) -> Dict[str, Any]:
        traces = list(self._traces.values())  # counts need no order
        kinds: Dict[str, int] = {}
        annotated = 0
        for trace in traces:
            root = trace.root
            kinds[root.kind] = kinds.get(root.kind, 0) + 1
            noted = bool(root.annotations or trace._notes)
            for item in trace._items:
                if type(item) is not tuple:
                    kind = item.kind
                    noted = noted or bool(item.annotations)
                elif item[0] == _PHASES:
                    phases = item[6]
                    hw = [phase[1] for phase in phases].count(None)
                    kinds[KIND_HW_PHASE] = kinds.get(KIND_HW_PHASE, 0) + hw
                    kinds[KIND_RTL] = kinds.get(KIND_RTL, 0) + len(phases) - hw
                    continue
                else:
                    kind = _RECORD_KINDS[item[0]]
                kinds[kind] = kinds.get(kind, 0) + 1
            annotated += noted
        return {
            "sample_rate": self.sample_rate,
            "traces": len(traces),
            "sampled_out": self.sampled_out,
            "delivered": sum(1 for t in traces if t.delivered),
            "dropped": sum(1 for t in traces if t.dropped),
            "probes": sum(1 for t in traces if t.probe),
            "annotated": annotated,
            "spans_by_kind": {k: n for k, n in sorted(kinds.items()) if n},
            "fec_latency_quantiles": {
                fec: dict(per_fec)
                for fec, per_fec in sorted(self.quantiles.items())
            },
        }


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
