"""Differential tests for the hop record (a traced hop is one record).

The recorder keeps a hop, a label op and a hop's hardware phases as
plain tuples and builds :class:`~repro.obs.spans.Span` objects only
when a trace is read.  The oracle below is the recorder that built a
``Span`` + attributes dict + label lists + annotations list per hop at
arrival: its ``_PhaseBatch``, ``Trace``, ``_expanded_spans`` and
``SpanRecorder``, kept verbatim; it exists only here.  Both recorders
are fed the same stream on two telemetry instances -- forwarded,
dropped and delivered events in any order per uid, label ops, phase
batches, lone ``HWOpExecuted`` events, faults and heals, OAM probe
completions, reads in the middle of the run, and ``finalize()`` with
more events after it -- and everything a reader can see must be equal:
every span's ``as_dict()``, every trace's flags, times and path,
``summary()`` before and after the records are built, ``slowest()``,
``render_summary``, and the Perfetto and JSONL bytes.  Two seeded
mutants show the suite is not vacuous.
"""

import gc
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.obs import spans as spans_mod
from repro.obs.events import (
    CLOCK_CYCLES,
    Event,
    FaultHealed,
    FaultInjected,
    HWOpExecuted,
    LabelOpApplied,
    OAMProbeCompleted,
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
)
from repro.obs.spans import (
    KIND_HOP,
    KIND_HW_PHASE,
    KIND_LABEL_OP,
    KIND_PACKET,
    KIND_RTL,
    SLO_QUANTILES,
    FaultWindow,
    Span,
    SpanAnnotation,
    export_chrome_trace,
    quantile,
    render_summary,
    sample_hash,
    spans_to_jsonl,
)
from repro.obs.telemetry import Telemetry, get_telemetry


# -- the oracle: the recorder before hops became records, verbatim ------------
class _PhaseBatch:
    """One packet-hop's hardware phases, held in a trace's span list in
    place of the spans they become when :attr:`Trace.spans` is read.
    ``hop`` is the node's latest hop span *when the batch arrived*."""

    __slots__ = ("node", "anchor", "hz", "first_id", "hop", "phases")
    #: read like a span by the scans that must not expand it: no kind,
    #: no annotations, and the latest end of its phases
    kind = None
    annotations = ()

    def __init__(self, node, anchor, hz, first_id, hop, phases) -> None:
        self.node, self.anchor, self.hz = node, anchor, hz
        self.first_id, self.hop, self.phases = first_id, hop, phases

    @property
    def end(self) -> float:
        return self.anchor + max(p[3] for p in self.phases) / self.hz

    def kinds(self) -> List[str]:
        return [KIND_HW_PHASE if p[1] is None else KIND_RTL for p in self.phases]

    def expand(self, trace: "Trace", out: List[Span]) -> None:
        """The hardware-phase fold: ids in arrival order; an RTL phase
        hangs off the latest enclosing phase, anything without one off
        this node's latest hop, or the root."""
        node, anchor, hz, phase_at = self.node, self.anchor, self.hz, trace.phase_at
        span_id = self.first_id
        fallback = (self.hop or trace.root).span_id
        for (phase, parent_phase, cycle_start, cycle_end), kind in zip(
            self.phases, self.kinds()
        ):
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
    #: below the class: reading it expands pending phase batches).
    spans: List[Span] = field(default_factory=list)
    delivered: bool = False
    dropped: bool = False
    probe: bool = False
    #: node -> its latest hop span (kept by the recorder as it
    #: appends), and phase name -> the latest hw-phase span (kept as
    #: batches expand, in arrival order): where a hardware phase finds
    #: its parent without walking ``spans``
    hop_at: Dict[str, Span] = field(
        default_factory=dict, repr=False, compare=False
    )
    phase_at: Dict[str, Span] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: phases still held as :class:`_PhaseBatch` records in ``_items``
    _pending = 0

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
        ends = [s.end for s in self._items if s.end is not None]
        return max(ends) if ends else self.root.start

    @property
    def latency(self) -> float:
        return self.end - self.start

    def spans_of_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    @property
    def hop_spans(self) -> List[Span]:
        return [s for s in self._items if s.kind == KIND_HOP]

    @property
    def path(self) -> List[str]:
        return [s.attributes["node"] for s in self.hop_spans]

    def all_spans(self) -> List[Span]:
        return [self.root, *self.spans]


def _expanded_spans(trace: Trace) -> List[Span]:
    """``Trace.spans``: the span list, pending batches expanded in
    place (same list object, so ``trace.spans.append`` still works)."""
    items = trace._items
    if trace._pending:
        out: List[Span] = []
        for item in items:
            if item.kind is None:
                item.expand(trace, out)
            else:
                out.append(item)
        items[:] = out
        trace._pending = 0
    return items


Trace.spans = property(  # type: ignore[assignment]
    _expanded_spans, lambda trace, spans: setattr(trace, "_items", spans)
)


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
        self._open_hop: Dict[int, Span] = {}
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
        # hardware phases are most of a traced hardware run's events
        if isinstance(event, HWOpExecuted):
            self._on_hw_op(event)
        elif isinstance(event, PacketForwarded):
            self._on_hop(event, dropped=False)
        elif isinstance(event, PacketDropped):
            self._on_hop(event, dropped=True)
        elif isinstance(event, PacketDelivered):
            self._on_delivered(event)
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
            root = self._span(
                parent_id=None,
                name=f"packet {uid}",
                kind=KIND_PACKET,
                start=start,
                attributes={"uid": uid, "flow_id": flow_id},
            )
            trace = Trace(
                uid=uid,
                flow_id=flow_id,
                fec=self.fec_of(flow_id),
                root=root,
            )
            self._traces[uid] = trace
        return trace

    def _on_hop(self, event: Any, dropped: bool) -> None:
        # label-op buffers are keyed by node and must drain whether or
        # not this packet is sampled (the node processes synchronously,
        # so pending ops always belong to the packet just recorded)
        pending = self._pending_ops.pop(event.node, None)
        if self.nodes is not None and event.node not in self.nodes:
            return
        if not self.wants(event.flow_id, event.uid):
            return
        time = event.time if event.time is not None else 0.0
        trace = self._trace_for(event.uid, event.flow_id, time)
        previous = self._open_hop.get(event.uid)
        if previous is not None and previous.end is None:
            previous.end = time
        attributes: Dict[str, Any] = {
            "node": event.node,
            "labels_in": list(event.labels_in),
            "ttl_in": event.ttl_in,
        }
        if dropped:
            attributes["action"] = "discard"
            attributes["reason"] = event.reason
        else:
            attributes["action"] = event.action
            attributes["labels_out"] = list(event.labels_out)
            attributes["next_hop"] = event.next_hop
        hop = self._span(
            parent_id=trace.root.span_id,
            name=f"hop {event.node}",
            kind=KIND_HOP,
            start=time,
            attributes=attributes,
        )
        trace._items.append(hop)
        trace.hop_at[event.node] = hop
        if dropped:
            hop.end = time
            trace.dropped = True
            if trace.root.end is None or trace.root.end < time:
                trace.root.end = time
            self._open_hop.pop(event.uid, None)
        else:
            self._open_hop[event.uid] = hop
        for op in pending or ():
            op_time = op.time if op.time is not None else time
            trace._items.append(
                self._span(
                    parent_id=hop.span_id,
                    name=f"{op.op} {op.label_in}->{op.label_out}",
                    kind=KIND_LABEL_OP,
                    start=op_time,
                    end=op_time,
                    attributes={
                        "op": op.op,
                        "label_in": op.label_in,
                        "label_out": op.label_out,
                    },
                )
            )

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
        hop = self._open_hop.pop(event.uid, None)
        if hop is not None and hop.end is None:
            hop.end = time

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
        trace._items.append(
            _PhaseBatch(
                node, anchor_time, hz, self._next_span_id,
                trace.hop_at.get(node), phases,
            )
        )
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
        for hop in self._open_hop.values():
            if hop.end is None:
                hop.end = hop.start
        self._open_hop.clear()
        for trace in self._traces.values():
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
            for hop in trace.hop_spans:
                if self._target_names(window.target, hop.attributes["node"]):
                    hop.annotations.append(
                        SpanAnnotation(
                            time=min(max(window.start, hop.start), hop.end or t1),
                            label=f"fault:{window.fault}",
                            detail=detail,
                        )
                    )

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
        traces = self.traces()
        kinds: Dict[str, int] = {}
        annotated = 0
        for trace in traces:
            items = [trace.root, *trace._items]
            for item in items:
                for kind in item.kinds() if item.kind is None else (item.kind,):
                    kinds[kind] = kinds.get(kind, 0) + 1
            if any(item.annotations for item in items):
                annotated += 1
        return {
            "sample_rate": self.sample_rate,
            "traces": len(traces),
            "sampled_out": self.sampled_out,
            "delivered": sum(1 for t in traces if t.delivered),
            "dropped": sum(1 for t in traces if t.dropped),
            "probes": sum(1 for t in traces if t.probe),
            "annotated": annotated,
            "spans_by_kind": dict(sorted(kinds.items())),
            "fec_latency_quantiles": {
                fec: dict(per_fec)
                for fec, per_fec in sorted(self.quantiles.items())
            },
        }


# -- a stream is data, so it can be fed twice ---------------------------------
NODES = ("n0", "n1", "n2", "x9")  # x9 is outside the ``nodes`` filter
UIDS = (1, 2, 3, 4, 8)  # sample_hash keeps 2 and 4 at rate 0.5
#: a node, a link between filtered nodes, one reaching outside the filter
TARGETS = ("n1", "n0-n1", "n2-x9")
PHASES = (
    ("stack-load", None),
    ("update", None),
    ("stack-drain", None),
    ("search", "update"),
    ("modify", "update"),
    ("modify", "scrub"),
)


def _flow(uid):
    # uid 8 rides an OAM probe flow (negative: kept out of the SLO)
    return -1000 if uid == 8 else uid % 3


_uid, _node = st.sampled_from(UIDS), st.sampled_from(NODES)
_phase = st.tuples(
    st.sampled_from(PHASES), st.integers(0, 40), st.integers(0, 12)
)
#: forwarded twice as often as the others, as in a run; the last item:
#: stamped with the stream position, or left unset (read as 0.0)
_hop = st.tuples(
    st.sampled_from(["forwarded", "forwarded", "dropped", "delivered"]),
    _uid, _node, st.booleans(),
)
_steps = st.one_of(
    _hop,
    st.tuples(st.just("label-op"), _node),
    st.tuples(
        st.just("batch"), _uid, _node, st.lists(_phase, min_size=1, max_size=4),
        st.sampled_from([50e6, 0.0]),
    ),
    st.tuples(st.just("single"), _uid, _node, _phase),
    st.tuples(st.sampled_from(["fault", "heal"]), st.sampled_from(TARGETS)),
    st.tuples(st.just("probe"), _uid, st.booleans()),
    # somebody builds one trace's spans in the middle of the run ...
    st.tuples(st.just("read"), _uid),
    # ... or reads what needs no building
    st.tuples(st.just("peek")),
    st.tuples(st.just("finalize")),
)


def _phases(raw):
    return [
        (phase, parent, start, start + cycles)
        for (phase, parent), start, cycles in raw
    ]


def _event(index, step):
    """The event an emitting step emits, built afresh for each fold."""
    what = step[0]
    time = index * 1e-3
    if what in ("forwarded", "dropped", "delivered"):
        _, uid, node, timed = step
        flow_id = _flow(uid)
        if what == "forwarded":
            event = PacketForwarded(
                node=node, uid=uid, flow_id=flow_id, action="forward-mpls",
                labels_in=(16, 3), labels_out=(17,), ttl_in=64,
                next_hop="n1",
            )
        elif what == "dropped":
            event = PacketDropped(
                node=node, uid=uid, flow_id=flow_id, reason=f"{node}: no ILM",
                labels_in=(16,), ttl_in=1,
            )
        else:
            event = PacketDelivered(
                node=node, uid=uid, flow_id=flow_id, latency=time
            )
        event.time = time if timed else None
        return event
    if what == "label-op":
        event = LabelOpApplied(node=step[1], op="swap", label_in=16, label_out=17)
    elif what == "single":
        _, uid, node, ((phase, parent), start, cycles) = step
        event = HWOpExecuted(
            node, uid, _flow(uid), phase, parent, start, start + cycles,
            time, 50e6,
        )
        event.time = float(start)
        return event
    elif what == "fault":
        event = FaultInjected(fault="link-down", target=step[1], detail="cut")
    elif what == "heal":
        event = FaultHealed(fault="link-down", target=step[1], downtime=1e-3)
    else:
        _, uid, breach = step
        event = OAMProbeCompleted(
            fec="10.0.0.0/8", ingress="n0", uid=uid, reached=not breach,
            rtt=None if breach else time, breach=breach,
        )
    event.time = time
    return event


def _trace_view(trace):
    """A trace as the scans that build nothing see it."""
    return (trace.uid, trace.delivered, trace.dropped, trace.probe,
            trace.fec, trace.start, trace.end, trace.latency, trace.path)


def _feed(tel, recorder, index, step, log):
    what = step[0]
    if what == "batch":
        _, uid, node, raw, hz = step
        tel.events.emit_phases(node, uid, _flow(uid), index * 1e-3, hz,
                               _phases(raw))
    elif what == "read":
        trace = recorder._traces.get(step[1])
        if trace is not None:
            log.append([s.as_dict() for s in trace.all_spans()])
    elif what == "peek":
        log.append((recorder.summary(),
                    [_trace_view(t) for t in recorder.traces()]))
    elif what == "finalize":
        recorder.finalize()
    else:
        tel.events.emit(_event(index, step))


def _fold(recorder_cls, steps, sample_rate, filtered):
    """Everything a reader of the run can see."""
    tel = Telemetry(enabled=True)
    recorder = recorder_cls(
        sample_rate=sample_rate,
        flow_rates={2: 1.0},
        flow_fecs={0: "10.0.0.0/8"},
        nodes=NODES[:3] if filtered else None,
        telemetry=tel,
    )
    log: List[Any] = []
    for index, step in enumerate(steps):
        _feed(tel, recorder, index, step, log)
    recorder.finalize()
    recorder.detach()
    traces = recorder.traces()
    seen = {
        "mid-run": log,
        "summary": recorder.summary(),
        "views": [_trace_view(t) for t in traces],
        "slowest": [(t.uid, t.latency) for t in recorder.slowest(3)],
        "render": render_summary(recorder, slowest=3),
        "sampled_out": recorder.sampled_out,
        "quantiles": recorder.quantiles,
    }
    perfetto, jsonl = io.StringIO(), io.StringIO()
    export_chrome_trace(traces, perfetto)
    spans_to_jsonl(traces, jsonl)
    seen.update({
        "perfetto": perfetto.getvalue(),
        "jsonl": jsonl.getvalue(),
        "spans": [[s.as_dict() for s in t.all_spans()] for t in traces],
        "summary again": recorder.summary(),
        "views again": [_trace_view(t) for t in traces],
    })
    return seen


def _check(steps, sample_rate, filtered):
    got = _fold(spans_mod.SpanRecorder, steps, sample_rate, filtered)
    want = _fold(SpanRecorder, steps, sample_rate, filtered)
    for key in want:
        assert got[key] == want[key], key
    assert got["summary"] == got["summary again"]
    assert got["views"] == got["views again"]


_streams = (
    st.lists(_steps, min_size=4, max_size=60),
    st.sampled_from([1.0, 0.5, 0.0]),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(*_streams)
def test_records_build_what_the_eager_fold_built(steps, sample_rate, filtered):
    _check(steps, sample_rate, filtered)


#: a hop closed by the next hop, by a delivery after a read, and at its
#: start by ``finalize()``; a drop; label ops under a hop; a fault noted
#: on hops still held as records and on hops built by a read; a probe
#: breach; and events after ``finalize()`` -- ends and notes spelled out
#: below
HAND_BUILT = [
    ("forwarded", 1, "n0", True),                       # 0: hop 2 (root 1)
    ("batch", 1, "n0", [(("update", None), 0, 5)], 50e6),
    ("label-op", "n1"),
    ("forwarded", 1, "n1", True),                       # 3: closes hop 2
    ("read", 1),                                        # hop at n1 is a span
    ("delivered", 1, "n2", True),                       # 5: closes it
    ("forwarded", 2, "n0", True),                       # 6
    ("fault", "n0-n1"),                                 # 7
    ("forwarded", 2, "n1", True),                       # 8
    ("read", 2),
    ("forwarded", 4, "n0", True),                       # 10: stays a record
    ("dropped", 5, "n1", True),                         # 11
    ("probe", 8, True),
    ("forwarded", 8, "n1", True),                       # 13
    ("probe", 8, True),
    ("peek",),
    ("finalize",),                                      # closes 2, 4, 8
    ("forwarded", 7, "n0", True),                       # 17: after finalize
    ("heal", "n0-n1"),
]


def test_the_cases_a_record_must_get_right():
    _check(HAND_BUILT, 1.0, True)
    got = _fold(spans_mod.SpanRecorder, HAND_BUILT, 1.0, True)
    spans = {s[0]["attributes"]["uid"]: s for s in got["spans"]}
    hops = {
        uid: [(s["attributes"]["node"], s["start"], s["end"],
               [n["time"] for n in s["annotations"]])
              for s in trace if s["kind"] == KIND_HOP]
        for uid, trace in spans.items()
    }
    assert hops[1] == [("n0", 0.0, 0.003, []), ("n1", 0.003, 0.005, [])]
    assert hops[2] == [("n0", 0.006, 0.008, [0.007]),
                       ("n1", 0.008, 0.008, [0.008])]
    assert hops[4] == [("n0", 0.01, 0.01, [0.01])]  # noted as a record
    assert hops[5] == [("n1", 0.011, 0.011, [0.011])]
    assert hops[7] == [("n0", 0.017, None, [])]  # opened after finalize
    assert [s["kind"] for s in spans[1]] == [
        KIND_PACKET, KIND_HOP, KIND_HW_PHASE, KIND_HOP, KIND_LABEL_OP,
    ]
    assert got["summary"]["annotated"] == 4  # 2, 4, 5 and the probe 8
    assert got["summary"]["spans_by_kind"] == {
        "hop": 8, "hw-phase": 1, "label-op": 1, "packet": 6,
    }


# -- the suite notices a wrong record -----------------------------------------
def _closed_by_the_next_record(monkeypatch):
    """Mutant: a hop that is a span already (its trace was read) is not
    closed at the parent's moment; the next hop built after it closes
    it instead."""
    close = spans_mod.Trace._close_hop

    def mutant_close(trace, time):
        if trace._open is not None and isinstance(
            trace._items[trace._open], Span
        ):
            trace._open = None
            return
        close(trace, time)

    build = spans_mod._expanded_spans

    def mutant_build(trace):
        items = build(trace)
        hops = [s for s in items if s.kind == KIND_HOP]
        for hop, after in zip(hops, hops[1:]):
            if hop.end is None:
                hop.end = after.start
        return items

    monkeypatch.setattr(spans_mod.Trace, "_close_hop", mutant_close)
    monkeypatch.setattr(
        spans_mod.Trace, "spans", property(mutant_build, spans_mod._set_spans)
    )


def _note_lost_when_built(monkeypatch):
    """Mutant: the fault notes of hops held as records are dropped when
    the records become spans."""
    build = spans_mod._expanded_spans

    def mutant_build(trace):
        trace._notes = None
        return build(trace)

    monkeypatch.setattr(
        spans_mod.Trace, "spans", property(mutant_build, spans_mod._set_spans)
    )


@pytest.mark.parametrize(
    "mutate", [_closed_by_the_next_record, _note_lost_when_built]
)
def test_the_suite_catches_a_seeded_mutant(mutate, monkeypatch):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        _check(HAND_BUILT, 1.0, True)
    # finding one failing example is the point: no shrinking after it
    generated = settings(
        max_examples=300, deadline=None, database=None, derandomize=True,
        phases=(Phase.explicit, Phase.generate),
    )(given(*_streams)(_check))
    with pytest.raises(AssertionError):
        generated()


# -- what a run keeps ---------------------------------------------------------
def test_a_traced_run_keeps_every_hop_as_a_record_until_read():
    from repro.faults import Scenario, run_scenario
    from repro.obs import telemetry_session

    scenario = Scenario.load(
        str(Path(__file__).resolve().parents[2] / "examples" / "chaos_spans.json")
    )
    with telemetry_session():
        report = run_scenario(scenario, seed=7, sample_rate=1.0)
    recorder = report.recorder
    recorder.summary()
    recorder.finalize()
    traces = recorder.traces()
    assert all(t.path for t in traces)
    # the collector stops tracking a tuple once it has seen every item
    # of it untracked: one pass per level (phase, batch, record)
    for _ in range(3):
        gc.collect()
    records = [item for t in traces for item in t._items]
    assert records and all(type(item) is tuple for item in records)
    hops = [r for r in records if r[0] in ("hop", "drop")]
    assert len(hops) == recorder.summary()["spans_by_kind"]["hop"]
    # nothing per hop for the garbage collector to walk
    assert not any(
        isinstance(value, (dict, list)) for hop in hops for value in hop
    )
    assert not any(gc.is_tracked(item) for item in records)
    assert export_chrome_trace(traces, io.StringIO()) > len(hops)
    built = [s for t in traces for s in t._items]
    assert all(isinstance(s, Span) for s in built)
    assert sum(s.kind == KIND_HOP for s in built) == len(hops)
