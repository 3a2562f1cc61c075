"""Differential tests for the span recorder against one reference.

:class:`Reference` is the simplest fold there is: every event becomes
its spans the moment it arrives -- a hop a ``Span`` with its attributes
and label lists, each pending label op a ``Span`` beneath it, each
hardware phase a ``Span`` whose parent is found there and then (an RTL
phase's latest enclosing phase, else the node's latest hop, else the
root).  It takes no batch (``write_phases``), so hardware phases reach
it one ``HWOpExecuted`` at a time; it uses nothing of
:mod:`repro.obs.spans` but the ``Span`` value type and the ``KIND_*``
constants, and it exists only here.

Both recorders are fed the same stream (:mod:`tests.strategies.spans`)
on two telemetry instances -- the recorder's phases through
``emit_phases``, the reference's as single events, the way a producer
without batches emits them -- and everything a reader can see must be
equal: every span's fields mid-run and at the end, every trace's
flags, times and path, ``summary()`` and the trace views before and
after the spans are built, ``slowest()``, ``render_summary``, the SLO
quantiles, the Perfetto bytes, and every event a
``JSONLSink`` / ``KindCountSink`` / ``ListSink`` beside the recorder
saw.  Six seeded
mutants show the suite is not vacuous.
"""

import copy
import gc
import io
import math
import tracemalloc
import weakref
from pathlib import Path
from types import FunctionType, ModuleType
from typing import Any, Dict, List, NamedTuple, Optional

import pytest
from hypothesis import Phase, given, settings

from repro.obs import spans as spans_mod
from repro.obs.events import (
    CLOCK_CYCLES,
    FaultHealed,
    FaultInjected,
    HWOpExecuted,
    JSONLSink,
    KindCountSink,
    LabelOpApplied,
    ListSink,
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
    Span,
    SpanRecorder,
    export_chrome_trace,
    render_summary,
)
from repro.obs.telemetry import Telemetry, telemetry_session
from tests.strategies.spans import (
    FILTER,
    event_of,
    flow_of,
    phase_events,
    phases_of,
    streams,
)


# -- the reference: the per-event eager fold -------------------------------------
class Note(NamedTuple):
    time: float
    label: str
    detail: str


class Window:
    """The [injected, healed] interval of one fault."""

    def __init__(self, start: float, fault: str, target: str, detail: str) -> None:
        self.start, self.fault, self.target, self.detail = start, fault, target, detail
        self.end: Optional[float] = None


class Trace:
    def __init__(self, uid: int, flow_id: int, fec: str, root: Span) -> None:
        self.uid, self.flow_id, self.fec, self.root = uid, flow_id, fec, root
        self.spans: List[Span] = []
        self.delivered = self.dropped = self.probe = False
        #: node -> its latest hop; phase name -> the latest hw-phase
        self.hop_at: Dict[str, Span] = {}
        self.phase_at: Dict[str, Span] = {}

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

    @property
    def hops(self) -> List[Span]:
        return [s for s in self.spans if s.kind == KIND_HOP]

    @property
    def path(self) -> List[str]:
        return [s.attributes["node"] for s in self.hops]

    def all_spans(self) -> List[Span]:
        return [self.root, *self.spans]


class Reference:
    """Folds each event into spans as it arrives."""

    def __init__(self, sample_rate, flow_fecs, nodes, telemetry) -> None:
        self.sample_rate = sample_rate
        self.flow_fecs = flow_fecs
        self.nodes = frozenset(nodes) if nodes is not None else None
        self.telemetry = telemetry
        self._traces: Dict[int, Trace] = {}
        self._open_hop: Dict[int, Span] = {}
        self._decisions: Dict[int, bool] = {}
        self._pending_ops: Dict[str, List[LabelOpApplied]] = {}
        self.windows: List[Window] = []
        self._latencies: Dict[str, List[float]] = {}
        self.quantiles: Dict[str, Dict[str, float]] = {}
        self.sampled_out = 0
        self._next_id = 1
        self._finalized = False
        self._was_enabled = telemetry.enabled
        telemetry.enable()
        telemetry.spans = self
        telemetry.events.add_sink(self)

    def wants(self, flow_id: int, uid: int) -> bool:
        decision = self._decisions.get(uid)
        if decision is None:
            rate = self.sample_rate
            decision = ((uid * 0x9E3779B1) & 0xFFFFFFFF) / 2**32 < rate
            self._decisions[uid] = decision
            self.sampled_out += not decision
        return decision

    def fec_of(self, flow_id: int) -> str:
        return self.flow_fecs.get(flow_id, f"flow-{flow_id}")

    def _new(self, *args, **kwargs) -> Span:
        span = Span(self._next_id, *args, **kwargs)
        self._next_id += 1
        return span

    def _skips(self, node: str) -> bool:
        return self.nodes is not None and node not in self.nodes

    def _trace(self, uid: int, flow_id: int, start: float) -> Trace:
        if uid not in self._traces:
            root = self._new(None, f"packet {uid}", KIND_PACKET, start,
                             attributes={"uid": uid, "flow_id": flow_id})
            self._traces[uid] = Trace(uid, flow_id, self.fec_of(flow_id), root)
        return self._traces[uid]

    def write(self, event) -> None:
        if isinstance(event, (PacketForwarded, PacketDropped)):
            self._hop(event, isinstance(event, PacketDropped))
        elif isinstance(event, PacketDelivered):
            self._delivered(event)
        elif isinstance(event, HWOpExecuted):
            self._phase(event)
        elif isinstance(event, LabelOpApplied):
            self._pending_ops.setdefault(event.node, []).append(event)
        elif isinstance(event, FaultInjected):
            start = event.time if event.time is not None else 0.0
            self.windows.append(Window(start, event.fault, event.target, event.detail))
        elif isinstance(event, FaultHealed):
            for window in reversed(self.windows):
                if window.end is None and (window.fault, window.target) == (
                    event.fault, event.target
                ):
                    window.end = event.time
                    break
        elif isinstance(event, OAMProbeCompleted):
            self._probe(event)

    def _hop(self, event, dropped: bool) -> None:
        # the ops pending at a node belong to its next hop, sampled or not
        pending = self._pending_ops.pop(event.node, [])
        if self._skips(event.node) or not self.wants(event.flow_id, event.uid):
            return
        time = event.time if event.time is not None else 0.0
        trace = self._trace(event.uid, event.flow_id, time)
        previous = self._open_hop.pop(event.uid, None)
        if previous is not None and previous.end is None:
            previous.end = time
        attributes = {"node": event.node, "labels_in": list(event.labels_in),
                      "ttl_in": event.ttl_in}
        if dropped:
            attributes.update(action="discard", reason=event.reason)
        else:
            attributes.update(action=event.action, labels_out=list(event.labels_out),
                              next_hop=event.next_hop)
        hop = self._new(trace.root.span_id, f"hop {event.node}", KIND_HOP, time,
                        attributes=attributes)
        trace.spans.append(hop)
        trace.hop_at[event.node] = hop
        if dropped:
            hop.end = time
            trace.dropped = True
            if trace.root.end is None or trace.root.end < time:
                trace.root.end = time
        else:
            self._open_hop[event.uid] = hop
        for op in pending:
            at = op.time if op.time is not None else time
            trace.spans.append(self._new(
                hop.span_id, f"{op.op} {op.label_in}->{op.label_out}",
                KIND_LABEL_OP, at, at,
                attributes={"op": op.op, "label_in": op.label_in,
                            "label_out": op.label_out},
            ))

    def _delivered(self, event: PacketDelivered) -> None:
        if self._skips(event.node):
            return
        # every delivery counts toward the SLO, sampled or not; probe
        # flows (negative ids) do not
        if event.flow_id >= 0:
            self._latencies.setdefault(self.fec_of(event.flow_id), []).append(
                event.latency
            )
        if not self.wants(event.flow_id, event.uid):
            return
        time = event.time if event.time is not None else 0.0
        trace = self._trace(event.uid, event.flow_id, time)
        trace.delivered = True
        trace.root.end = time
        trace.root.attributes["latency"] = event.latency
        hop = self._open_hop.pop(event.uid, None)
        if hop is not None and hop.end is None:
            hop.end = time

    def _phase(self, event: HWOpExecuted) -> None:
        if self._skips(event.node) or not self.wants(event.flow_id, event.uid):
            return
        hz = event.clock_hz if event.clock_hz > 0 else 1.0
        start = event.anchor_time + event.cycle_start / hz
        trace = self._trace(event.uid, event.flow_id, start)
        nested = event.parent_phase is not None
        parent = trace.phase_at.get(event.parent_phase) if nested else None
        if parent is None:
            parent = trace.hop_at.get(event.node, trace.root)
        span = self._new(
            parent.span_id, event.phase, KIND_RTL if nested else KIND_HW_PHASE,
            start, event.anchor_time + event.cycle_end / hz, CLOCK_CYCLES,
            event.cycle_start, event.cycle_end,
            {"node": event.node, "cycles": event.cycle_end - event.cycle_start},
        )
        if not nested:
            trace.phase_at[event.phase] = span
        trace.spans.append(span)

    def _probe(self, event: OAMProbeCompleted) -> None:
        trace = self._traces.get(event.uid)
        if trace is None:
            return
        trace.probe, trace.fec = True, event.fec
        trace.root.name = f"probe {event.uid}"
        trace.root.attributes.update(fec=event.fec, reached=event.reached, rtt=event.rtt)
        if event.breach:
            trace.root.annotations.append(Note(
                event.time if event.time is not None else trace.end,
                "slo-breach", f"fec {event.fec} rtt {event.rtt}",
            ))

    def finalize(self) -> None:
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
            self._annotate(trace)
        for fec in sorted(self._latencies):
            values = sorted(self._latencies[fec])
            self.quantiles[fec] = {
                name: values[max(1, min(len(values), math.ceil(q * len(values)))) - 1]
                for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))
            }

    def _annotate(self, trace: Trace) -> None:
        t0, t1 = trace.start, trace.end
        for window in self.windows:
            if window.start > t1 or (window.end is not None and window.end < t0):
                continue
            label = f"fault:{window.fault}"
            detail = window.target + (f" ({window.detail})" if window.detail else "")
            trace.root.annotations.append(Note(min(max(window.start, t0), t1),
                                               label, detail))
            for hop in trace.hops:
                if self._names(window.target, hop.attributes["node"]):
                    at = min(max(window.start, hop.start), hop.end or t1)
                    hop.annotations.append(Note(at, label, detail))

    def _names(self, target: str, node: str) -> bool:
        """A fault target is a node, or ``a-b`` for a link between two
        nodes (known ones, when the recorder filters)."""
        known, n = self.nodes, len(node)
        return target == node or (
            target.startswith(node + "-") and (known is None or target[n + 1:] in known)
        ) or (
            target.endswith("-" + node) and (known is None or target[: -n - 1] in known)
        )

    def detach(self) -> None:
        self.telemetry.events.remove_sink(self)
        if self.telemetry.spans is self:
            self.telemetry.spans = None
        if not self._was_enabled:
            self.telemetry.disable()

    def traces(self) -> List[Trace]:
        return sorted(self._traces.values(), key=lambda t: (t.start, t.uid))

    def slowest(self, n: int = 5) -> List[Trace]:
        delivered = [t for t in self._traces.values() if t.delivered]
        return sorted(delivered, key=lambda t: (-t.latency, t.uid))[:n]

    def summary(self) -> Dict[str, Any]:
        traces = self.traces()
        kinds: Dict[str, int] = {}
        for trace in traces:
            for span in trace.all_spans():
                kinds[span.kind] = kinds.get(span.kind, 0) + 1
        return {
            "sample_rate": self.sample_rate,
            "traces": len(traces),
            "sampled_out": self.sampled_out,
            "delivered": sum(t.delivered for t in traces),
            "dropped": sum(t.dropped for t in traces),
            "probes": sum(t.probe for t in traces),
            "annotated": sum(
                any(s.annotations for s in t.all_spans()) for t in traces
            ),
            "spans_by_kind": dict(sorted(kinds.items())),
            "fec_latency_quantiles": {
                fec: dict(q) for fec, q in sorted(self.quantiles.items())
            },
        }


# -- the harness -------------------------------------------------------------------
def _fields(span):
    """Everything a reader sees of one span."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "start": span.start,
        "end": span.end,
        "clock_domain": span.clock_domain,
        "cycle_start": span.cycle_start,
        "cycle_end": span.cycle_end,
        "attributes": dict(span.attributes),
        "annotations": [
            {"time": a.time, "label": a.label, "detail": a.detail}
            for a in span.annotations
        ],
    }


def _view(trace):
    """A trace as the scans that build nothing see it."""
    return (trace.uid, trace.delivered, trace.dropped, trace.probe,
            trace.fec, trace.start, trace.end, trace.latency, trace.path)


def _feed(tel, recorder, index, step, per_event, log):
    what = step[0]
    if what == "batch":
        _, uid, node, raw, hz = step
        batch = (node, uid, flow_of(uid), index * 1e-3, hz, phases_of(raw))
        if per_event:
            for event in phase_events(*batch):
                tel.events.emit(event)
        else:
            tel.events.emit_phases(*batch)
    elif what == "read":
        for trace in recorder.traces():
            if trace.uid == step[1]:
                log.append([_fields(s) for s in trace.all_spans()])
    elif what == "peek":
        log.append((recorder.summary(), [_view(t) for t in recorder.traces()]))
    elif what == "finalize":
        recorder.finalize()
    else:
        tel.events.emit(event_of(index, step))


def _fold(make, steps, sample_rate, filtered, per_event=False):
    """Everything a reader of the run can see."""
    tel = Telemetry(enabled=True)
    recorder = make(
        sample_rate=sample_rate,
        flow_fecs={0: "10.0.0.0/8"},
        nodes=FILTER if filtered else None,
        telemetry=tel,
    )
    kept, counted, lines = ListSink(), KindCountSink(), io.StringIO()
    for sink in (kept, counted, JSONLSink(lines)):
        tel.events.add_sink(sink)
    log: List[Any] = []
    for index, step in enumerate(steps):
        _feed(tel, recorder, index, step, per_event, log)
    recorder.finalize()
    recorder.detach()
    assert kept.kind_counts() == counted.kind_counts()
    assert tel.events.emitted == len(kept)
    traces = recorder.traces()
    seen = {
        "mid-run": log,
        "summary": recorder.summary(),
        "views": [_view(t) for t in traces],
        "slowest": [(t.uid, t.latency) for t in recorder.slowest(3)],
        "render": render_summary(recorder, slowest=3),
        "sampled_out": recorder.sampled_out,
        "quantiles": recorder.quantiles,
    }
    perfetto = io.StringIO()
    export_chrome_trace(traces, perfetto)
    seen.update({
        "perfetto": perfetto.getvalue(),
        "spans": [[_fields(s) for s in t.all_spans()] for t in traces],
        "summary again": recorder.summary(),
        "views again": [_view(t) for t in traces],
        "event lines": lines.getvalue(),
        "kind counts": counted.kind_counts(),
    })
    return seen


def _check(steps, sample_rate, filtered):
    got = _fold(SpanRecorder, steps, sample_rate, filtered)
    want = _fold(Reference, steps, sample_rate, filtered, per_event=True)
    for key in want:
        assert got[key] == want[key], key
    assert got["summary"] == got["summary again"]
    assert got["views"] == got["views again"]


@settings(max_examples=300, deadline=None)
@given(*streams)
def test_the_recorder_builds_what_the_eager_fold_built(steps, sample_rate, filtered):
    _check(steps, sample_rate, filtered)


# -- the cases, spelled out ----------------------------------------------------------
def _hw(uid, node, phase, parent=None):
    return ("single", uid, node, ((phase, parent), 0, 5), 50e6)


#: a phase before any hop, a revisited node, a parent phase that never
#: ran, and a second ``update`` that must win over the first
PARENT_CASES = [
    _hw(1, "n0", "stack-load"),            # 2: no hop yet -> root (1)
    ("forwarded", 1, "n0", True),          # 3: hop n0
    _hw(1, "n0", "update"),                # 4: -> hop 3
    _hw(1, "n0", "search", "update"),      # 5: -> phase 4
    ("forwarded", 1, "n1", True),          # 6: hop n1
    _hw(1, "n1", "modify", "scrub"),       # 7: no such phase -> hop 6
    _hw(1, "n1", "modify", "update"),      # 8: latest update is n0's (4)
    ("forwarded", 1, "n0", True),          # 9: n0 again
    _hw(1, "n0", "stack-drain"),           # 10: -> the later hop (9)
    _hw(1, "n0", "update"),                # 11: -> hop 9
    _hw(1, "n1", "modify", "update"),      # 12: -> phase 11, not 4
    _hw(1, "n2", "stack-load"),            # 13: never at n2 -> root
]


def _parents(got):
    [spans] = got["spans"]
    return {s["span_id"]: s["parent_id"] for s in spans[1:]}


def test_the_cases_a_parent_search_must_get_right():
    _check(PARENT_CASES, 1.0, True)
    got = _fold(SpanRecorder, PARENT_CASES, 1.0, True)
    assert got["spans"][0][0]["attributes"]["uid"] == 1
    assert _parents(got) == {2: 1, 3: 1, 4: 3, 5: 4, 6: 1, 7: 6, 8: 4, 9: 1,
                             10: 9, 11: 9, 12: 11, 13: 1}


def _batch(uid, node, *phases, hz=50e6):
    return ("batch", uid, node, [(p, 0, 5) for p in phases], hz)


#: the same as batches, plus a batch whose node is visited *after* it
#: arrived, a read between batches, the RTL driver's two transactions
#: between batches, and a clock that is not one
BATCH_CASES = [
    _batch(1, "n0", ("stack-load", None)),            # 2: no hop yet -> root (1)
    ("forwarded", 1, "n0", True),                     # 3: hop n0
    _batch(1, "n0", ("update", None),                 # 4: -> hop 3
           ("search", "update")),                     # 5: -> phase 4
    ("forwarded", 1, "n1", True),                     # 6: hop n1
    _batch(1, "n1", ("modify", "scrub"),              # 7: no such phase -> hop 6
           ("modify", "update")),                     # 8: latest update is n0's (4)
    ("read", 1),
    ("forwarded", 1, "n0", True),                     # 9: n0 again
    _batch(1, "n0", ("stack-drain", None),            # 10: -> the later hop (9)
           ("update", None), hz=0.0),                 # 11: -> hop 9
    _batch(1, "n1", ("modify", "update")),            # 12: -> phase 11, not 4
    _batch(1, "n2", ("stack-load", None)),            # 13: not at n2 *yet* -> root
    ("batch", 1, "n1", [(("user-push", None), 0, 3),  # 14: -> hop 6
                        (("user-pop", None), 3, 3)],  # 15: -> hop 6
     50e6),
    ("forwarded", 1, "n2", True),                     # 16: hop n2, after 13
    _hw(1, "n2", "update"),                           # 17: -> hop 16
    ("fault", "n1"),
]


def test_the_cases_a_batch_must_get_right():
    _check(BATCH_CASES, 1.0, True)
    got = _fold(SpanRecorder, BATCH_CASES, 1.0, True)
    assert _parents(got) == {2: 1, 3: 1, 4: 3, 5: 4, 6: 1, 7: 6, 8: 4, 9: 1,
                             10: 9, 11: 9, 12: 11, 13: 1, 14: 6, 15: 6, 16: 1,
                             17: 16}
    by_id = {s["span_id"]: s for s in got["spans"][0]}
    assert by_id[10]["end"] == by_id[10]["start"] + 5.0  # hz <= 0 counts as 1
    assert [by_id[i]["name"] for i in (14, 15)] == ["user-push", "user-pop"]
    assert by_id[15]["cycle_start"] == 3 and by_id[15]["cycle_end"] == 6
    assert got["summary"]["spans_by_kind"] == {
        "hop": 4, "hw-phase": 8, "packet": 1, "rtl": 4,
    }
    assert got["summary"]["annotated"] == 1


#: a hop closed by the next hop, by a delivery after a read, and at its
#: start by ``finalize()``; a drop; label ops under a hop; a fault noted
#: on hops still held as records and on hops built by a read; a probe
#: breach; and events after ``finalize()`` -- ends and notes spelled out
#: below
RECORD_CASES = [
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
    _check(RECORD_CASES, 1.0, True)
    got = _fold(SpanRecorder, RECORD_CASES, 1.0, True)
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


# -- the suite notices a wrong recorder ----------------------------------------------
def _hop_at_read_time(monkeypatch):
    """A batch's phases hang off the node's latest hop *when the trace is
    built*, not when they arrived."""
    build = SpanRecorder._build

    def mutant(self, rows):
        traces = build(self, rows)
        for trace in traces:
            latest = {h.attributes["node"]: h.span_id for h in trace.hop_spans}
            phases = {s.span_id for s in trace.spans if s.kind == KIND_HW_PHASE}
            for span in trace.spans:
                if span.clock_domain == CLOCK_CYCLES and span.parent_id not in phases:
                    span.parent_id = latest.get(span.attributes["node"], span.parent_id)
        return traces

    monkeypatch.setattr(SpanRecorder, "_build", mutant)


def _one_id_too_few(monkeypatch):
    """A batch of n phases reserves n - 1 span ids."""
    write_phases = SpanRecorder.write_phases

    def mutant(self, *batch):
        before = self._next_span_id
        write_phases(self, *batch)
        if self._next_span_id > before:
            self._next_span_id -= 1

    monkeypatch.setattr(SpanRecorder, "write_phases", mutant)


def _closed_by_the_next_record(monkeypatch):
    """Closing a hop writes no end; reading derives it from the next hop
    instead, so a hop the delivery closed stays open."""
    def mutant_close(self, row, time):
        self._open.pop(row, None)

    build = SpanRecorder._build

    def mutant_build(self, rows):
        traces = build(self, rows)
        for trace in traces:
            hops = trace.hop_spans
            for hop, after in zip(hops, hops[1:]):
                if hop.end is None:
                    hop.end = after.start
        return traces

    monkeypatch.setattr(SpanRecorder, "_close_hop", mutant_close)
    monkeypatch.setattr(SpanRecorder, "_build", mutant_build)


def _note_lost_when_built(monkeypatch):
    """A hop's fault note is filed under its trace's root."""
    note = SpanRecorder._note

    def mutant(self, row, span_id, *text):
        note(self, row, self._root[row], *text)

    monkeypatch.setattr(SpanRecorder, "_note", mutant)


def _labels_out_from_labels_in(monkeypatch):
    """A forwarded hop records the stack it arrived with as the one it
    left with."""
    on_hop = SpanRecorder._on_hop

    def mutant(self, event, dropped):
        if not dropped:
            event = copy.copy(event)
            event.labels_out = event.labels_in
        on_hop(self, event, dropped)

    monkeypatch.setattr(SpanRecorder, "_on_hop", mutant)


def _unknown_parent_off_the_root(monkeypatch):
    """An RTL phase whose parent phase never ran hangs off the root
    instead of the node's latest hop."""
    expand = spans_mod._expand

    def mutant(record, ids, hop_at, phase_at, root_id, out):
        row, first_id, node, shape, anchor, hz = record
        for offset, phase in enumerate(ids[shape]):
            known = phase[1] is None or phase[1] in phase_at
            expand(
                (row, first_id + offset, node, len(ids), anchor, hz),
                [*ids, (phase,)], hop_at if known else {}, phase_at, root_id,
                out,
            )

    monkeypatch.setattr(spans_mod, "_expand", mutant)


def _caught(steps) -> bool:
    try:
        _check(steps, 1.0, True)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("mutate", [
    _hop_at_read_time, _one_id_too_few, _closed_by_the_next_record,
    _note_lost_when_built, _labels_out_from_labels_in,
    _unknown_parent_off_the_root,
])
def test_the_suite_catches_a_seeded_mutant(mutate, monkeypatch):
    mutate(monkeypatch)
    assert any(map(_caught, (PARENT_CASES, BATCH_CASES, RECORD_CASES)))
    # finding one failing example is the point: no shrinking after it
    generated = settings(
        max_examples=300, deadline=None, database=None, derandomize=True,
        phases=(Phase.explicit, Phase.generate),
    )(given(*streams)(_check))
    with pytest.raises(AssertionError):
        generated()


# -- what a run keeps ------------------------------------------------------------------
def _traced_run():
    from repro.faults import Scenario, run_scenario

    scenario = Scenario.load(
        str(Path(__file__).resolve().parents[2] / "examples" / "chaos_spans.json")
    )
    with telemetry_session():
        return run_scenario(scenario, seed=7, sample_rate=1.0)


def _spans_alive() -> int:
    gc.collect()
    return sum(type(obj) is Span for obj in gc.get_objects())


def test_a_traced_run_builds_no_span_until_a_trace_is_read():
    before = _spans_alive()
    report = _traced_run()
    recorder = report.recorder
    by_kind = report["spans"]["spans_by_kind"]
    # the run finalized, annotated faults, published the SLO quantiles
    # and summarized without one Span
    assert by_kind["hw-phase"] > 0 and by_kind["hop"] > 0
    assert _spans_alive() == before
    traces = recorder.traces()
    assert _spans_alive() == before + sum(by_kind.values())
    assert export_chrome_trace(traces, io.StringIO()) > sum(by_kind.values())
    # a read is a snapshot: the store answers as before it
    del traces
    assert _spans_alive() == before
    assert recorder.summary()["spans_by_kind"] == by_kind


def _tracked_state(recorder) -> List[Any]:
    """Every object the collector tracks that the recorder's own state
    reaches (not through its telemetry, which the run shares)."""
    seen, tracked = set(), []
    todo = [v for k, v in vars(recorder).items() if k != "telemetry"]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked.append(obj)
        if isinstance(obj, (dict, list, tuple, set, frozenset)):
            todo.extend(gc.get_referents(obj))
        elif hasattr(obj, "__dict__"):
            todo.append(vars(obj))
    return tracked


def test_a_traced_run_keeps_no_per_packet_object_the_collector_tracks():
    recorder = _traced_run().recorder
    summary = recorder.summary()
    assert summary["traces"] > 150 and summary["annotated"] > 0
    gc.collect()
    # a fixed handful of containers, however many packets were traced
    assert len(_tracked_state(recorder)) < 32


def test_a_traced_packet_retains_at_most_750_bytes():
    tracemalloc.start()
    try:
        report = _traced_run()
        recorder = report.recorder
        traces = recorder.summary()["traces"]
        # what the run shares (its telemetry, the network behind it)
        # stays alive: only what the recorder alone holds is freed
        telemetry = recorder.telemetry
        alive = weakref.ref(recorder)
        report.recorder = None
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del recorder
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert alive() is None and telemetry.spans is None
    assert traces > 150
    assert freed <= 750 * traces, freed / traces
