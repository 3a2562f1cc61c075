"""Differential tests for the hardware-phase batch (PR 23).

:class:`EagerRecorder` folds hardware phases the way the recorder did
before a hop's phases crossed the event log as one batch: one
:class:`HWOpExecuted` at a time, a ``Span`` + attributes dict built and
appended on arrival, parent found through ``hop_at`` / ``phase_at`` at
that moment.  It is the oracle; it exists only here.  The same stream
is fed twice -- to the oracle as the single events the parent commit
emitted, to :class:`SpanRecorder` as batches through
:meth:`EventLog.emit_phases` -- and everything a reader can see must be
equal: every field of every span, ``summary()`` before and after the
batches are expanded, the Perfetto and JSONL export bytes, and what a
``ListSink`` / ``JSONLSink`` / ``KindCountSink`` beside the recorder
saw.  Two seeded mutants show the suite is not vacuous.
"""

import io
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.hw.driver import ModifierDriver
from repro.mpls.label import LabelEntry
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
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
)
from repro.obs.spans import (
    KIND_HW_PHASE,
    KIND_RTL,
    Span,
    SpanRecorder,
    export_chrome_trace,
    spans_to_jsonl,
)
from repro.obs.telemetry import Telemetry, telemetry_session


class EagerRecorder(SpanRecorder):
    """The recorder with the per-event hardware-phase fold."""

    def _on_hw_op(self, event: HWOpExecuted) -> None:
        if self.nodes is not None and event.node not in self.nodes:
            return
        if not self.wants(event.flow_id, event.uid):
            return
        hz = event.clock_hz if event.clock_hz > 0 else 1.0
        start = event.anchor_time + event.cycle_start / hz
        end = event.anchor_time + event.cycle_end / hz
        trace = self._trace_for(event.uid, event.flow_id, start)
        parent: Optional[Span] = None
        if event.parent_phase is not None:
            parent = trace.phase_at.get(event.parent_phase)
        if parent is None:
            parent = trace.hop_at.get(event.node) or trace.root
        span = Span(
            self._next_span_id,
            parent.span_id,
            event.phase,
            KIND_HW_PHASE if event.parent_phase is None else KIND_RTL,
            start,
            end,
            CLOCK_CYCLES,
            event.cycle_start,
            event.cycle_end,
            {"node": event.node, "cycles": event.cycle_end - event.cycle_start},
        )
        self._next_span_id += 1
        if event.parent_phase is None:
            trace.phase_at[event.phase] = span
        trace.spans.append(span)

    def write_phases(self, node, uid, flow_id, anchor_time, clock_hz, phases):
        # only the RTL driver's span scope reaches the oracle this way
        # (the driver has no per-event emission any more): unroll it
        # into the events the parent's driver emitted
        for event in _events(node, uid, flow_id, anchor_time, clock_hz, phases):
            self._on_hw_op(event)


def _events(node, uid, flow_id, anchor_time, clock_hz, phases):
    """The parent commit's emission of one hop's phases."""
    for phase, parent, cycle_start, cycle_end in phases:
        event = HWOpExecuted(
            node, uid, flow_id, phase, parent,
            cycle_start, cycle_end, anchor_time, clock_hz,
        )
        event.time = float(cycle_start)
        yield event


# -- a stream is data, so it can be fed twice ---------------------------------
NODES = ("n0", "n1", "n2", "x9")  # x9 is outside the ``nodes`` filter
UIDS = tuple(range(1, 9))  # sample_hash keeps 2, 4, 5, 7 at rate 0.5
#: (phase, parent phase): well-formed nestings, a parent that never
#: ran ("scrub"), and a parent that is itself nested ("search")
PHASES = (
    ("stack-load", None),
    ("update", None),
    ("stack-drain", None),
    ("search", "update"),
    ("modify", "update"),
    ("modify", "scrub"),
    ("compare", "search"),
    ("update", "update"),
)
HZ = (50e6, 0.0, -1.0)

_uid, _node = st.sampled_from(UIDS), st.sampled_from(NODES)
_phase = st.tuples(
    st.sampled_from(PHASES), st.integers(0, 40), st.integers(0, 12)
)
_steps = st.one_of(
    st.tuples(
        st.sampled_from(["forwarded", "dropped", "delivered"]), _uid, _node
    ),
    st.tuples(st.just("label-op"), st.just(0), _node),
    # one hop's phases: a batch for the recorder, events for the oracle
    st.tuples(
        st.just("batch"), _uid, _node,
        st.lists(_phase, min_size=1, max_size=5), st.sampled_from(HZ),
    ),
    # a lone HWOpExecuted through ``emit`` (a third-party producer)
    st.tuples(st.just("single"), _uid, _node, _phase, st.sampled_from(HZ)),
    # RTL transactions under ``ModifierDriver.span_scope``
    st.tuples(st.just("scope"), _uid, _node, st.integers(1, 3)),
    # somebody looks at the trace in the middle of the run
    st.tuples(st.just("read"), _uid, _node),
    st.tuples(st.sampled_from(["fault", "heal"]), st.just(0), _node),
)


def _phases(raw):
    return [
        (phase, parent, start, start + cycles)
        for (phase, parent), start, cycles in raw
    ]


def _feed(tel, recorder, index, step, batched):
    what, uid, node = step[:3]
    flow_id, time = uid % 3, index * 1e-3
    emit = tel.events.emit
    if what == "batch":
        batch = (node, uid, flow_id, time, step[4], _phases(step[3]))
        if batched:
            tel.events.emit_phases(*batch)
        else:
            for event in _events(*batch):
                emit(event)
        return
    if what == "single":
        [event] = _events(node, uid, flow_id, time, step[4], _phases([step[3]]))
        emit(event)
        return
    if what == "scope":
        driver = ModifierDriver(ib_depth=8)
        with driver.span_scope(node, uid, flow_id, time, 50e6):
            for n in range(step[3]):
                driver.user_push(LabelEntry(label=100 + n, ttl=9))
            driver.user_pop()
        return
    if what == "read":
        trace = recorder._traces.get(uid)
        if trace is not None:
            assert all(isinstance(s, Span) for s in trace.spans)
        return
    if what == "forwarded":
        event = PacketForwarded(
            node=node, uid=uid, flow_id=flow_id, action="forward-mpls",
            labels_in=(16,), labels_out=(17,), ttl_in=64, next_hop="n1",
        )
    elif what == "dropped":
        event = PacketDropped(
            node=node, uid=uid, flow_id=flow_id, reason=f"{node}: no ILM",
            labels_in=(16,), ttl_in=1,
        )
    elif what == "delivered":
        event = PacketDelivered(
            node=node, uid=uid, flow_id=flow_id, latency=time
        )
    elif what == "label-op":
        event = LabelOpApplied(node=node, op="swap", label_in=16, label_out=17)
    elif what == "fault":
        event = FaultInjected(fault="node-crash", target=node)
    else:
        event = FaultHealed(fault="node-crash", target=node, downtime=1e-3)
    event.time = time
    emit(event)


def _fold(recorder_cls, steps, sample_rate, filtered, batched):
    """Everything a reader of the run can see."""
    tel = Telemetry(enabled=True)
    recorder = recorder_cls(
        sample_rate=sample_rate,
        flow_rates={2: 1.0},
        flow_fecs={0: "10.0.0.0/8"},
        nodes=NODES[:3] if filtered else None,
        telemetry=tel,
    )
    kept, counted, lines = ListSink(), KindCountSink(), io.StringIO()
    for sink in (kept, counted, JSONLSink(lines)):
        tel.events.add_sink(sink)
    with telemetry_session(telemetry=tel):  # the driver looks it up
        for index, step in enumerate(steps):
            _feed(tel, recorder, index, step, batched)
    recorder.finalize()
    recorder.detach()
    traces = recorder.traces()
    before = recorder.summary()  # read off the unexpanded batches
    perfetto, jsonl = io.StringIO(), io.StringIO()
    export_chrome_trace(traces, perfetto)
    spans_to_jsonl(traces, jsonl)
    assert not any(t._pending for t in traces)
    assert kept.kind_counts() == counted.kind_counts()
    assert tel.events.emitted == len(kept)
    return {
        "traces": [
            (t.uid, t.flow_id, t.fec, t.delivered, t.dropped, t.start, t.end,
             t.path, [s.as_dict() for s in t.all_spans()])
            for t in traces
        ],
        "summary": before,
        "summary again": recorder.summary(),
        "sampled_out": recorder.sampled_out,
        "perfetto": perfetto.getvalue(),
        "jsonl": jsonl.getvalue(),
        "events": [e.as_dict() for e in kept.events],
        "event lines": lines.getvalue(),
        "kind counts": counted.kind_counts(),
    }


def _check(steps, sample_rate, filtered):
    got = _fold(SpanRecorder, steps, sample_rate, filtered, batched=True)
    want = _fold(EagerRecorder, steps, sample_rate, filtered, batched=False)
    for key in want:
        assert got[key] == want[key], key
    assert got["summary"] == got["summary again"]


_streams = (
    st.lists(_steps, max_size=60),
    st.sampled_from([1.0, 0.5, 0.0]),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(*_streams)
def test_batches_build_what_the_per_event_fold_built(
    steps, sample_rate, filtered
):
    _check(steps, sample_rate, filtered)


def _batch(uid, node, *phases, hz=50e6):
    return ("batch", uid, node, [(p, 0, 5) for p in phases], hz)


#: a phase before any hop, a revisited node, a parent phase that never
#: ran, a second ``update`` that must win over the first, a batch whose
#: node is visited *after* it arrived, a read between batches, a driver
#: scope between batches, and a clock that is not one -- parents spelled
#: out below
HAND_BUILT = [
    _batch(1, "n0", ("stack-load", None)),            # 2: no hop yet -> root (1)
    ("forwarded", 1, "n0"),                           # 3: hop n0
    _batch(1, "n0", ("update", None),                 # 4: -> hop 3
           ("search", "update")),                     # 5: -> phase 4
    ("forwarded", 1, "n1"),                           # 6: hop n1
    _batch(1, "n1", ("modify", "scrub"),              # 7: no such phase -> hop 6
           ("modify", "update")),                     # 8: latest update is n0's (4)
    ("read", 1, "n0"),
    ("forwarded", 1, "n0"),                           # 9: n0 again
    _batch(1, "n0", ("stack-drain", None),            # 10: -> the later hop (9)
           ("update", None), hz=0.0),                 # 11: -> hop 9
    _batch(1, "n1", ("modify", "update")),            # 12: -> phase 11, not 4
    _batch(1, "n2", ("stack-load", None)),            # 13: not at n2 *yet* -> root
    ("scope", 1, "n1", 1),                            # 14, 15: push, pop -> hop 6
    ("forwarded", 1, "n2"),                           # 16: hop n2, after 13
    ("single", 1, "n2", (("update", None), 0, 5), 50e6),  # 17: -> hop 16
    ("fault", 0, "n1"),
]
PARENTS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 1, 7: 6, 8: 4, 9: 1, 10: 9, 11: 9,
           12: 11, 13: 1, 14: 6, 15: 6, 16: 1, 17: 16}


def test_the_cases_a_batch_must_get_right():
    _check(HAND_BUILT, 1.0, True)
    got = _fold(SpanRecorder, HAND_BUILT, 1.0, True, batched=True)
    [trace] = got["traces"]
    spans = trace[-1]
    assert {s["span_id"]: s["parent_id"] for s in spans[1:]} == PARENTS
    by_id = {s["span_id"]: s for s in spans}
    assert by_id[10]["end"] == by_id[10]["start"] + 5.0  # hz <= 0 counts as 1
    assert [by_id[i]["name"] for i in (14, 15)] == ["user-push", "user-pop"]
    assert by_id[15]["cycle_start"] == 3 and by_id[15]["cycle_end"] == 6
    assert got["summary"]["spans_by_kind"] == {
        "hop": 4, "hw-phase": 8, "packet": 1, "rtl": 4,
    }
    assert got["summary"]["annotated"] == 1


# -- the suite notices a wrong batch ------------------------------------------
def _hop_at_read_time(monkeypatch):
    """Mutant: the expansion asks where the node's latest hop is *now*."""
    expand = spans_mod._PhaseBatch.expand

    def mutant(self, trace, out):
        self.hop = trace.hop_at.get(self.node)
        expand(self, trace, out)

    monkeypatch.setattr(spans_mod._PhaseBatch, "expand", mutant)


def _one_id_too_few(monkeypatch):
    """Mutant: a batch of n phases reserves n - 1 span ids."""
    write_phases = SpanRecorder.write_phases

    def mutant(self, *batch):
        before = self._next_span_id
        write_phases(self, *batch)
        if self._next_span_id > before:
            self._next_span_id -= 1

    monkeypatch.setattr(SpanRecorder, "write_phases", mutant)


@pytest.mark.parametrize("mutate", [_hop_at_read_time, _one_id_too_few])
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


# -- what a run builds ---------------------------------------------------------
def test_a_traced_run_builds_no_phase_span_until_one_is_read():
    from repro.faults import Scenario, run_scenario

    scenario = Scenario.load(
        str(Path(__file__).resolve().parents[2] / "examples" / "chaos_spans.json")
    )
    with telemetry_session():
        report = run_scenario(scenario, seed=7, sample_rate=1.0)
    traces = report.recorder.traces()
    by_kind = report["spans"]["spans_by_kind"]
    phases = by_kind["hw-phase"] + by_kind["rtl"]
    # the run summarized, annotated faults and rendered hop paths
    # without turning one logged phase into a Span
    assert phases > 0 and sum(t._pending for t in traces) == phases
    assert not any(
        isinstance(item, Span) and item.kind in (KIND_HW_PHASE, KIND_RTL)
        for t in traces for item in t._items
    )
    assert export_chrome_trace(traces, io.StringIO()) > phases
    assert sum(t._pending for t in traces) == 0
    assert sum(
        len(t.spans_of_kind(KIND_HW_PHASE)) + len(t.spans_of_kind(KIND_RTL))
        for t in traces
    ) == phases
    assert report.recorder.summary()["spans_by_kind"] == by_kind
