"""Differential tests for the span fold.

:class:`ScanRecorder` finds a hardware phase's parent the way the
recorder did before it kept per-trace indexes: walk the trace's spans
backwards for the latest ``hw-phase`` span named like the event's
``parent_phase``, then backwards again for the latest hop at the
event's node, else the root.  It is the oracle; it exists only here.
Two recorders on two telemetry instances are fed the same event stream
and must build the same trees: span ids, parent ids, kinds, names,
order, and the ``spans_to_jsonl`` bytes.
"""

import io
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    CLOCK_CYCLES,
    HWOpExecuted,
    LabelOpApplied,
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
)
from repro.obs.spans import (
    KIND_HOP,
    KIND_HW_PHASE,
    KIND_RTL,
    Span,
    SpanRecorder,
    Trace,
    spans_to_jsonl,
)
from repro.obs.telemetry import Telemetry


class ScanRecorder(SpanRecorder):
    """The recorder with the history-scanning parent search."""

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
            for span in reversed(trace.spans):
                if (
                    span.kind == KIND_HW_PHASE
                    and span.name == event.parent_phase
                ):
                    parent = span
                    break
        if parent is None:
            parent = self._last_hop_at(trace, event.node)
        kind = KIND_RTL if event.parent_phase is not None else KIND_HW_PHASE
        trace.spans.append(
            self._span(
                parent_id=(parent or trace.root).span_id,
                name=event.phase,
                kind=kind,
                start=start,
                end=end,
                clock_domain=CLOCK_CYCLES,
                cycle_start=event.cycle_start,
                cycle_end=event.cycle_end,
                attributes={
                    "node": event.node,
                    "cycles": event.cycle_end - event.cycle_start,
                },
            )
        )

    def _last_hop_at(self, trace: Trace, node: str) -> Optional[Span]:
        for span in reversed(trace.spans):
            if span.kind == KIND_HOP and span.attributes.get("node") == node:
                return span
        return None


# -- an event stream is data, so it can be emitted twice ----------------------
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

_steps = st.one_of(
    st.tuples(
        st.sampled_from(["forwarded", "dropped", "delivered"]),
        st.sampled_from(UIDS),
        st.sampled_from(NODES),
    ),
    st.tuples(st.just("label-op"), st.just(0), st.sampled_from(NODES)),
    st.tuples(
        st.just("hw-op"),
        st.sampled_from(UIDS),
        st.sampled_from(NODES),
        st.sampled_from(PHASES),
        st.integers(0, 40),
        st.integers(0, 12),
        st.sampled_from([0.0, 50e6]),
    ),
)


def _event(index: int, step):
    what, uid, node = step[:3]
    flow_id, time = uid % 3, index * 1e-3
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
    else:
        (phase, parent), cycle_start, cycles, hz = step[3], *step[4:]
        event = HWOpExecuted(
            node, uid, flow_id, phase, parent,
            cycle_start, cycle_start + cycles, time, hz,
        )
        event.time = float(cycle_start)
        return event
    event.time = time
    return event


def _fold(recorder_cls, steps, sample_rate, filtered):
    tel = Telemetry(enabled=True)
    recorder = recorder_cls(
        sample_rate=sample_rate,
        flow_rates={2: 1.0},
        flow_fecs={0: "10.0.0.0/8"},
        nodes=NODES[:3] if filtered else None,
        telemetry=tel,
    )
    for index, step in enumerate(steps):
        tel.events.emit(_event(index, step))
    recorder.finalize()
    recorder.detach()
    traces = recorder.traces()
    shape = [
        (t.uid, t.delivered, t.dropped,
         [(s.span_id, s.parent_id, s.kind, s.name) for s in t.all_spans()])
        for t in traces
    ]
    out = io.StringIO()
    spans_to_jsonl(traces, out)
    return shape, out.getvalue(), recorder.sampled_out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_steps, max_size=60),
    st.sampled_from([1.0, 0.5, 0.0]),
    st.booleans(),
)
def test_indexed_fold_builds_the_trees_the_scan_built(
    steps, sample_rate, filtered
):
    assert _fold(SpanRecorder, steps, sample_rate, filtered) == _fold(
        ScanRecorder, steps, sample_rate, filtered
    )


def _hw(uid, node, phase, parent=None):
    return ("hw-op", uid, node, (phase, parent), 0, 5, 50e6)


def test_the_cases_the_indexes_must_get_right():
    """Not vacuous: the stream below has a phase before any hop, a
    revisited node, a parent phase that never ran, and a second
    ``update`` that must win over the first -- with the parents spelled
    out, for both recorders."""
    steps = [
        _hw(1, "n0", "stack-load"),            # 2: no hop yet -> root (1)
        ("forwarded", 1, "n0"),                # 3: hop n0
        _hw(1, "n0", "update"),                # 4: -> hop 3
        _hw(1, "n0", "search", "update"),      # 5: -> phase 4
        ("forwarded", 1, "n1"),                # 6: hop n1
        _hw(1, "n1", "modify", "scrub"),       # 7: no such phase -> hop 6
        _hw(1, "n1", "modify", "update"),      # 8: latest update is n0's (4)
        ("forwarded", 1, "n0"),                # 9: n0 again
        _hw(1, "n0", "stack-drain"),           # 10: -> the later hop (9)
        _hw(1, "n0", "update"),                # 11: -> hop 9
        _hw(1, "n1", "modify", "update"),      # 12: -> phase 11, not 4
        _hw(1, "n2", "stack-load"),            # 13: never at n2 -> root
    ]
    parents = {2: 1, 3: 1, 4: 3, 5: 4, 6: 1, 7: 6, 8: 4, 9: 1, 10: 9,
               11: 9, 12: 11, 13: 1}
    for recorder_cls in (SpanRecorder, ScanRecorder):
        [(uid, _, _, spans)], _, _ = _fold(recorder_cls, steps, 1.0, True)
        assert uid == 1
        assert {sid: pid for sid, pid, _, _ in spans[1:]} == parents
