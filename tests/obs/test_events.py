"""Tests for the structured event log: typed records and sinks."""

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.events import (
    CLOCK_CYCLES,
    CLOCK_SIM,
    JSONL_SCHEMA_VERSION,
    CallbackSink,
    EventLog,
    FilterSink,
    FSMTransition,
    JSONLSink,
    KindCountSink,
    LabelOpApplied,
    ListSink,
    PacketDropped,
    PacketForwarded,
    read_jsonl,
)


def _packet_event(uid=1):
    return PacketForwarded(
        node="ler-a",
        uid=uid,
        flow_id=7,
        action="forward-mpls",
        labels_in=(),
        labels_out=(16,),
        ttl_in=64,
        next_hop="lsr-1",
    )


class TestEventLog:
    def test_sinks_receive_events_in_emit_order(self):
        log = EventLog()
        first, second = ListSink(), ListSink()
        log.add_sink(first)
        log.add_sink(second)
        events = [_packet_event(uid=i) for i in range(5)]
        for e in events:
            log.emit(e)
        assert first.events == events
        assert second.events == events
        assert [e.uid for e in first.events] == [0, 1, 2, 3, 4]
        assert log.emitted == 5

    def test_sink_fanout_order_is_attachment_order(self):
        log = EventLog()
        seen = []
        log.add_sink(CallbackSink(lambda e: seen.append("a")))
        log.add_sink(CallbackSink(lambda e: seen.append("b")))
        log.emit(_packet_event())
        assert seen == ["a", "b"]

    def test_removed_sink_stops_receiving(self):
        log = EventLog()
        sink = log.add_sink(ListSink())
        log.emit(_packet_event())
        log.remove_sink(sink)
        log.emit(_packet_event())
        assert len(sink) == 1

    def test_clock_stamps_time(self):
        now = [0.25]
        log = EventLog(clock=lambda: now[0])
        sink = log.add_sink(ListSink())
        log.emit(_packet_event())
        now[0] = 0.75
        log.emit(_packet_event())
        assert [e.time for e in sink.events] == [0.25, 0.75]

    def test_preset_time_is_kept(self):
        log = EventLog(clock=lambda: 99.0)
        sink = log.add_sink(ListSink())
        event = _packet_event()
        event.time = 1.5
        log.emit(event)
        assert sink.events[0].time == 1.5

    def test_by_kind_filters(self):
        log = EventLog()
        sink = log.add_sink(ListSink())
        log.emit(_packet_event())
        log.emit(PacketDropped(node="lsr-1", uid=2, flow_id=7,
                               reason="no ILM entry"))
        log.emit(LabelOpApplied(node="lsr-1", op="swap",
                                label_in=16, label_out=17))
        assert len(sink.by_kind("packet-forwarded")) == 1
        assert len(sink.by_kind("packet-dropped")) == 1
        assert len(sink.by_kind("label-op")) == 1

    def test_sink_change_between_emits_is_honoured_by_the_next(self):
        log = EventLog()
        first = log.add_sink(ListSink())
        log.emit(_packet_event(uid=1))
        second = log.add_sink(ListSink())
        log.emit(_packet_event(uid=2))
        log.remove_sink(first)
        log.emit(_packet_event(uid=3))
        log.remove_sink(second)
        log.emit(_packet_event(uid=4))
        assert [e.uid for e in first.events] == [1, 2]
        assert [e.uid for e in second.events] == [2, 3]
        assert log.sinks == [] and log.emitted == 4

    def test_sink_removed_from_inside_a_write_misses_the_next_emit(self):
        log = EventLog()
        seen = ListSink()

        def once(event):
            log.remove_sink(quitter)

        quitter = log.add_sink(CallbackSink(once))
        log.add_sink(seen)
        log.emit(_packet_event(uid=1))  # both see it; quitter leaves
        log.emit(_packet_event(uid=2))
        assert [e.uid for e in seen.events] == [1, 2]
        assert log.sinks == [seen]


_EVENT_MAKERS = [
    lambda: _packet_event(),
    lambda: PacketDropped(node="lsr-1", uid=2, flow_id=7, reason="x"),
    lambda: LabelOpApplied(node="lsr-1", op="swap", label_in=16, label_out=17),
    lambda: FSMTransition(fsm="search", src="IDLE", dst="SEARCH"),
]


class TestKindCounts:
    @given(st.lists(st.sampled_from(_EVENT_MAKERS), max_size=40))
    def test_counting_sink_matches_a_list_sink_fed_the_same_stream(
        self, makers
    ):
        log = EventLog()
        kept, counted = log.add_sink(ListSink()), log.add_sink(KindCountSink())
        for make in makers:
            log.emit(make())
        brute = {}
        for event in kept.events:
            brute[event.kind] = brute.get(event.kind, 0) + 1
        assert counted.kind_counts() == kept.kind_counts() == brute
        assert list(counted.kind_counts()) == sorted(brute)
        assert list(kept.kind_counts()) == sorted(brute)


class TestRecords:
    def test_as_dict_includes_kind_and_time(self):
        event = _packet_event()
        event.time = 0.5
        d = event.as_dict()
        assert d["kind"] == "packet-forwarded"
        assert d["time"] == 0.5
        assert d["node"] == "ler-a"
        assert d["next_hop"] == "lsr-1"

    def test_time_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            PacketForwarded(node="x", time=1.0)


class TestJSONLSink:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        log = EventLog(clock=lambda: 0.125)
        log.add_sink(JSONLSink(stream))
        log.emit(_packet_event(uid=1))
        log.emit(PacketDropped(node="lsr-1", uid=2, flow_id=7, reason="ttl"))
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "packet-forwarded"
        assert first["uid"] == 1
        assert first["time"] == 0.125
        second = json.loads(lines[1])
        assert second["kind"] == "packet-dropped"
        assert second["reason"] == "ttl"

    def test_keys_sorted_for_stable_diffs(self):
        stream = io.StringIO()
        log = EventLog()
        log.add_sink(JSONLSink(stream))
        log.emit(_packet_event())
        line = stream.getvalue().strip()
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_lines_carry_schema_version_and_clock_domain(self):
        stream = io.StringIO()
        log = EventLog(clock=lambda: 0.5)
        log.add_sink(JSONLSink(stream))
        log.emit(_packet_event())
        record = json.loads(stream.getvalue())
        assert record["v"] == JSONL_SCHEMA_VERSION == 2
        assert record["clock_domain"] == CLOCK_SIM

    def test_cycles_domain_events_say_so(self):
        stream = io.StringIO()
        log = EventLog(clock=lambda: 0.5)
        log.add_sink(JSONLSink(stream))
        fsm = FSMTransition(fsm="search", src="IDLE", dst="COMPARE", cycle=12)
        fsm.time = 12.0  # an RTL cycle number, not seconds
        log.emit(fsm)
        record = json.loads(stream.getvalue())
        assert record["clock_domain"] == CLOCK_CYCLES
        # the scheduler clock must NOT overwrite a cycle timestamp
        assert record["time"] == 12.0


class TestReadJSONL:
    def test_reads_v2_lines_verbatim(self):
        stream = io.StringIO()
        log = EventLog(clock=lambda: 0.25)
        log.add_sink(JSONLSink(stream))
        log.emit(_packet_event())
        stream.seek(0)
        [record] = list(read_jsonl(stream))
        assert record["v"] == 2
        assert record["clock_domain"] == CLOCK_SIM

    def test_backfills_v1_lines(self):
        v1 = "\n".join([
            json.dumps({"kind": "packet-forwarded", "time": 0.1}),
            json.dumps({"kind": "fsm-transition", "time": 42}),
            "",  # blank lines are skipped
        ])
        records = list(read_jsonl(io.StringIO(v1)))
        assert [r["v"] for r in records] == [1, 1]
        assert records[0]["clock_domain"] == CLOCK_SIM
        assert records[1]["clock_domain"] == CLOCK_CYCLES


class TestFilterSink:
    def test_flow_allow_list(self):
        inner = ListSink()
        sink = FilterSink(inner, flows=[7])
        sink.write(_packet_event(uid=1))       # flow_id 7
        other = PacketDropped(node="x", uid=2, flow_id=9, reason="r")
        sink.write(other)
        assert [e.uid for e in inner.events] == [1]
        assert sink.passed == 1 and sink.filtered == 1

    def test_node_allow_list(self):
        inner = ListSink()
        sink = FilterSink(inner, nodes=["lsr-1"])
        sink.write(_packet_event())            # node ler-a
        sink.write(PacketDropped(node="lsr-1", uid=2, flow_id=7,
                                 reason="r"))
        assert [e.node for e in inner.events] == ["lsr-1"]

    def test_event_without_the_attribute_is_filtered(self):
        inner = ListSink()
        sink = FilterSink(inner, flows=[7])
        sink.write(FSMTransition(fsm="search", src="IDLE", dst="COMPARE", cycle=12))
        assert len(inner) == 0 and sink.filtered == 1

    def test_streams_through_no_buffering(self):
        stream = io.StringIO()
        sink = FilterSink(JSONLSink(stream), flows=[7])
        sink.write(_packet_event(uid=1))
        # the line is in the stream immediately, not at flush/close
        assert json.loads(stream.getvalue())["uid"] == 1
