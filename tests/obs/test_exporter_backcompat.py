"""Events-schema v2 back-compat across *all* exporters.

The schema bump (PR 4: explicit ``v`` and ``clock_domain``) was only
ever regression-tested on ``read_jsonl``.  These tests pin the
contract for every exporter that writes event-derived artifacts --
event JSONL, flow/matrix/alert JSONL, span JSONL, Chrome trace-event
JSON, Prometheus text -- so a future v3 bump has to confront each one
deliberately.
"""

import io
import json

import pytest

from repro.obs.events import (
    CLOCK_CYCLES,
    CLOCK_SIM,
    JSONL_SCHEMA_VERSION,
    EventLog,
    FSMTransition,
    JSONLSink,
    LabelMappingWithdrawn,
    PacketForwarded,
    TraceLineError,
    read_jsonl,
)
from repro.obs.export import to_prometheus
from repro.obs.flows import FlowRecord, TrafficMatrix, flows_to_jsonl
from repro.obs.spans import (
    Span,
    Trace,
    export_chrome_trace,
)
from repro.obs.telemetry import Telemetry


def _clocked(clock):
    """An event log stamped by ``clock``, as a network's is."""
    log = EventLog()
    log.clock = clock
    return log


def _event_lines(*events):
    stream = io.StringIO()
    log = _clocked(lambda: 0.5)
    log.add_sink(JSONLSink(stream))
    for event in events:
        log.emit(event)
    stream.seek(0)
    return [json.loads(line) for line in stream if line.strip()]


class TestEventJSONL:
    def test_v2_lines_carry_version_and_domain(self):
        sim = PacketForwarded(node="ler-a", uid=1, flow_id=7)
        hw = FSMTransition(fsm="modifier", src="IDLE", dst="SEARCH", cycle=42)
        hw.time = 42.0
        [sim_line, hw_line] = _event_lines(sim, hw)
        assert sim_line["v"] == JSONL_SCHEMA_VERSION == 2
        assert sim_line["clock_domain"] == CLOCK_SIM
        assert sim_line["time"] == 0.5  # stamped by the log clock
        assert hw_line["clock_domain"] == CLOCK_CYCLES
        assert hw_line["time"] == 42.0  # cycle stamps are preserved

    def test_new_event_kinds_ride_the_v2_schema(self):
        # an event type added after the schema bump must serialize
        # with the same envelope as the originals
        [line] = _event_lines(
            LabelMappingWithdrawn(node="lsr-1", fec_id="f", label=17)
        )
        assert line["v"] == 2
        assert line["kind"] == "label-mapping-withdrawn"
        assert line["clock_domain"] == CLOCK_SIM

    def test_controller_events_ride_the_v2_schema(self):
        # PR 10's centralized-controller events joined after the bump:
        # same envelope, sim clock domain, payload fields intact
        from repro.obs.events import ControllerFailover, ControllerReadopt

        [fail, readopt] = _event_lines(
            ControllerFailover(node="lsr-1", reason="crash",
                               delegated=True, orphaned_fecs=2,
                               detect_s=0.09),
            ControllerReadopt(node="lsr-1", reason="crash",
                              rewrites=3, restore_s=0.08),
        )
        assert fail["v"] == readopt["v"] == 2
        assert fail["kind"] == "controller-failover"
        assert readopt["kind"] == "controller-readopt"
        assert fail["clock_domain"] == CLOCK_SIM
        assert readopt["clock_domain"] == CLOCK_SIM
        assert fail["delegated"] is True and fail["orphaned_fecs"] == 2
        assert readopt["rewrites"] == 3

    def test_round_trip_preserves_both_domains(self):
        sim = PacketForwarded(node="ler-a", uid=1, flow_id=7)
        hw = FSMTransition(fsm="modifier", src="IDLE", dst="SEARCH", cycle=42)
        hw.time = 42.0
        stream = io.StringIO()
        log = _clocked(lambda: 0.5)
        log.add_sink(JSONLSink(stream))
        log.emit(sim)
        log.emit(hw)
        stream.seek(0)
        records = list(read_jsonl(stream))
        assert [r["clock_domain"] for r in records] == [
            CLOCK_SIM, CLOCK_CYCLES
        ]
        assert [r["v"] for r in records] == [2, 2]

    def test_mixed_v1_and_v2_streams_read_coherently(self):
        mixed = "\n".join([
            json.dumps({"kind": "packet-forwarded", "time": 0.1}),
            json.dumps({
                "kind": "packet-forwarded", "time": 0.2,
                "v": 2, "clock_domain": CLOCK_SIM,
            }),
            json.dumps({"kind": "fsm-transition", "time": 42}),
        ])
        records = list(read_jsonl(io.StringIO(mixed)))
        assert [r["v"] for r in records] == [1, 2, 1]
        assert [r["clock_domain"] for r in records] == [
            CLOCK_SIM, CLOCK_SIM, CLOCK_CYCLES
        ]


class TestHostileLines:
    """A line no schema version can mean is one named error carrying
    its line number -- not a bare TypeError, and never yielded as if it
    were readable."""

    @pytest.mark.parametrize(
        "line,why",
        [
            # were: TypeError from the ``"v" in record`` test
            ("[1, 2]", "not a JSON object"),
            ('"str"', "not a JSON object"),
            # was: yielded as a v9 record
            ('{"v": 9}', "unknown schema version 9 (reads 1, 2)"),
            ('{"v": "2"}', "unknown schema version '2' (reads 1, 2)"),
            # was: a bare json.JSONDecodeError
            ("{not json", "not JSON: "),
        ],
    )
    def test_refused_with_its_line_number(self, line, why):
        good = json.dumps({"kind": "packet-forwarded", "time": 0.1})
        records = read_jsonl(io.StringIO(f"{good}\n\n{line}\n{good}\n"))
        assert next(records)["v"] == 1
        with pytest.raises(TraceLineError) as refused:
            next(records)
        assert refused.value.line == 3
        assert str(refused.value).startswith(f"line 3: {why}")
        assert isinstance(refused.value, ValueError)


class TestFlowsExporter:
    def test_every_line_type_carries_v2(self):
        record = FlowRecord(
            node="ler-a", flow_id=1, fec="10.2.0.0/16",
            packets=3, bytes=1500, first_seen=0.1, last_seen=0.4,
        )
        matrix = TrafficMatrix(
            time=0.5, interval=0.1,
            demands={("ler-a", "ler-b", "10.2.0.0/16"): (3, 1500)},
            utilization={("ler-a", "lsr-1"): 0.25},
        )
        alert = {"time": 0.5, "rule": "hot-link", "transition": "raised"}
        stream = io.StringIO()
        written = flows_to_jsonl([record], stream, [matrix], [alert])
        assert written == 3
        lines = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
        ]
        assert [line["type"] for line in lines] == [
            "flow", "matrix", "alert"
        ]
        assert all(line["v"] == JSONL_SCHEMA_VERSION for line in lines)

    def test_flow_lines_are_self_describing(self):
        record = FlowRecord(
            node="ler-a", flow_id=1, fec="f", labels=(17, 20)
        )
        stream = io.StringIO()
        flows_to_jsonl([record], stream)
        [line] = [json.loads(x) for x in stream.getvalue().splitlines()]
        # a v2 consumer must find the flow identity without positional
        # knowledge
        for key in ("node", "flow_id", "fec", "labels", "v", "type"):
            assert key in line


class TestSpanExporters:
    def _trace(self):
        root = Span(
            span_id=1, parent_id=None, name="pkt", kind="packet",
            start=0.1, end=0.4,
        )
        hw = Span(
            span_id=2, parent_id=1, name="modify", kind="hw-phase",
            start=0.2, end=0.3, clock_domain=CLOCK_CYCLES,
            cycle_start=0, cycle_end=12,
        )
        return Trace(
            uid=1, flow_id=7, fec="10.2.0.0/16", root=root, spans=[hw],
            delivered=True,
        )

    def test_chrome_trace_is_one_valid_json_document(self):
        stream = io.StringIO()
        events = export_chrome_trace([self._trace()], stream)
        assert events > 0
        doc = json.loads(stream.getvalue())
        assert doc["displayTimeUnit"] == "ms"
        assert all("ph" in entry for entry in doc["traceEvents"])


class TestPrometheusExporter:
    def test_families_without_samples_are_omitted(self):
        # registering new families (as the topo observatory does) must
        # not change the exposition of runs that never touch them
        exposition = to_prometheus(Telemetry(enabled=True).registry)
        assert exposition == ""

    def test_schema_version_never_leaks_into_prometheus(self):
        telemetry = Telemetry(enabled=True)
        telemetry.topo_deltas.inc()
        exposition = to_prometheus(telemetry.registry)
        assert "repro_topo_deltas_total 1" in exposition
        assert "clock_domain" not in exposition
