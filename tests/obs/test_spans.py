"""Span-layer tests: sampling, trace folding, hardware phase spans,
fault annotation, and the byte-stable exporters."""

import io
import json

import pytest

from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1
from repro.obs.events import (
    CLOCK_CYCLES,
    FaultHealed,
    FaultInjected,
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
)
from repro.obs import spans as spans_mod
from repro.obs.spans import (
    KIND_HOP,
    KIND_HW_PHASE,
    KIND_PACKET,
    KIND_RTL,
    SpanRecorder,
    export_chrome_trace,
    quantile,
    render_summary,
    sample_hash,
    spans_to_jsonl,
    to_chrome_trace,
)
from repro.obs.telemetry import telemetry_session
from tests.strategies import fresh_ids


def _forwarded(uid=1, flow_id=1, node="ler-a", time=None, **kw):
    event = PacketForwarded(
        node=node,
        uid=uid,
        flow_id=flow_id,
        action="forward-mpls",
        labels_in=kw.pop("labels_in", ()),
        labels_out=kw.pop("labels_out", (16,)),
        ttl_in=kw.pop("ttl_in", 64),
        next_hop=kw.pop("next_hop", "lsr-1"),
    )
    event.time = time
    return event


def _delivered(uid=1, flow_id=1, node="ler-b", time=None, latency=0.004):
    event = PacketDelivered(
        node=node, uid=uid, flow_id=flow_id, latency=latency
    )
    event.time = time
    return event


def _dropped(uid=1, flow_id=1, node="lsr-1", time=None):
    event = PacketDropped(
        node=node,
        uid=uid,
        flow_id=flow_id,
        reason="lsr-1: no next hop",
        labels_in=(16,),
        ttl_in=63,
    )
    event.time = time
    return event


class TestSampling:
    def test_hash_is_deterministic_and_bounded(self):
        values = [sample_hash(uid) for uid in range(1, 200)]
        assert values == [sample_hash(uid) for uid in range(1, 200)]
        assert all(0.0 <= v < 1.0 for v in values)
        # the multiplicative hash actually spreads: not all on one side
        assert any(v < 0.5 for v in values)
        assert any(v >= 0.5 for v in values)

    def test_rate_one_keeps_everything(self):
        with telemetry_session():
            rec = SpanRecorder(sample_rate=1.0)
            assert all(rec.wants(1, uid) for uid in range(1, 50))
            assert rec.sampled_out == 0

    def test_rate_zero_keeps_nothing(self):
        with telemetry_session():
            rec = SpanRecorder(sample_rate=0.0)
            assert not any(rec.wants(1, uid) for uid in range(1, 50))
            assert rec.sampled_out == 49

    def test_per_flow_override(self):
        with telemetry_session():
            rec = SpanRecorder(sample_rate=1.0, flow_rates={7: 0.0})
            assert rec.wants(1, 1)
            assert not rec.wants(7, 2)

    def test_decision_is_cached_per_uid(self):
        with telemetry_session():
            rec = SpanRecorder(sample_rate=0.0)
            assert not rec.wants(1, 5)
            assert not rec.wants(1, 5)
            assert rec.sampled_out == 1  # counted once, not per ask

    def test_invalid_rate_rejected(self):
        with telemetry_session():
            with pytest.raises(ValueError):
                SpanRecorder(sample_rate=1.5)

    def test_quantile_nearest_rank(self):
        values = [float(i) for i in range(1, 11)]
        assert quantile(values, 0.50) == 5.0
        assert quantile(values, 0.95) == 10.0
        assert quantile(values, 0.99) == 10.0
        assert quantile([3.0], 0.5) == 3.0


class TestFolding:
    def test_delivered_packet_builds_root_and_hops(self):
        with telemetry_session() as tel:
            rec = SpanRecorder(sample_rate=1.0)
            tel.events.emit(_forwarded(node="ler-a", time=0.001))
            tel.events.emit(_forwarded(node="lsr-1", time=0.002))
            tel.events.emit(_delivered(node="ler-b", time=0.005))
            rec.finalize()
            [trace] = rec.traces()
            assert trace.delivered and not trace.dropped
            assert trace.root.kind == KIND_PACKET
            assert trace.path == ["ler-a", "lsr-1"]
            # arriving at the next hop closes the previous hop span
            first, second = trace.hop_spans
            assert first.end == 0.002
            assert second.end == 0.005
            assert trace.root.end == 0.005
            assert trace.root.attributes["latency"] == 0.004
            assert all(
                h.parent_id == trace.root.span_id for h in trace.hop_spans
            )

    def test_drop_closes_the_trace_with_a_reason(self):
        with telemetry_session() as tel:
            rec = SpanRecorder(sample_rate=1.0)
            tel.events.emit(_forwarded(node="ler-a", time=0.001))
            tel.events.emit(_dropped(node="lsr-1", time=0.002))
            rec.finalize()
            [trace] = rec.traces()
            assert trace.dropped and not trace.delivered
            drop_hop = trace.hop_spans[-1]
            assert drop_hop.attributes["action"] == "discard"
            assert "no next hop" in drop_hop.attributes["reason"]
            assert trace.root.end == 0.002

    def test_node_filter_ignores_foreign_networks(self):
        with telemetry_session() as tel:
            rec = SpanRecorder(sample_rate=1.0, nodes={"ler-a"})
            tel.events.emit(_forwarded(node="ler-a", time=0.001))
            tel.events.emit(_forwarded(node="elsewhere", time=0.002))
            rec.finalize()
            [trace] = rec.traces()
            assert trace.path == ["ler-a"]

    def test_slo_histogram_sees_unsampled_deliveries(self):
        with telemetry_session() as tel:
            rec = SpanRecorder(
                sample_rate=0.0, flow_fecs={1: "10.2.0.0/16"}
            )
            for uid in range(1, 6):
                tel.events.emit(
                    _delivered(uid=uid, time=0.01, latency=0.001 * uid)
                )
            rec.finalize()
            assert rec.traces() == []  # nothing sampled...
            quants = rec.quantiles["10.2.0.0/16"]  # ...but SLO is full
            assert quants["p50"] == 0.003
            assert quants["p99"] == 0.005
            # and the gauges were published
            gauge = tel.fec_latency_quantiles.labels("10.2.0.0/16", "p99")
            assert gauge.value == 0.005

    def test_probe_flows_stay_out_of_the_slo(self):
        with telemetry_session():
            rec = SpanRecorder(sample_rate=1.0)
            rec.telemetry.events.emit(
                _delivered(uid=1, flow_id=-1000, time=0.01)
            )
            rec.finalize()
            assert rec.quantiles == {}

    def test_detach_restores_telemetry(self):
        with telemetry_session(enabled=False) as tel:
            rec = SpanRecorder(sample_rate=1.0, telemetry=tel)
            assert tel.enabled and tel.spans is rec
            rec.detach()
            assert tel.spans is None
            assert not tel.enabled
            tel.enable()
            tel.events.emit(_forwarded(time=0.001))
            assert rec.traces() == []  # sink is gone

    def test_detach_twice_is_a_no_op(self):
        with telemetry_session(enabled=False) as tel:
            rec = SpanRecorder(sample_rate=1.0, telemetry=tel)
            rec.detach()
            tel.enable()  # someone else's switch now: leave it alone
            rec.detach()
            assert tel.enabled and tel.spans is None

    def test_detach_after_reset_restores_the_switch(self):
        with telemetry_session(enabled=False) as tel:
            rec = SpanRecorder(sample_rate=1.0, telemetry=tel)
            tel.reset()  # drops the event log the recorder was hooked to
            rec.detach()
            assert not tel.enabled and tel.spans is None
            assert tel.events.sinks == []


class TestFaultAnnotations:
    def test_overlapping_trace_is_annotated(self):
        with telemetry_session() as tel:
            rec = SpanRecorder(sample_rate=1.0)
            tel.events.emit(_forwarded(node="lsr-1", time=0.010))
            fault = FaultInjected(
                fault="link-down", target="lsr-1-lsr-2", detail="cut"
            )
            fault.time = 0.012
            tel.events.emit(fault)
            heal = FaultHealed(fault="link-down", target="lsr-1-lsr-2")
            heal.time = 0.020
            tel.events.emit(heal)
            tel.events.emit(_delivered(node="ler-b", time=0.015))
            rec.finalize()
            [trace] = rec.traces()
            [note] = trace.root.annotations
            assert note.label == "fault:link-down"
            assert note.time == 0.012
            assert "lsr-1-lsr-2 (cut)" == note.detail
            # the hop at the faulted node carries its own annotation
            [hop_note] = trace.hop_spans[0].annotations
            assert hop_note.label == "fault:link-down"

    @staticmethod
    def _annotated_hops(nodes, path, target):
        """Hop nodes annotated when one fault on ``target`` overlaps a
        packet forwarded along ``path``."""
        with telemetry_session() as tel:
            rec = SpanRecorder(sample_rate=1.0, nodes=nodes)
            fault = FaultInjected(fault="link-down", target=target)
            fault.time = 0.0
            tel.events.emit(fault)
            for i, node in enumerate(path):
                tel.events.emit(_forwarded(node=node, time=0.001 * (i + 1)))
            rec.finalize()
            [trace] = rec.traces()
            assert len(trace.root.annotations) == 1
            return [
                hop.attributes["node"]
                for hop in trace.hop_spans
                if hop.annotations
            ]

    def test_target_names_whole_nodes_not_substrings(self):
        nodes = [f"n{i}" for i in range(12)]
        path = ["n1", "n10", "n0", "n11"]
        # the parent commit annotated the hop at n1 too ("n1" in "n10-n11")
        assert self._annotated_hops(nodes, path, "n10-n11") == ["n10", "n11"]
        assert self._annotated_hops(nodes, path, "n1-n0") == ["n1", "n0"]
        assert self._annotated_hops(nodes, path, "n1") == ["n1"]
        # without a node set the split is still at whole-name boundaries
        assert self._annotated_hops(None, path, "n10-n11") == ["n10", "n11"]

    def test_target_split_respects_dashes_inside_names(self):
        nodes = ["ler", "ler-a", "lsr-1", "a-lsr-1", "1"]
        path = ["ler", "ler-a", "lsr-1", "1"]
        # ler-a + lsr-1, or ler + a-lsr-1; never "1"'s link to "ler-a-lsr"
        assert self._annotated_hops(nodes, path, "ler-a-lsr-1") == [
            "ler", "ler-a", "lsr-1"
        ]
        assert self._annotated_hops(
            ["ler-a", "lsr-1", "ler"], path, "ler-a-lsr-1"
        ) == ["ler-a", "lsr-1"]
        assert self._annotated_hops(nodes, path, "ler-a") == ["ler-a"]

    def test_disjoint_trace_is_not_annotated(self):
        with telemetry_session() as tel:
            rec = SpanRecorder(sample_rate=1.0)
            tel.events.emit(_forwarded(time=0.001))
            tel.events.emit(_delivered(time=0.002))
            fault = FaultInjected(fault="link-down", target="x<->y")
            fault.time = 0.5
            tel.events.emit(fault)
            rec.finalize()
            [trace] = rec.traces()
            assert trace.root.annotations == []


def _hw_network():
    from repro.core.hwnode import HardwareLSRNode

    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    net = MPLSNetwork(topo, roles, node_factory=HardwareLSRNode)
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topo, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    return net


class TestHardwareTrace:
    def test_three_layers_with_cycle_accounting(self):
        with telemetry_session():
            rec = SpanRecorder(sample_rate=1.0)
            net = _hw_network()
            for _ in range(2):
                net.inject(
                    "ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
                )
            net.run(until=0.1)
            rec.finalize()
            trace = next(t for t in rec.traces() if t.delivered)
            # layer 1: hops in sim time
            assert trace.path == ["ler-a", "lsr-1", "lsr-2", "ler-b"]
            # layer 2: hardware phases under the hops
            phases = trace.spans_of_kind(KIND_HW_PHASE)
            names = {s.name for s in phases}
            assert {"stack-load", "update", "stack-drain"} <= names
            hop_ids = {h.span_id for h in trace.hop_spans}
            assert all(s.parent_id in hop_ids for s in phases)
            assert all(s.clock_domain == CLOCK_CYCLES for s in phases)
            # layer 3: the RTL search/modify split nests under update
            rtl = trace.spans_of_kind(KIND_RTL)
            assert {s.name for s in rtl} == {"search", "modify"}
            update_ids = {
                s.span_id for s in phases if s.name == "update"
            }
            assert all(s.parent_id in update_ids for s in rtl)
            # a transit update is 14 cycles: search (hit) + modify
            update = next(
                s
                for s in phases
                if s.name == "update"
                and s.attributes["node"] == "lsr-1"
            )
            children = [s for s in rtl if s.parent_id == update.span_id]
            assert (
                sum(s.attributes["cycles"] for s in children)
                == update.attributes["cycles"]
            )
            # the cycle-to-time anchor places phases inside their hop
            hop = next(
                h
                for h in trace.hop_spans
                if h.attributes["node"] == "lsr-1"
            )
            assert hop.start <= update.start <= update.end

    def test_sampled_out_packet_emits_no_phase_spans(self):
        with telemetry_session():
            rec = SpanRecorder(sample_rate=0.0)
            net = _hw_network()
            net.inject(
                "ler-a", IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
            )
            net.run(until=0.1)
            rec.finalize()
            assert rec.traces() == []
            assert net.delivered_count() == 1


def _transit_phases(search):
    """A transit pass's phases, as a node logs them: a fresh list of
    fresh tuples on every call."""
    return [
        ("stack-load", None, 0, 4),
        ("update", None, 4, 18),
        ("search", "update", 4, 4 + search),
        ("modify", "update", 4 + search, 18),
        ("stack-drain", None, 18, 22),
    ]


def _phase_records(ids=None):
    """Three hardware hops at lsr-1 -- two passes of one shape, one of
    another -- through a recorder; the phase lists its store holds, and
    its exports.  ``ids`` replaces the recorder's intern table."""
    with telemetry_session() as tel:
        rec = SpanRecorder(sample_rate=1.0)
        if ids is not None:
            rec._ids = ids
        for uid, search in ((1, 6), (2, 6), (3, 8)):
            time = 0.001 * uid
            tel.events.emit(_forwarded(uid=uid, node="lsr-1", time=time))
            tel.events.emit_phases(
                "lsr-1", uid, 1, time, 50e6, _transit_phases(search)
            )
            tel.events.emit(_delivered(uid=uid, time=time + 0.0005))
        records = [
            rec._ids.by_id[row[3]]
            for row in spans_mod._PHASES.iter_unpack(rec._phases)
        ]
        rec.finalize()
        traces = rec.traces()
        jsonl = io.StringIO()
        spans_to_jsonl(traces, jsonl)
        return records, to_chrome_trace(traces), jsonl.getvalue()


class _NoSharing(spans_mod._Interned):
    """An intern table that shares nothing: every row keeps its own
    node name, label stacks and phase list."""

    def __getitem__(self, value):
        return self.__missing__(value)


class TestPhaseShapes:
    def test_equal_phases_share_one_tuple(self):
        (first, second, other), _, _ = _phase_records()
        assert first is second
        assert first == tuple(_transit_phases(6))
        assert other is not first
        assert other == tuple(_transit_phases(8))

    def test_exports_equal_those_of_unshared_records(self):
        shared, chrome, jsonl = _phase_records()
        unshared, chrome_unshared, jsonl_unshared = _phase_records(
            _NoSharing()
        )
        assert shared[0] is not unshared[0] and unshared[0] is not unshared[1]
        assert "rtl" in {e["cat"] for e in chrome["traceEvents"]}
        assert chrome == chrome_unshared
        assert jsonl == jsonl_unshared


def _run_scenario_fresh(sample_rate=1.0):
    """One seeded chaos run from pristine uid/flow counters, so two
    invocations produce identical packets end to end."""
    from repro.faults.chaos import run_scenario
    from repro.faults.scenario import Scenario

    fresh_ids()
    scenario = Scenario.from_dict(
        {
            "name": "span-export",
            "duration": 0.25,
            "hardware": True,
            "control": "ldp",
            "topology": {
                "kind": "paper_figure1",
                "bandwidth_bps": 10e6,
                "delay_s": 1e-3,
            },
            "traffic": [
                {
                    "ingress": "ler-a",
                    "egress": "ler-b",
                    "prefix": "10.2.0.0/16",
                    "src": "10.1.0.5",
                    "dst": "10.2.0.9",
                    "rate_bps": 1e6,
                    "packet_size": 500,
                }
            ],
            "faults": [
                {
                    "at": 0.08,
                    "kind": "link-down",
                    "target": ["lsr-1", "lsr-2"],
                    "heal_at": 0.15,
                }
            ],
            "oam": {"period": 0.05, "timeout": 0.05, "slo_rtt_s": 0.01},
        }
    )
    with telemetry_session():
        return run_scenario(scenario, seed=0, sample_rate=sample_rate)


class TestExport:
    def test_seeded_run_exports_byte_identical_traces(self):
        exports = []
        reports = []
        for _ in range(2):
            report = _run_scenario_fresh()
            out = io.StringIO()
            export_chrome_trace(report.recorder.traces(), out)
            exports.append(out.getvalue())
            reports.append(report.to_json())
        assert exports[0] == exports[1]
        assert reports[0] == reports[1]

    def test_chrome_trace_has_all_layers_and_a_fault_annotation(self):
        report = _run_scenario_fresh()
        doc = to_chrome_trace(report.recorder.traces())
        events = doc["traceEvents"]
        cats = {e["cat"] for e in events}
        assert {"packet", "hop", "hw-phase", "rtl", "annotation"} <= cats
        notes = [e for e in events if e["cat"] == "annotation"]
        assert any(e["name"] == "fault:link-down" for e in notes)
        assert all(e["ph"] == "i" and e["s"] == "p" for e in notes)
        # complete events carry microsecond timestamps and durations
        slices = [e for e in events if e["ph"] == "X"]
        assert slices and all(e["dur"] > 0 for e in slices)
        # every trace names its process for the Perfetto sidebar
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == len(report.recorder.traces())
        probe_names = [
            e["args"]["name"]
            for e in meta
            if e["args"]["name"].startswith("OAM probe")
        ]
        assert probe_names  # the monitor's probes are traces too
        # the report carries the oam and spans sections
        assert report["oam"]["fecs"][0]["probes"] > 0
        assert report["spans"]["spans_by_kind"]["rtl"] > 0

    def test_spans_jsonl_is_schema_v2(self):
        report = _run_scenario_fresh()
        out = io.StringIO()
        count = spans_to_jsonl(report.recorder.traces()[:3], out)
        lines = out.getvalue().splitlines()
        assert len(lines) == count > 0
        for line in lines:
            record = json.loads(line)
            assert record["v"] == 2
            assert record["type"] == "span"
            assert record["trace_id"].startswith("flow")

    def test_render_summary_mentions_the_key_counts(self):
        report = _run_scenario_fresh()
        text = render_summary(report.recorder, slowest=3)
        assert "span tracing summary" in text
        assert "slowest 3 traces" in text
        assert "10.2.0.0/16" in text

    def test_zero_rate_skips_trace_building(self):
        report = _run_scenario_fresh(sample_rate=0.0)
        assert report.recorder.traces() == []
        assert report.recorder.sampled_out > 0
        # the SLO quantiles still cover every delivered packet
        assert report["spans"]["fec_latency_quantiles"]
