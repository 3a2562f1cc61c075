"""Flow-accounting tests: telemetry-slot lifecycle, IPFIX expiry
edges (capacity-1 caches, zero-length flows), the matrix collector,
and byte-stability of seeded exports."""

import io
import json

import pytest

from repro.faults import Scenario, run_scenario
from repro.net.events import EventScheduler
from repro.obs import get_telemetry, to_prometheus
from repro.obs.events import JSONL_SCHEMA_VERSION
from repro.obs.flows import (
    END_ACTIVE,
    END_EVICTED,
    END_FINAL,
    END_IDLE,
    END_TEARDOWN,
    FlowAccountant,
    MatrixCollector,
    TrafficMatrix,
    flows_to_jsonl,
    matrices_to_json,
    render_flow_summary,
)
from repro.obs.telemetry import Telemetry, telemetry_session

#: Every flow/alert family must exist in a scrape even when accounting
#: never ran -- dashboards are schema-stable against feature flags.
FLOW_FAMILIES = (
    "repro_flow_records_active",
    "repro_flow_records_opened_total",
    "repro_flow_records_expired_total",
    "repro_flow_packets_total",
    "repro_flow_bytes_total",
    "repro_traffic_matrix_snapshots_total",
    "repro_link_utilization_ratio",
    "repro_alerts_active",
    "repro_alert_transitions_total",
)


class _Clock:
    """A hand-cranked clock for driving expiry deterministically."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _accountant(**kw):
    tel = Telemetry(enabled=False)
    clock = _Clock()
    tel.events.clock = clock
    return FlowAccountant(telemetry=tel, **kw), tel, clock


class TestTelemetrySlot:
    def test_families_registered_even_when_accounting_disabled(self):
        with telemetry_session(enabled=False) as tel:
            assert tel.flows is None
            for family in FLOW_FAMILIES:
                assert family in tel.registry
            # registration is schema-stable, not sample-noisy: a scrape
            # with accounting off stays free of flow samples
            scrape = to_prometheus(tel.registry)
            assert "repro_flow_records_opened_total{" not in scrape

    def test_reset_clears_flows_slot_and_keeps_families(self):
        tel = Telemetry(enabled=False)
        accountant = FlowAccountant(telemetry=tel)
        accountant.record_packet("n0", 1, 500)
        assert tel.flows is accountant
        tel.reset()
        assert tel.flows is None
        for family in FLOW_FAMILIES:
            assert family in tel.registry
        # reset wiped the samples the accountant had published
        scrape = to_prometheus(tel.registry)
        assert 'repro_flow_records_opened_total{node="n0"}' not in scrape

    def test_attach_enables_and_detach_restores(self):
        tel = Telemetry(enabled=False)
        accountant = FlowAccountant(telemetry=tel)
        assert tel.enabled
        accountant.detach()
        assert not tel.enabled
        assert tel.flows is None
        # detaching someone else's accountant is a no-op on the slot
        first = FlowAccountant(telemetry=tel)
        second = FlowAccountant(telemetry=tel)
        first.detach()
        assert tel.flows is second

    def test_session_scoping_does_not_leak_accountant(self):
        with telemetry_session() as tel:
            accountant = FlowAccountant(telemetry=tel)
            assert get_telemetry().flows is accountant
        assert get_telemetry().flows is None

    def test_hooks_publish_metric_families(self):
        accountant, tel, _clock = _accountant(flow_fecs={1: "10.2.0.0/16"})
        accountant.record_packet("n0", 1, 500)
        accountant.record_packet("n0", 1, 500)
        assert tel.flow_packets.labels("n0", "10.2.0.0/16").value == 2
        assert tel.flow_bytes.labels("n0", "10.2.0.0/16").value == 1000
        assert tel.flow_opened.labels("n0").value == 1
        assert tel.flow_active.labels("n0").value == 1


class TestExpiryEdges:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FlowAccountant(capacity=0, telemetry=Telemetry(enabled=False))
        with pytest.raises(ValueError):
            FlowAccountant(idle_timeout=0.0, telemetry=Telemetry(enabled=False))
        with pytest.raises(ValueError):
            FlowAccountant(
                active_timeout=-1.0, telemetry=Telemetry(enabled=False)
            )

    def test_capacity_one_cache_evicts_lru(self):
        accountant, tel, clock = _accountant(capacity=1)
        clock.now = 0.1
        accountant.record_packet("n0", 1, 500)
        clock.now = 0.2
        accountant.record_packet("n0", 2, 700)
        assert accountant.evictions == 1
        assert len(accountant._active) == 1
        victim = accountant.finished[0]
        assert victim.end_reason == END_EVICTED
        assert victim.end_time == victim.last_seen == pytest.approx(0.1)
        assert tel.flow_expired.labels("n0", END_EVICTED).value == 1
        # the survivor keeps accounting normally
        clock.now = 0.25
        accountant.record_packet("n0", 2, 300)
        assert accountant.active_records()[0].bytes == 1000

    def test_zero_length_flow_single_packet(self):
        accountant, _tel, clock = _accountant(idle_timeout=0.25)
        clock.now = 0.5
        accountant.record_packet("n0", 1, 64)
        clock.now = 10.0
        accountant.finalize()
        (record,) = accountant.finished
        assert record.packets == 1
        assert record.first_seen == record.last_seen == 0.5
        # the close time is capped at last_seen + idle_timeout, not
        # whenever finalize happened to run
        assert record.end_time == pytest.approx(0.75)
        assert record.end_reason == END_FINAL

    def test_zero_duration_when_finalized_immediately(self):
        accountant, _tel, clock = _accountant()
        clock.now = 0.5
        accountant.record_packet("n0", 1, 64)
        accountant.finalize()
        (record,) = accountant.finished
        assert record.end_time == 0.5
        assert record.end_time - record.first_seen == 0.0

    def test_finalize_is_idempotent(self):
        accountant, _tel, clock = _accountant()
        accountant.record_packet("n0", 1, 64)
        accountant.finalize()
        accountant.finalize()
        assert len(accountant.finished) == 1

    def test_idle_rotation_on_next_packet(self):
        accountant, _tel, clock = _accountant(idle_timeout=0.25)
        clock.now = 0.0
        accountant.record_packet("n0", 1, 500)
        clock.now = 1.0
        accountant.record_packet("n0", 1, 500)
        (stale,) = accountant.finished
        assert stale.end_reason == END_IDLE
        assert stale.end_time == 0.0  # closed at its last packet
        assert stale.seq == 0
        assert accountant.active_records()[0].seq == 1

    def test_active_timeout_rotation(self):
        accountant, _tel, clock = _accountant(
            active_timeout=0.25, idle_timeout=10.0
        )
        for clock.now in (0.0, 0.1, 0.2, 0.3):
            accountant.record_packet("n0", 1, 500)
        (rotated,) = accountant.finished
        assert rotated.end_reason == END_ACTIVE
        assert rotated.end_time == pytest.approx(0.3)
        assert rotated.packets == 3
        assert accountant.active_records()[0].packets == 1

    def test_expire_idle_sweep(self):
        accountant, _tel, clock = _accountant(idle_timeout=0.25)
        accountant.record_packet("n0", 1, 500)
        accountant.record_packet("n1", 2, 500)
        assert accountant.expire_idle(1.0) == 2
        assert len(accountant._active) == 0
        assert {r.end_reason for r in accountant.finished} == {END_IDLE}

    def test_close_fec_teardown(self):
        accountant, _tel, clock = _accountant(
            flow_fecs={1: "10.2.0.0/16", 2: "10.5.0.0/16"}
        )
        accountant.record_packet("n0", 1, 500)
        accountant.record_packet("n0", 2, 500)
        assert accountant.close_fec("10.2.0.0/16") == 1
        (torn,) = accountant.finished
        assert torn.end_reason == END_TEARDOWN
        assert torn.fec == "10.2.0.0/16"
        assert len(accountant._active) == 1

    def test_early_hw_cycles_are_parked_then_folded(self):
        accountant, _tel, clock = _accountant()
        accountant.record_hw_cycles("n0", 1, 14)
        accountant.record_packet("n0", 1, 500)
        accountant.record_hw_cycles("n0", 1, 6)
        (record,) = accountant.active_records()
        assert record.hw_cycles == 20

    def test_probe_flows_stay_out_of_the_demand_matrix(self):
        accountant, _tel, clock = _accountant()
        accountant.record_delivery("n2", -1, 64)
        assert accountant.drain_demands() == {}


class TestCollector:
    def test_ticks_snapshot_and_sweep(self):
        tel = Telemetry(enabled=False)
        scheduler = EventScheduler()
        tel.events.clock = lambda: scheduler.now
        accountant = FlowAccountant(telemetry=tel, idle_timeout=0.05)
        collector = MatrixCollector(
            accountant,
            scheduler,
            bandwidths={("a", "b"): 1e6},
            period=0.1,
            stop=0.35,
        )

        def traffic():
            accountant.record_packet("a", 1, 500)
            accountant.record_delivery("b", 1, 500)
            accountant.record_link_tx("a", "b", 500)

        scheduler.at(0.01, traffic)
        scheduler.run(until=1.0)
        assert len(collector.matrices) == 3  # 0.1, 0.2, 0.3; stop caps it
        first = collector.matrices[0]
        assert first.utilization[("a", "b")] == pytest.approx(
            500 * 8 / (1e6 * 0.1)
        )
        assert first.demands[("a", "b", "flow-1")] == (1, 500)
        # the idle sweep on the first tick closed the quiet record
        assert len(accountant._active) == 0
        assert accountant.finished[0].end_reason == END_IDLE
        # later intervals drained to empty
        assert collector.matrices[-1].demands == {}
        assert tel.registry.value("repro_traffic_matrix_snapshots_total") == 3
        assert collector.peak_utilization()[("a", "b")] == pytest.approx(0.04)

    def test_rejects_nonpositive_period(self):
        accountant, tel, _clock = _accountant()
        with pytest.raises(ValueError):
            MatrixCollector(accountant, EventScheduler(), period=0.0)


#: A short seeded scenario used for the byte-stability contract.
FLOW_SCENARIO = {
    "name": "flows-stability",
    "topology": {"kind": "paper_figure1",
                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
    "control": "ldp",
    "duration": 0.6,
    "traffic": [
        {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
         "src": "10.1.0.5", "dst": "10.2.0.9",
         "rate_bps": 2e6, "packet_size": 500}
    ],
    "faults": [
        {"at": 0.2, "kind": "link-loss",
         "target": ["ler-a", "lsr-1"], "rate": 0.3, "heal_at": 0.4},
    ],
    "flows": {"active_timeout": 0.25, "idle_timeout": 0.1,
              "matrix_period": 0.1},
}


def _export(seed):
    with telemetry_session():
        report = run_scenario(Scenario.from_dict(FLOW_SCENARIO), seed=seed)
    stream = io.StringIO()
    flows_to_jsonl(
        report.flows.all_records(),
        stream,
        matrices=report.collector.matrices,
    )
    return stream.getvalue(), matrices_to_json(report.collector.matrices)


class TestExports:
    def test_jsonl_lines_carry_schema_version_and_type(self):
        accountant, _tel, clock = _accountant(flow_fecs={1: "10.2.0.0/16"})
        clock.now = 0.1
        accountant.record_packet("n0", 1, 500, labels=(16, 17))
        accountant.finalize()
        matrix = TrafficMatrix(
            time=0.1, interval=0.1,
            demands={("n0", "n2", "10.2.0.0/16"): (1, 500)},
            utilization={("n0", "n1"): 0.25},
        )
        stream = io.StringIO()
        written = flows_to_jsonl(
            accountant.all_records(), stream, matrices=[matrix],
            alerts=[{"transition": "raised", "rule": "r", "subject": "s",
                     "time": 0.1, "value": 1.0}],
        )
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert written == len(lines) == 3
        assert [line["type"] for line in lines] == ["flow", "matrix", "alert"]
        assert all(line["v"] == JSONL_SCHEMA_VERSION for line in lines)
        assert lines[0]["labels"] == [16, 17]
        assert lines[1]["demands"][0]["rate_bps"] == pytest.approx(40000.0)

    def test_two_seeded_runs_export_identical_bytes(self):
        first_jsonl, first_matrix = _export(seed=3)
        second_jsonl, second_matrix = _export(seed=3)
        assert first_jsonl == second_jsonl
        assert first_matrix == second_matrix
        assert first_jsonl  # non-trivial: records were actually written

    def test_seeded_matrix_export_has_demand(self):
        _jsonl, matrix_doc = _export(seed=3)
        doc = json.loads(matrix_doc)
        assert doc["v"] == JSONL_SCHEMA_VERSION
        demands = [d for m in doc["matrices"] for d in m["demands"]]
        assert any(
            d["ingress"] == "ler-a" and d["egress"] == "ler-b" for d in demands
        )

    def test_render_flow_summary_smoke(self):
        accountant, _tel, clock = _accountant(flow_fecs={1: "10.2.0.0/16"})
        accountant.record_packet("n0", 1, 500, labels=(16,))
        accountant.finalize()
        text = render_flow_summary(accountant)
        assert "flow accounting summary" in text
        assert "10.2.0.0/16" in text
