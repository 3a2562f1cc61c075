"""Determinism properties of chaos runs.

``hypothesis`` is not available in this environment, so these are
seeded-random property loops: each property is checked across a batch
of seeds rather than a single example.

The properties the chaos tooling promises:

* same (scenario, seed) => byte-identical JSON report,
* same (scenario, seed) => identical telemetry event log,
* same (scenario, seed) => identical final forwarding tables,
* different seeds => different randomized schedules.
"""

import pytest

from repro.faults import Scenario, run_scenario
from repro.faults.chaos import build_run
from repro.obs import ListSink, get_telemetry, telemetry_session

SCENARIO = {
    "name": "determinism",
    "topology": {"kind": "paper_figure1",
                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
    "control": "ldp",
    "duration": 0.8,
    "traffic": [
        {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
         "src": "10.1.0.5", "dst": "10.2.0.9",
         "rate_bps": 2e6, "packet_size": 500}
    ],
    "faults": [
        {"at": 0.2, "kind": "link-down",
         "target": ["lsr-1", "lsr-2"], "heal_at": 0.45},
        {"at": 0.5, "kind": "link-loss",
         "target": ["ler-a", "lsr-1"], "rate": 0.3, "heal_at": 0.7},
    ],
    "random_faults": {
        "count": 3, "kinds": ["link-down", "link-corrupt"],
        "window": [0.05, 0.6], "mean_outage": 0.03,
    },
}


def _report_json(seed):
    with telemetry_session():
        return run_scenario(Scenario.from_dict(SCENARIO), seed=seed).to_json()


def _event_log(seed):
    with telemetry_session() as tel:
        sink = tel.events.add_sink(ListSink())
        run = build_run(Scenario.from_dict(SCENARIO), seed=seed)
        run.network.run(until=run.scenario.duration)
        log = []
        for event in sink.events:
            record = event.as_dict()
            # packet uids and flow ids are process-global allocation
            # counters: they keep counting across runs by design, so
            # they are excluded from the cross-run identity claim
            record.pop("uid", None)
            record.pop("flow_id", None)
            log.append(record)
        return log


def _final_tables(seed):
    run = build_run(Scenario.from_dict(SCENARIO), seed=seed)
    run.network.run(until=run.scenario.duration)
    tables = {}
    for name, node in sorted(run.network.nodes.items()):
        tables[name] = (
            sorted((label, repr(nhlfe)) for label, nhlfe in node.ilm),
            sorted((repr(fec), repr(nhlfe)) for fec, nhlfe in node.ftn),
        )
    return tables


class TestSameSeedIdentical:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_reports_byte_identical(self, seed):
        assert _report_json(seed) == _report_json(seed)

    @pytest.mark.parametrize("seed", [7, 23])
    def test_event_logs_identical(self, seed):
        log_a, log_b = _event_log(seed), _event_log(seed)
        assert len(log_a) == len(log_b)
        assert log_a == log_b

    @pytest.mark.parametrize("seed", [7, 23])
    def test_final_tables_identical(self, seed):
        assert _final_tables(seed) == _final_tables(seed)


class TestSeedsActuallyMatter:
    def test_different_seeds_different_reports(self):
        # the randomized half of the schedule must depend on the seed;
        # across a seed batch at least the schedules must differ
        reports = {_report_json(seed) for seed in range(6)}
        assert len(reports) > 1

    def test_different_seeds_different_schedules(self):
        scenario = Scenario.from_dict(SCENARIO)
        schedules = {
            tuple((s.kind, s.at, s.target, s.heal_at)
                  for s in scenario.materialize(seed))
            for seed in range(8)
        }
        assert len(schedules) == 8


class TestNoWallClockInReports:
    def test_report_values_are_simulation_times(self):
        report = run_scenario(Scenario.from_dict(SCENARIO), seed=7)
        for fault in report["faults"]:
            for key in ("injected_at", "healed_at", "recovered_at"):
                value = fault[key]
                assert value is None or 0 <= value <= 2.0, (
                    f"{key}={value} looks like wall-clock time"
                )

    def test_telemetry_disabled_outside_session(self):
        # run_scenario must not implicitly enable telemetry
        tel = get_telemetry()
        report = run_scenario(Scenario.from_dict(SCENARIO), seed=1)
        assert not tel.enabled
        assert "events" not in report.data


class TestRunScenarioCleansUp:
    ARMED = dict(
        SCENARIO,
        flows={"active_timeout": 0.5, "idle_timeout": 0.2},
        topo={"snapshot_every": 32},
    )

    def test_a_failing_run_leaves_nothing_attached(self, monkeypatch):
        from repro.net.network import MPLSNetwork

        def broken_run(self, until=None):
            raise RuntimeError("scheduler wedged")

        monkeypatch.setattr(MPLSNetwork, "run", broken_run)
        with telemetry_session(enabled=False) as tel:
            with pytest.raises(RuntimeError, match="wedged"):
                run_scenario(
                    Scenario.from_dict(self.ARMED), seed=1, sample_rate=1.0
                )
            assert tel.events.sinks == []
            assert (tel.spans, tel.flows, tel.topo) == (None, None, None)
            assert not tel.enabled

    def test_a_clean_run_leaves_nothing_attached(self):
        with telemetry_session(enabled=False) as tel:
            report = run_scenario(
                Scenario.from_dict(self.ARMED), seed=1, sample_rate=1.0
            )
            assert sum(report["events"].values()) > 0
            assert tel.events.sinks == []
            assert (tel.spans, tel.flows, tel.topo) == (None, None, None)
            assert not tel.enabled
