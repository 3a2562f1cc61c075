"""End-to-end tests of the ``overload`` scenario key and the
``signaling-storm`` fault."""

import copy

import pytest

from repro.faults import Scenario, ScenarioError, run_scenario
from repro.faults.scenario import FaultKind
from repro.obs import telemetry_session

STORM = {
    "name": "storm-test",
    "topology": {"kind": "ring", "n": 4,
                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
    "edges": ["n0", "n2"],
    "control": "ldp-messages",
    "duration": 1.5,
    "traffic": [
        {"ingress": "n0", "egress": "n2", "prefix": "10.2.0.0/16",
         "src": "10.0.0.5", "dst": "10.2.0.9",
         "rate_bps": 1e6, "packet_size": 500, "start": 0.1, "cos": 0},
        {"ingress": "n0", "egress": "n2", "prefix": "10.5.0.0/16",
         "src": "10.0.0.6", "dst": "10.5.0.9",
         "rate_bps": 1e6, "packet_size": 500, "start": 0.1, "cos": 5},
    ],
    "faults": [
        {"at": 0.2, "kind": "signaling-storm", "target": ["n0"],
         "heal_at": 0.7, "mappings": 2000, "hellos": 100},
        {"at": 0.2, "kind": "signaling-storm", "target": ["n2"],
         "heal_at": 0.7, "mappings": 2000, "hellos": 100},
    ],
    "overload": {"enabled": True},
}


def _run(overrides=None, seed=7):
    raw = copy.deepcopy(STORM)
    if overrides:
        raw.update(overrides)
    with telemetry_session():
        return run_scenario(Scenario.from_dict(raw), seed=seed)


class TestScenarioParsing:
    def test_overload_key_parses(self):
        scenario = Scenario.from_dict(STORM)
        assert scenario.overload == {"enabled": True}
        assert scenario.faults[0].kind is FaultKind.SIGNALING_STORM
        assert scenario.traffic[0].cos == 0
        assert scenario.traffic[1].cos == 5

    def test_cos_defaults_to_zero(self):
        raw = copy.deepcopy(STORM)
        del raw["traffic"][1]["cos"]
        assert Scenario.from_dict(raw).traffic[1].cos == 0

    def test_storm_needs_a_message_control_plane(self):
        raw = copy.deepcopy(STORM)
        raw["control"] = "ldp"
        with pytest.raises(ScenarioError, match="signaling-storm"):
            with telemetry_session():
                run_scenario(Scenario.from_dict(raw), seed=7)

    def test_bad_overload_key_rejected(self):
        with pytest.raises(ValueError, match="^overload: unknown key"):
            _run({"overload": {"enabled": True, "oops": 1}})


class TestProtectionOutcome:
    def test_unprotected_storm_drops_every_session(self):
        report = _run({"overload": {"enabled": False}})
        overload = report["overload"]
        assert overload["enabled"] is False
        assert overload["sessions"]["lost"] == overload["sessions"]["links"]
        assert overload["holds_expired"] == overload["sessions"]["links"]
        # the FIFO queue starved liveness traffic to serve the flood
        assert overload["queues"]["dropped_by_class"]["liveness"] > 0
        # ...but reconnect backoff repairs everything after the storm
        assert (
            overload["sessions"]["up_at_end"]
            == overload["sessions"]["links"]
        )

    def test_protected_storm_keeps_every_session_up(self):
        report = _run()
        overload = report["overload"]
        assert overload["enabled"] is True
        assert overload["sessions"]["lost"] == 0
        assert overload["holds_expired"] == 0
        assert (
            overload["sessions"]["up_at_end"]
            == overload["sessions"]["links"]
        )
        # protection = shedding bulk, visibly accounted
        assert overload["queues"]["shed_by_class"]["setup"] > 0
        assert overload["queues"]["dropped_by_class"]["liveness"] == 0

    def test_protected_availability_beats_unprotected(self):
        on = _run()["traffic"]["availability"]
        off = _run({"overload": {"enabled": False}})["traffic"][
            "availability"
        ]
        assert on > off

    def test_only_the_lowest_cos_fec_sheds(self):
        shedding = _run()["overload"]["shedding"]
        shed_prefixes = {e["prefix"] for e in shedding["shed_events"]}
        assert shed_prefixes == {"10.2.0.0/16"}  # cos 0, never cos 5
        assert all(e["cos"] == 0 for e in shedding["shed_events"])
        # hysteretic recovery restored it before the horizon
        assert all(
            not e["shed_at_end"] for e in shedding["fecs"]
        )
        assert shedding["recovery_time_s"] is not None
        assert shedding["packets_shed"] > 0

    def test_storm_faults_recover(self):
        report = _run({"overload": {"enabled": False}})
        for fault in report["faults"]:
            assert fault["kind"] == "signaling-storm"
            assert not fault["skipped"]
            assert fault["recovered_at"] is not None
            assert fault["mttr_s"] > 0


class TestReportStability:
    def test_report_is_byte_stable(self):
        assert _run().to_json() == _run().to_json()
        off = {"overload": {"enabled": False}}
        assert _run(off).to_json() == _run(off).to_json()

    def test_different_seeds_differ(self):
        assert _run(seed=7).to_json() != _run(seed=8).to_json()

    def test_report_without_overload_key_lacks_the_section(self):
        raw = copy.deepcopy(STORM)
        raw["overload"] = None
        raw["faults"] = []  # a storm against a legacy control plane
        with telemetry_session():
            report = run_scenario(Scenario.from_dict(raw), seed=7)
        assert "overload" not in report.data
