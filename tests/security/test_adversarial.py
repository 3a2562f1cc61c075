"""End-to-end tests of the adversarial fault family.

``examples/chaos_security.json`` runs all four MPLS attacks --
label spoofing, LDP session hijack, VPN cross-connect leak, TTL-expiry
flood -- against the full mitigation layer, then again with every
guard stood down (``--mitigation off``).  The contract under test:
mitigation-on drives every blast radius to zero with stamped
detection/mitigation times; mitigation-off leaves the same seeded
attacks undetected with a strictly larger blast radius.  Reports are
byte-stable and the ``security`` section only exists when the scenario
asks for it.
"""

import json
import os

import pytest

from repro.faults import Scenario, ScenarioError, run_scenario
from repro.faults.scenario import FAULT_KINDS, FaultKind
from repro.obs import telemetry_session

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)
SCENARIO = os.path.join(EXAMPLES_DIR, "chaos_security.json")


def _load_raw():
    with open(SCENARIO) as handle:
        return json.load(handle)


def _run(overrides=None, seed=7):
    raw = _load_raw()
    if overrides:
        raw.update(overrides)
    with telemetry_session():
        return run_scenario(Scenario.from_dict(raw), seed=seed)


@pytest.fixture(scope="module")
def mitigated():
    return _run()


@pytest.fixture(scope="module")
def unmitigated():
    return _run({"security": {"enabled": False}})


def _attack(report, kind):
    matches = [a for a in report["security"]["attacks"] if a["kind"] == kind]
    assert len(matches) == 1
    return matches[0]


class TestScenarioParsing:
    def test_attack_kinds_parse(self):
        scenario = Scenario.from_dict(_load_raw())
        kinds = {fault.kind for fault in scenario.faults}
        assert kinds == {
            FaultKind.LABEL_SPOOF,
            FaultKind.LDP_HIJACK,
            FaultKind.XCONNECT_LEAK,
            FaultKind.TTL_FLOOD,
        }
        assert {k.value for k in kinds} == {
            k for k, row in FAULT_KINDS.items() if row.key == "security"
        }
        assert scenario.security == {"enabled": True}

    def test_every_kind_has_a_param_table(self):
        assert set(FAULT_KINDS) == {k.value for k in FaultKind}

    def test_misspelled_param_rejected(self):
        # the classic typo: 'losss' on a link-loss fault must not be
        # silently ignored, and the error must name the accepted params
        raw = _load_raw()
        raw["faults"] = [
            {"at": 0.2, "kind": "link-loss", "target": ["n0", "n1"],
             "losss": 0.5}
        ]
        with pytest.raises(
            ScenarioError, match=r"link-loss: unknown param\(s\) losss"
        ):
            Scenario.from_dict(raw)

    def test_attack_param_rejected_with_accepted_list(self):
        raw = _load_raw()
        raw["faults"] = [
            {"at": 0.2, "kind": "label-spoof", "target": ["n0"],
             "packet": 7}
        ]
        with pytest.raises(ScenarioError, match="accepted: .*packets"):
            Scenario.from_dict(raw)

    def test_attacks_require_the_security_key(self):
        raw = _load_raw()
        del raw["security"]
        with pytest.raises(ScenarioError, match="security"):
            Scenario.from_dict(raw)

    def test_bad_security_key_rejected(self):
        with pytest.raises(ScenarioError, match="^security: unknown key"):
            _run({"security": {"enabled": True, "oops": 1}})

    def test_attacks_need_a_message_control_plane(self):
        with pytest.raises(ScenarioError, match="ldp-messages"):
            _run({"control": "ldp"})

    def test_spoof_target_must_be_an_edge(self):
        faults = [{"at": 0.25, "kind": "label-spoof", "target": ["n1"]}]
        with pytest.raises(ScenarioError, match="trust boundary"):
            _run({"faults": faults})


class TestMitigatedOutcome:
    def test_every_attack_detected_and_mitigated(self, mitigated):
        attacks = mitigated["security"]["attacks"]
        assert len(attacks) == 4
        for attack in attacks:
            assert attack["detected_at"] is not None
            assert attack["mitigated_at"] is not None
            assert attack["time_to_detect_s"] > 0
            assert attack["time_to_mitigate_s"] >= attack["time_to_detect_s"]

    def test_blast_radius_is_zero(self, mitigated):
        security = mitigated["security"]
        assert security["enabled"] is True
        assert security["blast_radius_total"] == 0
        assert security["blast_fecs_total"] == []
        for attack in security["attacks"]:
            assert attack["blast_radius_fecs"] == 0

    def test_spoofed_stacks_die_at_the_trust_boundary(self, mitigated):
        spoof = _attack(mitigated, "label-spoof")
        assert spoof["packets_rejected"] > 0
        assert spoof["packets_accepted"] == 0
        assert spoof["packets_leaked"] == 0
        assert (
            mitigated["security"]["guard_rejections"]
            == spoof["packets_rejected"]
        )

    def test_forged_shutdown_fails_authentication(self, mitigated):
        hijack = _attack(mitigated, "ldp-hijack")
        assert hijack["packets_rejected"] == 1
        assert hijack["packets_accepted"] == 0
        assert mitigated["security"]["auth_mismatches"] == 1

    def test_cross_connect_is_quarantined(self, mitigated):
        leak = _attack(mitigated, "xconnect-leak")
        # the poisoned entry was live until the next audit pass, so a
        # few packets leak inside the detection window...
        assert leak["packets_leaked"] > 0
        # ...but quarantine moves the victim FEC out of the blast
        assert leak["blast_fecs"] == []
        assert leak["quarantined_fecs"] == ["10.4.0.0/16"]
        quarantines = mitigated["security"]["quarantines"]
        assert len(quarantines) == 1
        assert quarantines[0]["fec"] == "10.4.0.0/16"
        assert quarantines[0]["leaked_to"] == "10.2.0.0/16"

    def test_flood_is_rate_limited(self, mitigated):
        flood = _attack(mitigated, "ttl-flood")
        assert flood["blast_radius_fecs"] == 0
        path = mitigated["security"]["exception_path"]
        assert path["total"] == 1200  # every flood packet expired
        assert path["forwarded"] + path["limited"] == path["total"]
        assert path["limited"] > 0
        # the bounded FIFO never starved: no session was torn down
        assert mitigated["overload"]["holds_expired"] == 0


class TestUnmitigatedOutcome:
    def test_attacks_run_blind(self, unmitigated):
        security = unmitigated["security"]
        assert security["enabled"] is False
        for attack in security["attacks"]:
            assert attack["detected_at"] is None
            assert attack["mitigated_at"] is None

    def test_every_attack_has_blast(self, unmitigated):
        security = unmitigated["security"]
        assert security["blast_radius_total"] > 0
        for attack in security["attacks"]:
            assert attack["blast_radius_fecs"] > 0

    def test_spoofed_traffic_reaches_hosts(self, unmitigated):
        spoof = _attack(unmitigated, "label-spoof")
        assert spoof["packets_accepted"] > 0
        assert spoof["packets_leaked"] > 0
        assert unmitigated["security"]["guard_rejections"] == 0

    def test_forged_shutdown_tears_the_session(self, unmitigated):
        hijack = _attack(unmitigated, "ldp-hijack")
        assert hijack["packets_accepted"] == 1
        assert unmitigated["security"]["auth_mismatches"] == 0

    def test_cross_connect_leaks_vpn_traffic(self, unmitigated):
        leak = _attack(unmitigated, "xconnect-leak")
        assert leak["packets_leaked"] > 0
        assert leak["quarantined_fecs"] == []
        assert leak["blast_fecs"] == ["10.4.0.0/16"]
        assert unmitigated["security"]["quarantines"] == []

    def test_flood_starves_the_control_plane(self, unmitigated):
        path = unmitigated["security"]["exception_path"]
        assert path["limited"] == 0
        assert path["forwarded"] == path["total"]
        # unthrottled exception load starved keepalives in the FIFO
        assert unmitigated["overload"]["holds_expired"] > 0

    def test_mitigation_strictly_reduces_blast(self, mitigated, unmitigated):
        on = mitigated["security"]
        off = unmitigated["security"]
        assert on["blast_radius_total"] < off["blast_radius_total"]
        for on_attack, off_attack in zip(on["attacks"], off["attacks"]):
            assert on_attack["kind"] == off_attack["kind"]
            assert (
                on_attack["blast_radius_fecs"]
                < off_attack["blast_radius_fecs"]
            )


class TestReportStability:
    def test_mitigated_report_is_byte_stable(self, mitigated):
        assert _run().to_json() == mitigated.to_json()

    def test_unmitigated_report_is_byte_stable(self, unmitigated):
        off = {"security": {"enabled": False}}
        assert _run(off).to_json() == unmitigated.to_json()

    def test_different_seeds_differ(self, mitigated):
        assert _run(seed=8).to_json() != mitigated.to_json()

    def test_report_without_security_key_lacks_the_section(self):
        raw = _load_raw()
        del raw["security"]
        raw["faults"] = []  # attacks are what require the key
        raw["duration"] = 0.5
        with telemetry_session():
            report = run_scenario(Scenario.from_dict(raw), seed=7)
        assert "security" not in report.data

    def test_events_register_with_telemetry_off(self):
        # no telemetry_session(): the monitor's emit paths must not
        # blow up when the registry is dark
        report = run_scenario(Scenario.from_dict(_load_raw()), seed=7)
        assert report["security"]["blast_radius_total"] == 0
