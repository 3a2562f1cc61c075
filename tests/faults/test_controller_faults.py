"""Scenario/CLI surface of the controller fault kinds.

``controller-crash`` and ``controller-partition`` follow the same
taxonomy discipline as every other kind: strict per-kind param
validation, a ``--list-faults`` entry, and the cross-field requirement
that controller faults come with a scenario ``controller`` key.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import _render_fault_kinds, cmd_chaos
from repro.faults import Scenario, ScenarioError, run_scenario
from repro.faults.scenario import CONTROLLER_KINDS, FAULT_PARAMS, FaultKind
from repro.obs import telemetry_session

BASE = {
    "name": "controller-validation",
    "topology": {"kind": "paper_figure1",
                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
    "control": "ldp",
    "duration": 0.4,
    "traffic": [
        {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
         "src": "10.1.0.5", "dst": "10.2.0.9",
         "rate_bps": 1e6, "packet_size": 500}
    ],
    "controller": {},
    "faults": [
        {"at": 0.1, "kind": "controller-crash",
         "target": ["controller"], "heal_at": 0.2},
    ],
}


def _scenario(**changes):
    raw = copy.deepcopy(BASE)
    raw.update(changes)
    return raw


class TestTaxonomy:
    def test_both_kinds_registered(self):
        assert FaultKind.CONTROLLER_CRASH in FAULT_PARAMS
        assert FaultKind.CONTROLLER_PARTITION in FAULT_PARAMS
        assert FaultKind.CONTROLLER_CRASH in CONTROLLER_KINDS
        assert FaultKind.CONTROLLER_PARTITION in CONTROLLER_KINDS

    def test_list_faults_renders_both(self):
        rendered = _render_fault_kinds()
        assert "controller-crash" in rendered
        assert "controller-partition" in rendered
        assert "[controller: needs a 'controller' key]" in rendered
        assert 'the literal "controller"' in rendered

    def test_list_faults_cli_exit_zero(self, capsys):
        assert cmd_chaos(None, list_faults=True) == 0
        out = capsys.readouterr().out
        assert "controller-crash" in out
        assert "controller-partition" in out


class TestValidation:
    @pytest.mark.parametrize(
        "kind", ["controller-crash", "controller-partition"]
    )
    def test_unknown_param_names_accepted_list(self, kind):
        target = ["controller"] if kind == "controller-crash" else ["lsr-1"]
        raw = _scenario(faults=[
            {"at": 0.1, "kind": kind, "target": target, "bogus": 1},
        ])
        with pytest.raises(
            ScenarioError,
            match=rf"{kind}: unknown param\(s\) bogus \(accepted: none\)",
        ):
            Scenario.from_dict(raw)

    def test_controller_faults_need_controller_key(self):
        raw = _scenario()
        del raw["controller"]
        with pytest.raises(
            ScenarioError,
            match=r"'controller-crash' faults need a 'controller' key",
        ):
            Scenario.from_dict(raw)

    def test_crash_must_target_the_controller(self):
        raw = _scenario(faults=[
            {"at": 0.1, "kind": "controller-crash",
             "target": ["lsr-1"], "heal_at": 0.2},
        ])
        with pytest.raises(
            ScenarioError,
            match=r'controller-crash targets the controller itself',
        ):
            with telemetry_session():
                run_scenario(Scenario.from_dict(raw), seed=0)

    def test_partition_must_target_a_known_node(self):
        raw = _scenario(faults=[
            {"at": 0.1, "kind": "controller-partition",
             "target": ["no-such-node"], "heal_at": 0.2},
        ])
        with pytest.raises(ScenarioError):
            with telemetry_session():
                run_scenario(Scenario.from_dict(raw), seed=0)

    def test_bad_controller_config_is_a_scenario_error(self):
        raw = _scenario(controller={"hold_tiem": 0.1})
        with pytest.raises(
            ScenarioError, match=r"^controller: unknown key\(s\) hold_tiem "
        ):
            with telemetry_session():
                run_scenario(Scenario.from_dict(raw), seed=0)


class TestSectionGatingAndCLI:
    def test_section_present_iff_controller_key(self):
        with telemetry_session():
            armed = run_scenario(Scenario.from_dict(_scenario()), seed=3)
        assert "controller" in armed.data

        raw = _scenario(faults=[])
        del raw["controller"]
        with telemetry_session():
            plain = run_scenario(Scenario.from_dict(raw), seed=3)
        assert "controller" not in plain.data

    def test_cli_controller_override(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(_scenario()))
        out_on = tmp_path / "on.json"
        out_off = tmp_path / "off.json"
        assert cmd_chaos(str(path), seed=5, output=str(out_on),
                         controller="on") == 0
        assert cmd_chaos(str(path), seed=5, output=str(out_off),
                         controller="off") == 0
        on = json.loads(out_on.read_text())["controller"]
        off = json.loads(out_off.read_text())["controller"]
        assert on["enabled"] is True and on["adoptions"] > 0
        assert off["enabled"] is False and off["adoptions"] == 0

    def test_delegation_is_what_keeps_the_example_from_blackholing(self):
        """On the example's seed, the stale flush without delegation
        blackholes FECs that delegation keeps forwarding."""
        raw = json.loads(
            (Path(__file__).parents[2] / "examples" / "chaos_controller.json")
            .read_text()
        )
        blackholed = {}
        for delegation in (True, False):
            raw["controller"] = {"delegation": delegation}
            with telemetry_session():
                report = run_scenario(Scenario.from_dict(raw), seed=7)
            blackholed[delegation] = report["controller"]["fecs_blackholed"]
        assert blackholed[True] == 0
        assert blackholed[False] > 0

    def test_dark_controller_faults_are_inert(self):
        """A controller fault against a dark (enabled=false) PCE heals
        immediately and orphans nothing."""
        raw = _scenario(controller={"enabled": False})
        with telemetry_session():
            report = run_scenario(Scenario.from_dict(raw), seed=3)
        ctl = report["controller"]
        assert ctl["failovers"] == []
        assert ctl["fecs_orphaned"] == 0
        assert ctl["fecs_blackholed"] == 0
