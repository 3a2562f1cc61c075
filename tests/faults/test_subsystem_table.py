"""The subsystem contract: one row per optional scenario key, read by
the loader, ``build_run``, the finish step, ``summarize`` and ``repro
chaos``'s overrides.

Nothing outside the rows may gate on a subsystem: an AST lint over
``faults/chaos.py`` refuses a ``scenario.<key>`` read or a
``run.<subsystem> is not None`` test there.
"""

import ast
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

import repro.faults.chaos as chaos
from benchmarks.perf.workloads import ChaosObs, CtrlChurn, FwdScalar
from repro.cli import QUICKSTART, main
from repro.faults import ChaosRun, Scenario, ScenarioError, build_run
from repro.faults.scenario import (
    _TOPOLOGIES,
    FAULT_KINDS,
    ProtectionSpec,
    RandomFaultSpec,
)
from repro.faults.subsystems import (
    FLAGS,
    KIND_KEYS,
    SUBSYSTEM_KEYS,
    SUBSYSTEMS,
    Flows,
    Subsystem,
)
from repro.obs import telemetry_session

ROOT = Path(__file__).resolve().parents[2]
FAULTS_DATA = Path(__file__).parent / "data"

#: the Scenario fields that are not subsystem keys
CORE_FIELDS = {
    "name", "topology", "traffic", "description", "edges", "hardware",
    "control", "duration", "protection", "faults",
    "random_faults",
}
#: the ChaosRun attributes that hold no subsystem
CORE_RUN = {
    "scenario", "seed", "network", "injector", "sources", "control",
    "schedule", "telemetry", "armed",
}
#: scenario key -> the report sections arming it adds
SECTIONS = {
    "topo": {"convergence"},
    "security": {"security"},
    "controller": {"controller"},
    "audit": {"audit"},
    "oam": {"oam"},
    "overload": {"overload"},
    "flows": {"flows"},
    "alerts": {"flows", "alerts"},
}
BASE = {
    "name": "table", "topology": {"kind": "paper_figure1"},
    "control": "ldp-messages", "duration": 0.3,
    "traffic": [{"ingress": "ler-a", "egress": "ler-b",
                 "prefix": "10.2.0.0/16", "src": "10.1.0.5",
                 "dst": "10.2.0.9"}],
}


def test_scenario_fields_and_rows_match_one_to_one():
    fields = {f.name for f in dataclasses.fields(Scenario)} - CORE_FIELDS
    assert sorted(SUBSYSTEM_KEYS) == sorted(fields)
    assert len(set(SUBSYSTEM_KEYS)) == len(SUBSYSTEM_KEYS)
    assert [sub.key for sub in SUBSYSTEMS] == [
        "topo", "security", "controller", "audit", "oam", "overload",
        "flows",
    ]
    assert set(SECTIONS) == set(SUBSYSTEM_KEYS)


def test_rows_are_in_construction_order():
    stages = ["network", "sources", "injector"]
    order = [stages.index(sub.after) for sub in SUBSYSTEMS]
    assert order == sorted(order)


@pytest.mark.parametrize("key", sorted(SECTIONS))
def test_a_section_is_present_iff_its_key_is_set(key):
    every = set().union(*SECTIONS.values())
    raw = dict(BASE, **{key: {}})
    if key == "alerts":
        raw["flows"] = {}
    with telemetry_session():
        armed = chaos.run_scenario(Scenario.from_dict(raw), seed=3)
        plain = chaos.run_scenario(Scenario.from_dict(BASE), seed=3)
    assert every & set(armed.data) == SECTIONS[key]
    assert every & set(plain.data) == set()


def test_the_override_flags_are_the_rows_flags(capsys):
    assert {f"--{name}" for name in FLAGS} == {
        "--audit", "--overload", "--mitigation", "--controller",
    }
    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name, sub in FLAGS.items():
        shape = "{on,off}" if sub.flag.switch else "PERIOD"
        assert f"--{name} {shape} {' '.join(sub.flag.help.split())}" in text


def test_an_override_arms_its_row(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(BASE))
    assert main(["chaos", str(path), "--audit", "0.1", "--overload", "off"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["audit"]["passes"] > 0
    assert report["overload"]["enabled"] is False


def test_the_traceroute_section_is_read_last(monkeypatch):
    """oam's section traceroutes a broken LSP, which runs the scheduler
    past the horizon; here a storm still queued then would move the
    overload section if it were read after."""
    raw = json.loads((ROOT / "examples" / "chaos_signaling_storm.json").read_text())
    raw.update(duration=0.6, oam={}, faults=[
        {"at": 0.45, "kind": "node-crash", "target": ["n2"]},
        {"at": 0.5, "kind": "signaling-storm", "target": ["n0"],
         "mappings": 2000, "hellos": 100},
    ])
    with telemetry_session():
        report = chaos.run_scenario(Scenario.from_dict(raw), seed=7)
    assert all("localized_path" in fec for fec in report["oam"]["fecs"])
    monkeypatch.setattr(type(FLAGS["overload"]), "traces", True)
    with telemetry_session():
        after = chaos.run_scenario(Scenario.from_dict(raw), seed=7)
    assert after["oam"] == report["oam"]
    assert after["overload"] != report["overload"]


def test_kind_keys_are_a_view_of_the_rows():
    assert KIND_KEYS == {
        sub.key: sub.kinds for sub in SUBSYSTEMS if sub.kinds is not None
    }
    assert sorted(KIND_KEYS) == ["controller", "security"]


def test_list_faults_pin_still_holds(capsys):
    assert main(["chaos", "--list-faults"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    pin = (FAULTS_DATA / "list_faults.sha256").read_text()
    assert pin == f"{digest}  list-faults.txt\n"


# -- the census: a key exists only where a workload sets it ---------------------
#: every scenario document a workload runs: the quickstart, each example,
#: and the generated scenarios of the benchmark workloads that run one,
#: at the two seeds the benchmark runs them at
WORKLOADS = [QUICKSTART] + [
    json.loads(path.read_text())
    for path in sorted((ROOT / "examples").glob("*.json"))
] + [
    workload.generate(seed, 1.0)["scenario"]
    for workload in (FwdScalar(), CtrlChurn(), ChaosObs())
    for seed in (7, 11)
]


def _accepted(where, parse):
    """The keys ``parse`` accepts, read off its refusal of an unknown
    one, each as ``<where>.<key>``."""
    with pytest.raises(ScenarioError) as refused:
        parse({"?": 1})
    listed = re.search(r"\(accepted: (.*)\)$", str(refused.value)).group(1)
    return {f"{where}.{key}" for key in listed.split(", ")}


def _set_by(document):
    """Every subsystem, alert-rule and ``random_faults`` key a scenario
    document sets, named like :func:`_accepted`'s."""
    found = set()
    for key in (*SUBSYSTEM_KEYS, "random_faults"):
        found |= {f"{key}.{field}" for field in document.get(key) or {}}
    for rule in (document.get("alerts") or {}).get("rules", []):
        found |= {f"alerts.rules[].{field}" for field in rule}
    return found


def test_every_accepted_key_is_set_by_some_workload():
    """A key no workload or ``repro chaos`` flag sets only ever holds
    its default: it is a constant, not a key."""
    # flows armed, so the carried alerts key can be set on a copy
    scenario = Scenario.from_dict(dict(BASE, flows={}))
    accepted = _accepted("random_faults", RandomFaultSpec.from_dict)
    for sub in SUBSYSTEMS:
        accepted |= _accepted(sub.key, lambda raw: sub.parse(raw, scenario))
        for key in sub.carries:
            carried = dataclasses.replace(scenario, **{key: {"?": 1}})
            accepted |= _accepted(key, lambda raw: sub.parse({}, carried))
    accepted |= _accepted("alerts.rules[]", lambda raw: Flows().parse(
        {}, dataclasses.replace(scenario, alerts={"rules": [raw]})))
    set_by = set().union(*map(_set_by, WORKLOADS)) | {
        f"{sub.key}.{sub.flag.field}" for sub in FLAGS.values()
    }
    assert sorted(accepted - set_by) == []
    # 13 subsystem-object keys, 5 alert-rule keys, alerts.rules, and
    # 4 random_faults keys
    assert len(accepted) == 23


def _run_by(document):
    """Every fault param, protection field, topology kind and topology
    argument a scenario document sets, and each ``kind x control`` it
    runs."""
    found = set()
    for fault in document.get("faults", []):
        found |= {f"{fault['kind']}.{name}" for name in fault
                  if name not in ("kind", "at", "heal_at", "target")}
        found.add(f"{fault['kind']} x {document.get('control', 'ldp')}")
    for kind in (document.get("random_faults") or {}).get("kinds", []):
        found.add(f"{kind} x {document.get('control', 'ldp')}")
    for entry in document.get("protection", []):
        found |= {f"protection[].{field}" for field in entry}
    topology = dict(document.get("topology", {}))
    found.add(f"topology.kind={topology.pop('kind', 'paper_figure1')}")
    found |= {f"topology.{arg}" for arg in topology}
    return found


def test_every_fault_param_topology_and_control_is_run_by_some_workload():
    """A fault param, protection field, topology kind or argument no
    workload sets, or a control plane a fault kind accepts but no
    workload runs it under, only ever holds its default: a constant,
    and the code only another value reached is dead.  A row's
    ``draw_params`` set its params: the randomized schedule draws
    them."""
    accepted = {
        f"{kind.value}.{name}"
        for kind, row in FAULT_KINDS.items() for name in row.params
    } | {
        f"{kind.value} x {control}"
        for kind, row in FAULT_KINDS.items() for control in row.controls
    } | {
        f"protection[].{field.name}"
        for field in dataclasses.fields(ProtectionSpec)
    } | {f"topology.kind={kind}" for kind in _TOPOLOGIES} | {
        f"topology.{arg}" for _, args in _TOPOLOGIES.values() for arg in args
    }
    set_by = set().union(*map(_run_by, WORKLOADS)) | {
        f"{kind.value}.{name}"
        for kind, row in FAULT_KINDS.items() for name in row.draw_params
    }
    assert sorted(accepted - set_by) == []
    # 13 fault params, 8 kind x control pairs, 4 protection fields, 2
    # topology kinds and 3 topology arguments
    assert len(accepted) == 30


def test_every_flag_has_a_pinned_ci_leg():
    """The census counts a flag as a setter, so each ``FLAGS`` row needs
    a ``determinism-smoke`` leg whose report is pinned: one
    ``<scenario>.<flag>-<value>.report.json`` line of
    ``chaos_reports.sha256``.  The workflow is read by regex (PyYAML is
    not a test dependency)."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = re.search(
        r"^  determinism-smoke:\n(.*?)(?=^  \S)", workflow, re.M | re.S
    ).group(1)
    legs = re.findall(
        r'^\s+- \{scenario: ([\w-]+), flag: "--([\w-]+) ([^"]+)"\}', job,
        re.M,
    )
    pins = {
        line.split()[1]
        for line in (FAULTS_DATA / "chaos_reports.sha256").read_text()
        .splitlines()
    }
    pinned = {
        name for scenario, name, value in legs
        if f"{scenario}.{name}-{value}.report.json" in pins
    }
    assert sorted(FLAGS) == sorted(pinned)


class TestRowShape:
    """A row without ``parse``, ``build`` or ``section`` fails when its
    class is made, not when a scenario first arms it."""

    @pytest.mark.parametrize("missing", ["parse", "build", "section"])
    def test_a_row_missing_a_hook_fails_at_class_creation(self, missing):
        body = {"key": "broken", "after": "injector"}
        body.update({hook: lambda *args: None
                     for hook in ("parse", "build", "section")
                     if hook != missing})
        with pytest.raises(TypeError, match=f"'broken' has no {missing}"):
            type("Broken", (Subsystem,), body)


class TestRefusedBeforeAnythingIsBuilt:
    """A subsystem value no run can mean is refused by the row's parser
    before the network exists, so nothing is scheduled or hooked to the
    telemetry."""

    @pytest.mark.parametrize("key,config", [
        ("audit", {"period": 0}),
        ("oam", {"timeout": 100}),
        ("flows", {"capacity": 0}),
        ("topo", {"snapshot_every": "x"}),
        ("overload", {"enabled": "x"}),
        ("security", {"enabled": "x"}),
        ("controller", {"enabled": "x"}),
    ])
    def test_refused_before_the_network(self, key, config, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the network was built")

        monkeypatch.setattr(chaos.MPLSNetwork, "__init__", built)
        scenario = Scenario.from_dict(dict(BASE, **{key: config}))
        with pytest.raises(ScenarioError, match=f"^{key}: bad "):
            build_run(scenario)


# -- the lint ------------------------------------------------------------------
SUBSYSTEM_ATTRS = {
    f.name for f in dataclasses.fields(ChaosRun)
} - CORE_RUN


def gates(source):
    """``scenario.<key>`` reads and ``run.<subsystem> is not None`` tests
    in ``source``, as (line, text)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "scenario"
            and node.attr in SUBSYSTEM_KEYS
        ):
            found.append((node.lineno, ast.unparse(node)))
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Attribute)
            and isinstance(node.left.value, ast.Name)
            and node.left.value.id == "run"
            and node.left.attr in SUBSYSTEM_ATTRS
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_subsystem_is_gated_outside_its_row():
    assert gates(Path(chaos.__file__).read_text()) == []


def test_cmd_chaos_names_no_subsystem():
    """The overrides come from the rows: ``cmd_chaos`` names no key or
    flag itself."""
    import repro.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text())
    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "cmd_chaos"]
    names = set(SUBSYSTEM_KEYS) | set(FLAGS)
    assert not [
        ast.unparse(node) for node in ast.walk(body)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.arg) and node.arg in names
        or isinstance(node, ast.Constant) and node.value in names
    ]


def test_the_lint_sees_a_gate():
    assert sorted(gates(
        "if run.oam is not None and scenario.flows:\n    pass\n"
    )) == [(1, "run.oam is not None"), (1, "scenario.flows")]
