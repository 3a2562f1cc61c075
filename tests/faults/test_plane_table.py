"""The control-plane contract: one row per ``control`` value, read by
the loader, ``build_run``, the injector, the PCE, the security monitor,
the topology observer and ``summarize``.

Nothing outside the rows may branch on which plane runs: an AST lint
over ``src/repro`` refuses an ``ldp`` / ``message_ldp`` / ``frr`` None
test anywhere but ``faults/planes.py``.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.faults import ChaosRun, Scenario, ScenarioError, build_run
from repro.faults.planes import (
    CONTROL_PLANES,
    HOOKS,
    RESTART_HOOKS,
    ControlPlane,
)
from repro.faults.scenario import FAULT_KINDS, FaultKind

SRC = Path(repro.__file__).parent

FLOW = {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
        "src": "10.1.0.5", "dst": "10.2.0.9"}
#: what each ``control`` value's scenario needs besides its flow
EXTRA = {"frr": {"protection": [
    {"name": "p1", "ingress": "ler-a", "egress": "ler-b"}
]}}


def _scenario(control):
    return Scenario.from_dict({
        "name": "plane", "topology": {"kind": "paper_figure1"},
        "control": control, "duration": 0.2, "traffic": [dict(FLOW)],
        **EXTRA.get(control, {}),
    })


@pytest.mark.parametrize("control", ["ldp", "ldp-messages", "frr"])
def test_every_control_value_has_a_row(control):
    run = build_run(_scenario(control))
    assert type(run.control) is CONTROL_PLANES[control]
    assert run.control.control == control
    assert run.control.process is not None


def test_a_value_without_a_row_is_refused():
    assert sorted(CONTROL_PLANES) == ["frr", "ldp", "ldp-messages"]
    with pytest.raises(ScenarioError, match="unknown control plane 'rip'"):
        _scenario("rip")


def test_a_run_has_one_control_field():
    fields = {f.name for f in dataclasses.fields(ChaosRun)}
    assert "control" in fields
    assert not fields & {"ldp", "message_ldp", "frr"}


def test_every_kind_controls_entry_names_a_row():
    named = {c for row in FAULT_KINDS.values() for c in row.controls}
    assert named and named <= set(CONTROL_PLANES)


def test_a_restart_runs_only_under_a_row_with_the_restart_hooks():
    for control in FAULT_KINDS[FaultKind.NODE_RESTART].controls:
        row = CONTROL_PLANES[control]
        assert all(hook in vars(row) for hook in RESTART_HOOKS)


class TestRowShape:
    """A row without one of its hooks fails when its class is made, not
    when a scenario first runs it."""

    @staticmethod
    def _row(control, missing):
        body = {"control": control}
        body.update({hook: lambda *args: None
                     for hook in HOOKS + RESTART_HOOKS if hook != missing})
        return type("Broken", (ControlPlane,), body)

    @pytest.mark.parametrize("missing", HOOKS)
    def test_a_row_missing_a_hook_fails_at_class_creation(self, missing):
        with pytest.raises(TypeError, match=f"'rip' has no {missing}$"):
            self._row("rip", missing)

    @pytest.mark.parametrize("missing", RESTART_HOOKS)
    def test_a_restart_row_missing_a_restart_hook_fails(self, missing):
        with pytest.raises(TypeError, match=f"'ldp' has no {missing}$"):
            self._row("ldp", missing)
        # a row no graceful restart runs under needs none of them
        self._row("rip", missing)

    def test_a_whole_row_is_made(self):
        assert self._row("rip", None).control == "rip"


# -- the lint ------------------------------------------------------------------
PLANE_NAMES = {"ldp", "message_ldp", "frr"}


def plane_tests(source):
    """``<ldp|message_ldp|frr> is [not] None`` tests in ``source`` (a
    bare name or an attribute), as (line, text)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Compare)
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))):
            continue
        left = node.left
        name = (left.id if isinstance(left, ast.Name)
                else left.attr if isinstance(left, ast.Attribute) else None)
        if name in PLANE_NAMES:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_plane_is_branched_on_outside_its_row():
    found = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "faults" / "planes.py"
        and (hits := plane_tests(path.read_text()))
    }
    assert found == {}


def test_the_lint_sees_a_branch():
    assert plane_tests(
        "if self.frr is not None and ldp is None:\n    pass\n"
    ) == [(1, "self.frr is not None"), (1, "ldp is None")]
