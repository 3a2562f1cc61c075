"""The benchmark harness's calls into ``src/repro``, checked in tier-1.

``benchmarks/perf`` is frozen: it imports ``repro`` names and calls
them, and a change to ``src/`` that deletes or renames one of them
breaks the harness only when it next runs.  ``tools/harness_contract.py``
reads the harness with ``ast`` and lists what it relies on -- each
call it can name with the parameters its arguments bind to, each
attribute it rebinds from outside, each ``python -m repro`` argv -- and
``tools/harness_contract.txt`` is that list, committed.  An import that
no longer resolves or a call that no longer binds is a problem here; a
renamed parameter moves a line of the list.  A name on the contract
that a simplification removes stays as the thinnest thing that binds,
with a docstring naming its harness line.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "harness_contract.py"
LIST = ROOT / "tools" / "harness_contract.txt"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("harness_contract", TOOL)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def contract(tool):
    return tool.walk()


def test_every_import_resolves_and_every_call_binds(contract):
    assert contract.problems == []


def test_the_contract_is_the_committed_list(contract):
    assert contract.sorted_lines() == LIST.read_text().splitlines()


def test_the_walk_sees_the_calls_the_harness_is_known_to_make(contract):
    seen = {line.split("  ", 1)[1] for line in contract.sorted_lines()}
    assert {
        "repro.control.ldp.LDPProcess(topology, nodes)",
        "repro.core.architecture.EmbeddedMPLS(role, backend)",
        "repro.net.network.MPLSNetwork.enable_batching()",
        "repro.faults.chaos.run_scenario(scenario, seed, batching)"
        " via _run_scenario_split",
        "repro.obs.telemetry.get_telemetry()",
        "repro.faults.chaos.build_run rebound, read by run_scenario",
        "repro chaos --seed --batching -o",
    } <= seen


# -- seeded mutants the contract must catch -------------------------------------
def test_a_deleted_method_is_a_problem(tool, monkeypatch):
    from repro.net.network import MPLSNetwork

    monkeypatch.delattr(MPLSNetwork, "enable_batching")
    assert tool.walk().problems == [
        "workloads.py:515: repro.net.network.MPLSNetwork has no method "
        "'enable_batching'"
    ]


def test_a_renamed_parameter_moves_a_line(tool, monkeypatch):
    from repro.control.ldp import LDPProcess

    init = LDPProcess.__init__

    def renamed(self, topology, routers):
        init(self, topology, routers)

    monkeypatch.setattr(LDPProcess, "__init__", renamed)
    contract = tool.walk()
    assert contract.problems == []
    lines = contract.sorted_lines()
    assert "probes.py:381  repro.control.ldp.LDPProcess(topology, routers)" in lines
    assert lines != LIST.read_text().splitlines()


def test_a_dropped_keyword_is_a_problem(tool, monkeypatch):
    from repro.faults import chaos

    original = chaos.run_scenario

    def run_scenario(scenario, seed=0, sample_rate=None):
        return original(scenario, seed, sample_rate)

    run_scenario.__module__ = original.__module__
    run_scenario.__qualname__ = original.__qualname__
    monkeypatch.setattr(chaos, "run_scenario", run_scenario)
    assert (
        "workloads.py:663: repro.faults.chaos.run_scenario via "
        "_run_scenario_split: got an unexpected keyword argument 'batching'"
    ) in tool.walk().problems


def test_a_flag_the_cli_dropped_is_a_problem(tool, monkeypatch):
    import repro.cli as cli

    rows = tuple(
        dataclasses.replace(row, args=tuple(
            spec for spec in row.args
            if spec is cli.OVERRIDES or "--batching" not in spec[0]
        )) if row.name == "chaos" else row
        for row in cli.COMMANDS
    )
    monkeypatch.setattr(cli, "COMMANDS", rows)
    assert tool.walk().problems == [
        "probes.py:699: repro chaos takes no --batching"
    ]
