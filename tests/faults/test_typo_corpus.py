"""A key no reader knows is refused in every object a scenario holds.

The corpus is generated from the committed ``examples/chaos_*.json``:
for each object a file holds -- the document, each traffic, fault and
protection entry, ``random_faults``, each subsystem key's object and
each alert rule -- one variant adds an unknown field, and
``Scenario.from_dict`` plus ``build_run`` must raise a
:class:`ScenarioError` naming it.  Everything runs in-process: each
variant is refused before the network is built.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.faults import Scenario, ScenarioError, build_run
from repro.faults.subsystems import SUBSYSTEM_KEYS, SUBSYSTEMS
from repro.obs import telemetry_session

EXAMPLES = {
    path.stem: json.loads(path.read_text())
    for path in sorted(
        (Path(__file__).resolve().parents[2] / "examples").glob("chaos_*.json")
    )
}
TYPO = "zz_typo"


def _objects(raw):
    """(label, path) of every object in the document ``raw``."""
    yield "document", ()
    for key in ("traffic", "faults", "protection"):
        for i in range(len(raw.get(key, []))):
            yield f"{key}[{i}]", (key, i)
    for key in ("random_faults", *SUBSYSTEM_KEYS):
        if key in raw:
            yield key, (key,)
    for i in range(len(raw.get("alerts", {}).get("rules", []))):
        yield f"alerts.rules[{i}]", ("alerts", "rules", i)


CASES = [
    pytest.param(name, path, id=f"{name}:{label}")
    for name, raw in EXAMPLES.items()
    for label, path in _objects(raw)
]


def test_the_corpus_covers_every_kind_of_object():
    assert len(EXAMPLES) == 11
    labels = {case.id.split(":")[1].split("[")[0] for case in CASES}
    assert labels == {
        "document", "traffic", "faults", "protection", "random_faults",
        *SUBSYSTEM_KEYS, "alerts.rules",
    }


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_the_examples_read_clean(name):
    scenario = Scenario.from_dict(EXAMPLES[name])
    for sub in SUBSYSTEMS:
        raw = getattr(scenario, sub.key)
        if raw is not None:
            sub.parse(raw, scenario)


@pytest.mark.parametrize("name,path", CASES)
def test_an_unknown_field_is_refused_by_name(name, path):
    raw = copy.deepcopy(EXAMPLES[name])
    node = raw
    for key in path:
        node = node[key]
    node[TYPO] = 1
    named = rf"unknown (key|param)\(s\) {TYPO} "
    with pytest.raises(ScenarioError, match=named), telemetry_session():
        build_run(Scenario.from_dict(raw))
