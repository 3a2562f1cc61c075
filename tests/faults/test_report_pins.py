"""Chaos reports pinned against the commit before the subsystem table.

``data/chaos_reports.sha256`` (``sha256sum -c`` format) holds the
digest of ``repro chaos <example> --seed 7`` for every
``examples/chaos_*.json``, plus four override baselines; it was
computed with the ``src/`` of the commit before ``build_run``, the
finalize ladder, the gated report sections and the CLI overrides read
one table.  A pin is named ``<example>.report.json``, or
``<example>.<flag>-<value>.report.json`` for a run with ``--<flag>
<value>``.  CI's ``determinism-smoke`` job checks the same file with
``sha256sum -c``.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
PIN_FILE = Path(__file__).parent / "data" / "chaos_reports.sha256"


def _pins():
    pins = {}
    for line in PIN_FILE.read_text().splitlines():
        digest, name = line.split("  ", 1)
        pins[name] = digest
    return pins


def _argv(name):
    """``repro chaos`` arguments for one pin name."""
    example, _, override = name[: -len(".report.json")].partition(".")
    argv = ["chaos", str(ROOT / "examples" / f"{example}.json"), "--seed", "7"]
    if override:
        flag, value = override.split("-", 1)
        argv += [f"--{flag}", value]
    return argv


@pytest.mark.parametrize("name", sorted(_pins()))
def test_report_matches_the_parent_commit(name, capsys):
    assert main(_argv(name)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _pins()[name]


def test_every_example_and_override_is_pinned():
    examples = {path.stem for path in (ROOT / "examples").glob("chaos_*.json")}
    assert sorted(_pins()) == sorted(
        [f"{example}.report.json" for example in examples]
        + [
            "chaos_signaling_storm.overload-off.report.json",
            "chaos_security.mitigation-off.report.json",
            "chaos_controller.controller-off.report.json",
            "chaos_smoke.audit-0.05.report.json",
        ]
    )
