"""The deterministic CLI outputs, pinned.

``repro stats`` (Table 6 under the cycle profiler, per-state residency
of every control FSM, the quickstart scenario's metrics), ``repro
table6``, ``repro worst-case`` (the 6167-cycle composite), ``repro
figures`` (the Figure 14-16 lookups), ``repro hw-vs-sw`` (the
per-swap hardware/software comparison), ``repro throughput`` (the
worst-case label-switching rates) and ``repro device`` (the FPGA memory
budget) print the same bytes on every run, and so does ``repro trace``
(the quickstart's event stream, 1 094 JSON lines).
``data/cli_outputs.sha256`` (``sha256sum -c`` format, one
``<command>.txt`` per line, plus ``trace.jsonl``) was computed with the
``src/`` of the commit before a state became a method for the first
four, with the ``src/`` of the commit before ILM and FTN became one
table for the next three, and with the ``src/`` of the commit before
the quickstart became a scenario for ``trace.jsonl``; CI's
``perf-smoke`` job checks the same file with ``sha256sum -c``.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from tests.obs.test_span_export_pins import _fresh_counters

PIN_FILE = Path(__file__).parent / "data" / "cli_outputs.sha256"
COMMANDS = (
    "stats", "table6", "worst-case", "figures", "hw-vs-sw", "throughput",
    "device",
)


def _pins():
    lines = PIN_FILE.read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_parent_commit(command, capsys):
    assert main([command]) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == _pins()[f"{command}.txt"]


def test_the_event_stream_matches_the_parent_commit(capsys):
    # packet uids and flow ids are in the stream: start them where a
    # fresh process does
    _fresh_counters()
    assert main(["trace"]) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == _pins()["trace.jsonl"]


def test_every_pin_is_recomputed():
    assert sorted(_pins()) == sorted(
        [*(f"{command}.txt" for command in COMMANDS), "trace.jsonl"]
    )
