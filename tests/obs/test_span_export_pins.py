"""Span and event exports pinned against the commit before the phase
batch (PR 23).

CI's ``spans-smoke`` compares two runs of the *same* commit, so a span
that is built lazily and differs from the one the eager fold built
passes it.  ``data/span_exports.sha256`` (``sha256sum -c`` format) was
computed on the parent commit; these tests recompute every digest:

* ``<example>.perfetto.json`` -- ``repro spans <example> --seed 7
  --sample-rate 1.0 --export`` (no event-retaining sink: the batched
  path end to end),
* ``<example>.spans.jsonl`` / ``<example>.events.jsonl`` -- a run with
  a :class:`JSONLSink` *and* a recorder attached, the only
  configuration in which ``hw-op`` lines reach a file (the per-event
  path beside the batched one); its Perfetto bytes must equal the
  first run's.
"""

import hashlib
import io
import itertools
from pathlib import Path

import pytest

import repro.net.packet as packet_mod
import repro.net.traffic as traffic_mod
from repro.cli import main
from repro.faults import Scenario, run_scenario
from repro.obs import telemetry_session
from repro.obs.events import JSONLSink
from repro.obs.spans import export_chrome_trace, spans_to_jsonl

ROOT = Path(__file__).resolve().parents[2]
PIN_FILE = Path(__file__).parent / "data" / "span_exports.sha256"
EXAMPLES = ("chaos_spans", "chaos_hw_scrub")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pins():
    pins = {}
    for line in PIN_FILE.read_text().splitlines():
        digest, name = line.split("  ", 1)
        pins[name] = digest
    return pins


def _fresh_counters():
    """Packet uids and flow ids are process-global; start both where a
    fresh ``python -m repro`` process starts them."""
    packet_mod._packet_ids = itertools.count(1)
    traffic_mod._flow_counter = iter(range(1, 1 << 31))


def exports(example: str, tmp_path: Path):
    """name -> digest for every pinned artifact of one example."""
    scenario_path = str(ROOT / "examples" / f"{example}.json")
    perfetto = tmp_path / f"{example}.perfetto.json"
    _fresh_counters()
    assert main([
        "spans", scenario_path, "--seed", "7", "--sample-rate", "1.0",
        "--export", str(perfetto),
    ]) == 0
    events = io.StringIO()
    _fresh_counters()
    with telemetry_session() as tel:
        tel.events.add_sink(JSONLSink(events))
        report = run_scenario(
            Scenario.load(scenario_path), seed=7, sample_rate=1.0
        )
    traces = report.recorder.traces()
    spans, again = io.StringIO(), io.StringIO()
    spans_to_jsonl(traces, spans)
    export_chrome_trace(traces, again)
    assert again.getvalue().encode() == perfetto.read_bytes()
    assert '"kind": "hw-op"' in events.getvalue()
    return {
        f"{example}.perfetto.json": _digest(perfetto.read_bytes()),
        f"{example}.spans.jsonl": _digest(spans.getvalue().encode()),
        f"{example}.events.jsonl": _digest(events.getvalue().encode()),
    }


@pytest.mark.parametrize("example", EXAMPLES)
def test_exports_match_the_parent_commit(example, tmp_path, capsys):
    pins = _pins()
    got = exports(example, tmp_path)
    assert got == {name: pins[name] for name in got}


def test_every_pin_is_recomputed():
    assert sorted(_pins()) == sorted(
        f"{example}.{suffix}"
        for example in EXAMPLES
        for suffix in ("perfetto.json", "spans.jsonl", "events.jsonl")
    )
