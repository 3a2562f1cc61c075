"""Span and event exports pinned against the commits before spans were
built lazily.

CI's ``views-smoke`` job also compares two runs of the *same* commit,
and a span that is built lazily and differs from the one the eager fold
built passes that.  ``data/span_exports.sha256`` (``sha256sum -c``
format) was computed on the commit before each lazy step -- phase
batches, then hop records; these tests recompute every digest:

* ``<example>.perfetto.json`` / ``<example>.summary.txt`` -- the export
  and the printed summary of ``repro spans <example> --seed 7
  --sample-rate 1.0 --export`` (no event-retaining sink: the batched
  path end to end; the summary is what the recorder's store answers
  without building a span, bar the five slowest traces' paths),
* ``<example>.spans.jsonl`` / ``<example>.events.jsonl`` -- a run with
  a :class:`JSONLSink` *and* a recorder attached, the only
  configuration in which ``hw-op`` lines reach a file (the per-event
  path beside the batched one); its Perfetto bytes must equal the
  first run's,
* ``<run>.perfetto.json`` / ``<run>.summary.txt`` -- the export and the
  printed summary of the software-node runs in :data:`SOFTWARE`: label
  ops, sampled-out packets, fault notes on hops and a trace that is
  never delivered, which the hardware examples above do not have.

The two ``<example>.summary.txt`` digests were computed on the commit
before the recorder kept its traces as one compact store.
``quickstart.summary.txt`` alone was re-pinned when the quickstart
became a scenario the chaos harness runs: the harness labels a flow by
its FEC, so one line of the summary moved, and no other byte did::

    -    flow-1               p50=4.258ms  p95=4.258ms  p99=4.258ms
    +    10.2.0.0/16          p50=4.258ms  p95=4.258ms  p99=4.258ms
"""

import hashlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import Scenario, run_scenario
from repro.obs import telemetry_session
from repro.obs.events import JSONLSink
from repro.obs.spans import export_chrome_trace, spans_to_jsonl
from tests.strategies import fresh_ids

ROOT = Path(__file__).resolve().parents[2]
PIN_FILE = Path(__file__).parent / "data" / "span_exports.sha256"
EXAMPLES = ("chaos_spans", "chaos_hw_scrub")
#: pin name -> the ``repro spans`` arguments of a software-node run: the
#: quickstart (121 traces, a label op per hop) and chaos_smoke at rate
#: 0.25 (360 sampled out, 56 fault-annotated, one never delivered)
SOFTWARE = {
    "quickstart": ["spans", "--seed", "7"],
    "chaos_smoke.rate-0.25": [
        "spans", str(ROOT / "examples" / "chaos_smoke.json"), "--seed", "7",
        "--sample-rate", "0.25",
    ],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pins():
    pins = {}
    for line in PIN_FILE.read_text().splitlines():
        digest, name = line.split("  ", 1)
        pins[name] = digest
    return pins


def exports(example: str, tmp_path: Path, capsys):
    """name -> digest for every pinned artifact of one example."""
    scenario_path = str(ROOT / "examples" / f"{example}.json")
    perfetto = tmp_path / f"{example}.perfetto.json"
    fresh_ids()
    capsys.readouterr()
    assert main([
        "spans", scenario_path, "--seed", "7", "--sample-rate", "1.0",
        "--export", str(perfetto),
    ]) == 0
    summary = capsys.readouterr().out
    events = io.StringIO()
    fresh_ids()
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
        f"{example}.summary.txt": _digest(summary.encode()),
        f"{example}.spans.jsonl": _digest(spans.getvalue().encode()),
        f"{example}.events.jsonl": _digest(events.getvalue().encode()),
    }


@pytest.mark.parametrize("example", EXAMPLES)
def test_exports_match_the_parent_commit(example, tmp_path, capsys):
    pins = _pins()
    got = exports(example, tmp_path, capsys)
    assert got == {name: pins[name] for name in got}


@pytest.mark.parametrize("run", SOFTWARE)
def test_software_hops_match_the_parent_commit(run, tmp_path, capsys):
    perfetto = tmp_path / f"{run}.perfetto.json"
    fresh_ids()
    assert main([*SOFTWARE[run], "--export", str(perfetto)]) == 0
    summary = capsys.readouterr().out
    pins = _pins()
    assert _digest(perfetto.read_bytes()) == pins[f"{run}.perfetto.json"]
    assert _digest(summary.encode()) == pins[f"{run}.summary.txt"]


def test_every_pin_is_recomputed():
    assert sorted(_pins()) == sorted(
        [
            f"{example}.{suffix}"
            for example in EXAMPLES
            for suffix in (
                "perfetto.json", "summary.txt", "spans.jsonl", "events.jsonl",
            )
        ]
        + [
            f"{run}.{suffix}"
            for run in SOFTWARE
            for suffix in ("perfetto.json", "summary.txt")
        ]
    )
