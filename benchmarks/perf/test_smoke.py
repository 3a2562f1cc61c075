"""Smoke test of the benchmark itself (run explicitly, not in testpaths)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_smoke.py -q

Tiny inputs (``--scale 0.05``), the minimum repetitions, tiny probe
loops: it checks the harness's contract, not the program's speed.
"""

import json
import math
import re

import pytest

from benchmarks.perf import harness
from benchmarks.perf.workloads import WORKLOADS

SCALE = 0.05
SEED = 7
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    return harness.load_spec()


def _assert_line(line, declared):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"] for m in declared} == set(result["metrics"])
    for name, reading in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert reading["unit"], name
        assert math.isfinite(reading["value"]), name
    return result


def test_workloads_declared(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_names(spec, name):
    record = harness.measure(WORKLOADS[name], SEED, 0.0, SCALE)
    result = _assert_line(
        harness.result_line(record, spec["end_to_end"]), spec["end_to_end"]
    )
    assert result["failed"] == 0, record["failures"]
    assert result["correct"] is True
    assert all(r["value"] > 0 for r in result["metrics"].values())


def test_per_layer_names(spec):
    # the per-layer set is the same whichever workload is traced
    record = harness.trace(WORKLOADS["fwd_batched"], SEED, SCALE)
    result = _assert_line(
        harness.result_line(record, spec["per_layer"]), spec["per_layer"]
    )
    assert result["failed"] == 0, record["failures"]
    shares = [
        r["value"] for n, r in result["metrics"].items()
        if n.startswith("share.")
    ]
    assert len(shares) == 13 and sum(shares) == pytest.approx(1.0)


def test_corrupt_pin_fails(spec, monkeypatch):
    workload = WORKLOADS["rtl_worstcase"]
    pins = {workload.name: {}}
    monkeypatch.setattr(
        harness, "load_expected", lambda: {"scale": SCALE, "facts": pins}
    )
    honest = harness.measure(workload, SEED, 0.0, SCALE)
    pins[workload.name][str(SEED)] = dict(honest["facts"])
    assert harness.measure(workload, SEED, 0.0, SCALE)["failed"] == 0
    pins[workload.name][str(SEED)]["cycles_sha256"] = "0" * 64
    corrupt = harness.measure(workload, SEED, 0.0, SCALE)
    assert corrupt["failed"] > 0
    assert corrupt["failed"] / corrupt["attempted"] > 0
    line = json.loads(harness.result_line(corrupt, spec["end_to_end"]))
    assert line["correct"] is False
