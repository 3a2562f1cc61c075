"""``--compare A.json B.json``: did B get worse than A?

One row per workload and end-to-end metric with both medians, their
quartiles, the ratio B/A (base: A) and a verdict against the bound that
``BENCHMARK.json`` fixes for the metric:

``ok``
    B's median is no worse than A's by more than the bound.
``regress``
    it is worse by more than the bound.
``unresolved``
    the repetition-to-repetition spread of either side is wider than
    the bound, so the medians cannot settle it -- unless every
    repetition of one side beats every repetition of the other.

Counts that must repeat exactly (scheduler events, cache statistics,
pinned facts) are compared for identity.  Exits 1 on any ``regress`` or
``differs``, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.perf import harness

#: per-layer metrics that are counts of the simulated system, not times
EXACT_LAYER_METRICS = (
    "hdl.settle_passes_per_cycle", "net.sched_events",
    "net.events_per_packet", "mpls.cache_hit_ratio",
    "mpls.cache_invalidations", "control.mldp_messages",
    "obs.events_emitted", "obs.span_count",
)


class CompareError(ValueError):
    """A result file is missing, malformed or not comparable."""


def _load(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CompareError(f"cannot read result file {path}: {exc}")
    if not isinstance(result, dict) or not (
        {"fingerprint", "workloads"} <= set(result)
    ):
        raise CompareError(f"{path} is not a suite result file")
    return result


def _spread(record: Dict[str, Any], metric: str) -> float:
    quartiles = record.get("quartiles", {}).get(metric)
    if not quartiles or not quartiles[1]:
        return 0.0  # a single reading (peak_rss_mb, fail_ratio)
    return (quartiles[2] - quartiles[0]) / quartiles[1]


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], metric: Dict[str, Any]
) -> Tuple[str, float]:
    """(verdict, B/A) for one workload's records and one declared metric."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    med_a, med_b = a["metrics"][name], b["metrics"][name]
    ratio = med_b / med_a if med_a else float("inf")
    worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
    if max(_spread(a, name), _spread(b, name)) > bound:
        runs_a = a["samples"][name]
        runs_b = b["samples"][name]
        if lower:
            b_wins = max(runs_b) < min(runs_a)
            a_wins = max(runs_a) < min(runs_b)
        else:
            b_wins = min(runs_b) > max(runs_a)
            a_wins = min(runs_a) > max(runs_b)
        if b_wins:
            return "ok", ratio
        if a_wins and worse_by > bound:
            return "regress", ratio
        return "unresolved", ratio
    return ("regress" if worse_by > bound else "ok"), ratio


def _fmt_quartiles(record: Dict[str, Any], name: str) -> str:
    quartiles = record.get("quartiles", {}).get(name)
    if not quartiles:
        return "-"
    return f"{quartiles[0]:.4g}..{quartiles[2]:.4g}"


def compare(
    a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[List[str], int]:
    """Rendered rows and the number of regress/differs verdicts."""
    for key in ("seed", "scale"):
        if a["fingerprint"].get(key) != b["fingerprint"].get(key):
            raise CompareError(
                f"the two sets differ in {key}: "
                f"{a['fingerprint'].get(key)} vs {b['fingerprint'].get(key)}"
            )
    rows = [
        f"{'workload':14s} {'metric':12s} {'A median':>11s} "
        f"{'A quartiles':>20s} {'B median':>11s} {'B quartiles':>20s} "
        f"{'B/A':>7s} {'bound':>6s}  verdict"
    ]
    bad = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        rec_a: Optional[Dict[str, Any]] = a["workloads"].get(name)
        rec_b: Optional[Dict[str, Any]] = b["workloads"].get(name)
        if rec_a is None or rec_b is None:
            raise CompareError(f"workload {name} is missing from a set")
        for metric in spec["end_to_end"]:
            outcome, ratio = verdict(rec_a, rec_b, metric)
            bad += outcome == "regress"
            key = metric["name"]
            rows.append(
                f"{name:14s} {key:12s} {rec_a['metrics'][key]:11.5g} "
                f"{_fmt_quartiles(rec_a, key):>20s} "
                f"{rec_b['metrics'][key]:11.5g} "
                f"{_fmt_quartiles(rec_b, key):>20s} "
                f"{ratio:7.3f} {metric['bound']:6.2f}  {outcome}"
            )
        fail_a = rec_a["metrics"]["fail_ratio"]
        fail_b = rec_b["metrics"]["fail_ratio"]
        outcome = "regress" if fail_b > fail_a else "ok"
        bad += outcome == "regress"
        rows.append(
            f"{name:14s} {'fail_ratio':12s} {fail_a:11.5g} {'-':>20s} "
            f"{fail_b:11.5g} {'-':>20s} {'-':>7s} {0:6.2f}  {outcome}"
        )
        exact_a = {k: rec_a["per_layer"].get(k) for k in EXACT_LAYER_METRICS}
        exact_b = {k: rec_b["per_layer"].get(k) for k in EXACT_LAYER_METRICS}
        moved = sorted(k for k in exact_a if exact_a[k] != exact_b[k])
        if rec_a["facts"] != rec_b["facts"]:
            moved.append("pinned facts")
        bad += bool(moved)
        rows.append(
            f"{name:14s} {'exact counts':12s} "
            + ("same" if not moved else "differs: " + ", ".join(moved))
        )
    return rows, bad


def main(path_a: str, path_b: str) -> int:
    try:
        rows, bad = compare(
            _load(path_a), _load(path_b), harness.load_spec()
        )
    except CompareError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print("\n".join(rows))
    print(f"ratios are B/A with A = {path_a} as the base")
    return 1 if bad else 0
