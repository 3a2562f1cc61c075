"""The whole suite: every workload in its own fresh interpreter.

Each workload is run twice as a child process of this one -- untraced
for the end-to-end metrics, traced for the per-layer ones -- and the
children's full records (raw per-repetition samples included) are merged
with a machine fingerprint into one result file, the input of
``--compare``.  ``--rebaseline`` uses the same children to rewrite
``expected.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

from benchmarks.perf import harness
from benchmarks.perf.workloads import WORKLOADS

#: the seeds whose outputs are pinned: 7 is the default, 11 is held out
PINNED_SEEDS = (7, 11)


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def fingerprint(seed: int, scale: float, seconds: float) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }


def _child(
    workload: str, seed: int, seconds: float, scale: float, trace: int,
    quiet: bool = False,
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; return its full record.
    ``quiet`` drops the child's failed-check lines (a rebaseline expects
    the old pins to fail)."""
    detail = os.path.join(
        harness.OUT_DIR, f"detail_{workload}_{trace}.json"
    )
    subprocess.run(
        [sys.executable, harness.HERE, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--scale", str(scale), "--trace", str(trace), "--detail", detail],
        cwd=harness.ROOT, check=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL if quiet else None, timeout=600,
    )
    with open(detail, encoding="utf-8") as handle:
        record = json.load(handle)
    os.remove(detail)
    return record


def run(
    spec: Dict[str, Any], seed: int, seconds: float, scale: float,
    out: Optional[str],
) -> int:
    result: Dict[str, Any] = {
        "fingerprint": fingerprint(seed, scale, seconds),
        "workloads": {},
        "warnings": [],
    }
    failed = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        record = _child(name, seed, seconds, scale, trace=0)
        print("\n".join(harness.describe(record)), flush=True)
        traced = _child(name, seed, seconds, scale, trace=1)
        record["per_layer"] = traced["metrics"]
        record["span_self_time_s"] = traced["span_self_time_s"]
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        record["failures"] += traced["failures"]
        record["metrics"]["fail_ratio"] = (
            record["failed"] / record["attempted"]
        )
        shares = {
            key[len("share."):]: value
            for key, value in traced["metrics"].items()
            if key.startswith("share.")
        }
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print(
            "  shares       "
            + "  ".join(f"{k} {v:.0%}" for k, v in top)
            + f"  (traced run {traced['metrics']['trace.overhead_ratio']:.2f}x"
            " slower; never compare traced times)",
            flush=True,
        )
        if record["busy"]:
            result["warnings"].append(
                f"{name}: run_s / run_cpu_s > {harness.BUSY_RATIO} -- the "
                "box was busy, rerun"
            )
        failed += record["failed"]
        result["workloads"][name] = record
    path = out or os.path.join(harness.OUT_DIR, "result.json")
    write_json(path, result)
    for warning in result["warnings"]:
        print(f"warning: {warning}")
    print(f"result file: {path}")
    return 1 if failed else 0


def rebaseline(scale: float) -> int:
    """Rewrite ``expected.json``; refuse if any output failed to repeat
    inside one process."""
    pins: Dict[str, Dict[str, Any]] = {}
    unstable: List[str] = []
    for name in WORKLOADS:
        pins[name] = {}
        for seed in PINNED_SEEDS:
            # as short as a run gets: warm-up + the minimum repetitions
            record = _child(
                name, seed, seconds=0.0, scale=scale, trace=0, quiet=True
            )
            print(f"{name} seed {seed}: {record['facts']}", flush=True)
            if not record["repeatable"]:
                unstable.append(f"{name} seed {seed}")
            pins[name][str(seed)] = record["facts"]
    if unstable:
        sys.stderr.write(
            "error: outputs differed between repetitions of one process, "
            f"expected.json left alone: {', '.join(unstable)}\n"
        )
        return 1
    write_json(harness.EXPECTED_PATH, {"scale": scale, "facts": pins})
    print(f"wrote {harness.EXPECTED_PATH}")
    return 0
