"""One workload in this interpreter: repetitions, checks, metrics.

:func:`measure` is the untraced run that yields the end-to-end metrics;
:func:`trace` is the separate traced run that yields every per-layer
metric.  Both check the program's outputs on every repetition: the
workload's own invariants, that the seed-determined facts repeat
exactly, and -- for the pinned seeds and scale -- that they equal
``expected.json``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.perf import probes, tracing
from benchmarks.perf.workloads import Outcome, Region, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: everything the benchmark writes lands here (ignored by git)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: at least this many timed repetitions, however short ``--seconds`` is
MIN_REPETITIONS = 3
#: wall/CPU above this means the machine preempted us: rerun
BUSY_RATIO = 1.15

#: the timed end-to-end metrics, at reference machine speed
TIMED = ("setup_s", "run_s", "run_cpu_s")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load_expected() -> Dict[str, Any]:
    """``{"scale": s, "facts": {workload: {seed: facts}}}``, the pinned
    outputs and the input scale they were taken at."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:  # before the first --rebaseline
        return {"scale": None, "facts": {}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Checker:
    """Counts output checks; remembers the facts every repetition must
    reproduce."""

    pinned: Optional[Dict[str, Any]]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    reference: Optional[Dict[str, Any]] = None
    #: False once two repetitions of this process disagreed
    repeatable: bool = True

    def _check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(name)

    def judge(self, outcome: Outcome, label: str) -> None:
        for name, passed in outcome.checks:
            self._check(f"{label}: {name}", passed)
        if self.reference is None:
            self.reference = outcome.facts
        else:
            same = outcome.facts == self.reference
            self.repeatable = self.repeatable and same
            self._check(f"{label}: outputs repeat exactly", same)
        if self.pinned is not None:
            self._check(
                f"{label}: outputs equal expected.json",
                outcome.facts == self.pinned,
            )


def _pinned(
    workload: Workload, seed: int, scale: float
) -> Optional[Dict[str, Any]]:
    expected = load_expected()
    if expected["scale"] != scale:
        return None  # pinned for other inputs than these
    return expected["facts"].get(workload.name, {}).get(str(seed))


def _repeat(
    workload: Workload, inputs: Any
) -> Tuple[Outcome, List[float]]:
    """One repetition from a comparable heap: the previous repetition's
    objects are gone and collected, the collector stays on inside.

    Returns the outcome and the extra set-up timings (seconds at
    reference speed) taken just before it.
    """
    gc.collect()
    extra_setups = []
    for _ in range(workload.extra_setups):
        region = Region().begin()
        workload.set_up(inputs)
        region.finish()
        extra_setups.append(region.wall / region.pacer.speed)
    gc.collect()
    return workload.repetition(inputs), extra_setups


def _record_times(
    samples: Dict[str, List[float]], outcome: Outcome,
    extra_setups: List[float],
) -> None:
    """One repetition's samples: the seconds at reference speed the
    metrics are made of, then the raw host seconds and the speed factor."""
    sample = {
        "setup_s": statistics.median(
            extra_setups + [outcome.setup_s / outcome.setup_speed]
        ),
        "run_s": outcome.run_s / outcome.speed,
        "run_cpu_s": outcome.run_cpu_s / outcome.speed_cpu,
        "raw_setup_s": outcome.setup_s,
        "raw_run_s": outcome.run_s,
        "raw_run_cpu_s": outcome.run_cpu_s,
        "speed": outcome.speed,
    }
    for name, value in sample.items():
        samples.setdefault(name, []).append(value)


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(
    workload: Workload, seed: int, seconds: float, scale: float
) -> Dict[str, Any]:
    """The untraced run: one discarded warm-up, then repetitions until
    the timed regions add up to ``seconds`` of raw host time."""
    inputs = workload.generate(seed, scale)
    work = workload.work(inputs)
    checker = Checker(_pinned(workload, seed, scale))
    # the warm-up absorbs lazy imports and first-call costs; its
    # outputs are checked, its times discarded
    checker.judge(_repeat(workload, inputs)[0], "warm-up")
    samples: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    measured = 0.0
    repetitions = 0
    while measured < seconds or repetitions < MIN_REPETITIONS:
        outcome, extra_setups = _repeat(workload, inputs)
        repetitions += 1
        checker.judge(outcome, f"repetition {repetitions}")
        _record_times(samples, outcome, extra_setups)
        measured += outcome.run_s
        counts = outcome.counts
        del outcome
    samples["work_per_s"] = [work / run_s for run_s in samples["run_s"]]
    metrics = {
        name: statistics.median(samples[name])
        for name in TIMED + ("work_per_s",)
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "workload": workload.name,
        "work": work,
        "work_unit": workload.work_unit,
        "repetitions": repetitions,
        "metrics": metrics,
        "samples": samples,
        "quartiles": {name: quartiles(samples[name]) for name in samples},
        "counts": counts,
        "facts": checker.reference,
        "repeatable": checker.repeatable,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "busy": (
            statistics.median(samples["raw_run_s"])
            / statistics.median(samples["raw_run_cpu_s"])
        ) > BUSY_RATIO,
    }


def _layer_counts(counts: Dict[str, float]) -> Dict[str, float]:
    """The exact per-layer counts of the workload itself."""
    lookups = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    packets = counts.get("packets", 0)
    events = counts.get("sched_events", 0)
    return {
        "net.sched_events": float(events),
        "net.events_per_packet": events / packets if packets else 0.0,
        "mpls.cache_hit_ratio": (
            counts.get("cache_hits", 0) / lookups if lookups else 0.0
        ),
        "mpls.cache_invalidations": float(
            counts.get("cache_invalidations", 0)
        ),
    }


def trace(workload: Workload, seed: int, scale: float) -> Dict[str, Any]:
    """The traced run: every per-layer metric, never an end-to-end one.

    One plain repetition gives the reference time and the workload's
    exact counts (it doubles as the warm-up, so the reference carries the
    first repetition's lazy imports, a few per cent); one more runs under
    boundary spans and ``cProfile``; then the layer probes run.
    """
    inputs = workload.generate(seed, scale)
    checker = Checker(_pinned(workload, seed, scale))
    plain, _ = _repeat(workload, inputs)
    checker.judge(plain, "untraced repetition")

    log = tracing.SpanLog(repetition=1)
    profile = cProfile.Profile()
    gc.collect()
    with tracing.boundary_spans(log), log.span(f"{workload.name}.repetition"):
        profile.enable()
        try:
            traced = workload.repetition(inputs)
        finally:
            profile.disable()
    checker.judge(traced, "traced repetition")
    trace_path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
    log.write(trace_path)

    metrics = _layer_counts(plain.counts)
    # raw seconds on both sides: the profiler slows the pacer's kernel too
    metrics["trace.overhead_ratio"] = traced.run_s / plain.run_s
    for package, share in tracing.package_shares(profile).items():
        metrics[f"share.{package}"] = share
    del profile  # a large live heap slows every probe's collections
    metrics.update(probes.run_all(scale, ROOT, OUT_DIR))
    return {
        "workload": workload.name,
        "metrics": metrics,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "span_self_time_s": log.self_times(),
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
    }


def result_line(
    record: Dict[str, Any], declared: List[Dict[str, Any]]
) -> str:
    """The one JSON object the driver reads: exactly the declared
    metrics, each with its unit."""
    names = {metric["name"] for metric in declared}
    emitted = set(record["metrics"])
    if names != emitted:
        raise RuntimeError(
            "emitted metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - emitted)}, undeclared {sorted(emitted - names)}"
        )
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {
                "value": record["metrics"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in declared
        },
    })


def describe(record: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one untraced record."""
    lines = [
        f"{record['workload']}: {record['repetitions']} repetitions, "
        f"work = {record['work']:g} {record['work_unit']}"
    ]
    for name in ("setup_s", "run_s", "run_cpu_s", "work_per_s"):
        values = record["samples"][name]
        q1, q2, q3 = record["quartiles"][name]
        lines.append(
            f"  {name:12s} median {q2:.6g}  quartiles {q1:.6g}..{q3:.6g}"
            f"  min {min(values):.6g}  max {max(values):.6g}"
            f"  n={len(values)}"
        )
    speed = record["samples"]["speed"]
    lines.append(
        "  (seconds at reference machine speed; raw host run_s median "
        f"{statistics.median(record['samples']['raw_run_s']):.6g}, machine "
        f"speed factor {min(speed):.3g}..{max(speed):.3g})"
    )
    lines.append(f"  peak_rss_mb  {record['metrics']['peak_rss_mb']:.1f}")
    lines.append(
        f"  checks       {record['attempted']} attempted, "
        f"{record['failed']} failed"
    )
    lines.extend(f"  FAILED {name}" for name in record["failures"])
    if record["busy"]:
        lines.append(
            f"  warning: run_s / run_cpu_s > {BUSY_RATIO} -- the box was "
            "busy, rerun"
        )
    return lines
