"""The traced run: spans at the layer boundaries plus profiled shares.

Everything here is done from outside the program: the layer-boundary
public calls are wrapped for the duration of one repetition and restored
after, spans are kept in memory and written out when the benchmark ends,
and ``cProfile`` self time is attributed to the ``repro.<package>`` that
spent it.  Traced numbers are never mixed into the end-to-end metrics;
``trace.overhead_ratio`` says how much slower the traced repetition ran.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from benchmarks.perf import pacing
from repro.faults import chaos
from repro.faults.injector import FaultInjector
from repro.hw.driver import ModifierDriver
from repro.net.network import MPLSNetwork

#: the ``share.*`` buckets: every package under ``repro`` plus the CLI
#: module; anything else (stdlib, the harness) lands in ``other``
PACKAGES = (
    "analysis", "control", "core", "faults", "hdl", "hw", "mpls", "net",
    "obs", "qos", "security", "cli",
)

PACING_FILE = pacing.__file__

#: (owner, attribute, span name): the calls that cross a layer boundary
BOUNDARIES: Tuple[Tuple[Any, str, str], ...] = (
    (chaos, "build_run", "faults.build_run"),
    (MPLSNetwork, "run", "net.MPLSNetwork.run"),
    (FaultInjector, "finalize", "faults.FaultInjector.finalize"),
    (chaos, "summarize", "faults.summarize"),
    (chaos.ChaosReport, "to_json", "faults.ChaosReport.to_json"),
) + tuple(
    (ModifierDriver, op, f"hw.ModifierDriver.{op}")
    for op in ("reset", "user_push", "user_pop", "write_pair", "search",
               "update")
)


class SpanLog:
    """In-memory spans: name, start, end, parent, one id per repetition."""

    def __init__(self, repetition: int) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.repetition = repetition

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "repetition": self.repetition,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        })
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = {}
        for span, inside in zip(self.spans, covered):
            out[span["name"]] = (
                out.get(span["name"], 0.0)
                + (span["end"] - span["start"]) - inside
            )
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "self_time_s": self.self_times()},
                handle, indent=1,
            )
            handle.write("\n")


@contextmanager
def boundary_spans(log: SpanLog) -> Iterator[None]:
    """Wrap every boundary call to record a span; restore on exit."""
    saved = []
    try:
        for owner, attribute, name in BOUNDARIES:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _spanned(original, name, log))
        yield
    finally:
        for owner, attribute, original in saved:
            setattr(owner, attribute, original)


def _spanned(function: Any, name: str, log: SpanLog) -> Any:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = log.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            log.end(index)

    return wrapper


def _package_of(filename: str) -> Optional[str]:
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return None
    head = filename[at + len(marker):].split(os.sep)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in PACKAGES else None


def package_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Fraction of profiled self time per ``repro.<package>``.

    Self time of a function outside ``repro`` (a builtin, the stdlib)
    is charged to the package of its direct caller, since that is who
    chose to spend it; with no ``repro`` caller it is ``other``.  The
    harness's own reference kernel is left out altogether.
    """
    self_time = dict.fromkeys(PACKAGES + ("other",), 0.0)
    for (filename, _, _), (_, _, own, _, callers) in pstats.Stats(
        profile
    ).stats.items():
        package = _package_of(filename)
        if package is not None:
            self_time[package] += own
        elif filename == PACING_FILE:
            continue
        elif not callers:
            self_time["other"] += own
        else:
            for (caller_file, _, _), (_, _, via, _) in callers.items():
                if caller_file != PACING_FILE:
                    self_time[_package_of(caller_file) or "other"] += via
    total = sum(self_time.values()) or 1.0
    return {name: value / total for name, value in self_time.items()}
