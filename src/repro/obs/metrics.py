"""The metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-shaped but dependency-free: a :class:`MetricsRegistry` owns a
set of named metric *families*; a family with label names hands out one
child per distinct label-value tuple.  Everything is plain Python ints
and floats -- incrementing a counter is an attribute add, so the
instrumented hot paths stay cheap even when telemetry is enabled, and
call sites guard on :attr:`~repro.obs.telemetry.Telemetry.enabled` so a
disabled telemetry layer costs a single boolean test.

Conventions follow the Prometheus exposition format so
:mod:`repro.obs.export` can render a registry without translation:

* counter names end in ``_total``;
* histograms expose cumulative bucket counts plus ``_sum``/``_count``;
* label values are strings.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, sessions up)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self) -> None:
        self.value += 1.0

    def dec(self) -> None:
        self.value -= 1.0


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``buckets`` are the *upper bounds* of the non-infinite buckets, in
    increasing order; an implicit ``+Inf`` bucket always exists, so
    ``bucket_counts`` has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must increase: {bounds}")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("the +Inf bucket is implicit; do not pass inf")
        self.buckets: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per bound (Prometheus ``le`` semantics),
        ending with the ``+Inf`` bucket (== ``count``)."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


#: Default latency buckets (seconds): microseconds to seconds.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
    2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)

#: Default cycle-count buckets for hardware per-packet costs.
DEFAULT_CYCLE_BUCKETS = (
    5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0,
)


class MetricFamily:
    """One named metric with a fixed label-name schema.

    A family with no label names has exactly one child (the empty
    tuple); otherwise children are created on first use per distinct
    label-value tuple via :meth:`labels`.
    """

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[LabelValues, object] = {}

    def _new_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS)

    def _by_name(self, kw: Dict[str, object]) -> Tuple[object, ...]:
        """Keyword label values in ``labelnames`` order."""
        try:
            return tuple(kw[n] for n in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                f"{self.name}: missing label {exc.args[0]!r} "
                f"(schema {list(self.labelnames)})"
            ) from None

    def labels(self, *values: object, **kw: object):
        """The child for one label-value combination.

        Accepts positional values in ``labelnames`` order or keyword
        values; everything is coerced to ``str``.
        """
        if not kw:
            # hot callers pass plain strs for an existing child: the
            # tuple is already the key.  Exact type only -- a str-mixin
            # Enum hashes like its value but str()s to its member name.
            for v in values:
                if type(v) is not str:
                    break
            else:
                child = self._children.get(values)
                if child is not None:
                    return child
        else:
            if values:
                raise ValueError("pass labels positionally or by name, not both")
            values = self._by_name(kw)
            if len(kw) != len(self.labelnames):
                extra = set(kw) - set(self.labelnames)
                raise ValueError(f"{self.name}: unknown labels {sorted(extra)}")
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"values {list(self.labelnames)}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    # Unlabelled families act directly as their single child.
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {list(self.labelnames)}; "
                f"use .labels(...)"
            )
        return self.labels()

    def inc(self) -> None:
        self._solo().inc()

    def dec(self) -> None:
        self._solo().dec()

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def samples(self) -> Iterable[Tuple[LabelValues, object]]:
        """(label values, child) pairs in sorted label order."""
        return sorted(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


class MetricsRegistry:
    """Owns all metric families; the scrape target of the exporters."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------
    def _get_or_create(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"schema: {family.kind}{list(family.labelnames)} vs "
                    f"{kind}{list(labelnames)}"
                )
            return family
        family = MetricFamily(name, help, kind, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help, "counter", labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._get_or_create(name, help, "histogram", labelnames, buckets)

    # -- scraping ----------------------------------------------------------
    def collect(self) -> List[MetricFamily]:
        """All families, sorted by name (exporter order)."""
        return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def value(self, name: str, **labels: object) -> float:
        """Convenience for tests: the current value of one counter or
        gauge child (0.0 if the child does not exist yet)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(str(v) for v in family._by_name(labels))
        child = family._children.get(key)
        if child is None:
            return 0.0
        return child.value  # type: ignore[attr-defined]

    def __contains__(self, name: str) -> bool:
        return name in self._families
