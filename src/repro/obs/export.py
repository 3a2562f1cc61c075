"""Exporters: Prometheus text exposition format and JSON snapshots.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` without any
external dependency:

* :func:`to_prometheus` -- the text format a Prometheus server scrapes
  (``# HELP`` / ``# TYPE`` headers, one sample per line, histograms as
  cumulative ``_bucket``/``_sum``/``_count`` series);
* :func:`snapshot` / :func:`to_json` -- a stable nested-dict form for
  programmatic consumers and the ``repro stats`` CLI.

Output is deterministic: families sort by name, children by label
values -- which is what makes the golden-file test possible.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(names, values, extra: str = "") -> str:
    parts = [
        f'{n}="{_escape(v)}"' for n, v in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    # integers render without a trailing .0, like Prometheus clients do
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _bound_text(bound: float) -> str:
    return _format_value(bound)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.collect():
        samples = list(family.samples())
        if not samples:
            continue
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in samples:
            if isinstance(child, (Counter, Gauge)):
                lines.append(
                    f"{family.name}"
                    f"{_labels_text(family.labelnames, values)} "
                    f"{_format_value(child.value)}"
                )
            elif isinstance(child, Histogram):
                cumulative = child.cumulative_counts()
                for bound, count in zip(child.buckets, cumulative):
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_labels_text(family.labelnames, values, extra=_le(bound))} "
                        f"{count}"
                    )
                lines.append(
                    f"{family.name}_bucket"
                    f"{_labels_text(family.labelnames, values, extra=_le(None))} "
                    f"{child.count}"
                )
                lines.append(
                    f"{family.name}_sum"
                    f"{_labels_text(family.labelnames, values)} "
                    f"{_format_value(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count"
                    f"{_labels_text(family.labelnames, values)} "
                    f"{child.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def _le(bound) -> str:
    text = "+Inf" if bound is None else _bound_text(bound)
    return f'le="{text}"'


def _child_snapshot(family: MetricFamily, child) -> Any:
    if isinstance(child, (Counter, Gauge)):
        return child.value
    assert isinstance(child, Histogram)
    return {
        "buckets": list(child.buckets),
        "counts": list(child.bucket_counts),
        "sum": child.sum,
        "count": child.count,
    }


def snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """A nested-dict view: name -> {type, help, labels, samples}."""
    out: Dict[str, Any] = {}
    for family in registry.collect():
        samples = []
        for values, child in family.samples():
            samples.append(
                {
                    "labels": dict(zip(family.labelnames, values)),
                    "value": _child_snapshot(family, child),
                }
            )
        if not samples:
            continue
        out[family.name] = {
            "type": family.kind,
            "help": family.help,
            "samples": samples,
        }
    return out


def to_json(registry: MetricsRegistry) -> str:
    return json.dumps(snapshot(registry), indent=2, sort_keys=True)
