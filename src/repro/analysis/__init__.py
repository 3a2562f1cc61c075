"""Measurement and reporting helpers for the benchmarks.

* :mod:`repro.analysis.cycles` -- measures operation cycle counts on
  the live RTL and checks them against the Table 6 formulas,
* :mod:`repro.analysis.throughput` -- packets/s and bits/s estimators
  from cycle costs and clock rates,
* :mod:`repro.analysis.report` -- plain-text table/series rendering so
  every benchmark prints the paper's rows next to the measured ones.
"""

from repro.analysis.cycles import CycleMeasurement, measure_table6
from repro.analysis.throughput import (
    LineRateFeasibility,
    ThroughputEstimate,
    estimate_throughput,
    line_rate_feasibility,
)
from repro.analysis.report import render_table, render_series
from repro.analysis.tracer import NetworkTracer, PacketTrace, HopRecord
from repro.analysis.montecarlo import (
    LatencyDistribution,
    sample_swap_latency,
)
from repro.analysis.netstats import (
    LinkUsage,
    link_usage,
    render_link_usage,
    render_node_counters,
)

__all__ = [
    "CycleMeasurement",
    "measure_table6",
    "ThroughputEstimate",
    "estimate_throughput",
    "LineRateFeasibility",
    "line_rate_feasibility",
    "render_table",
    "render_series",
    "NetworkTracer",
    "PacketTrace",
    "HopRecord",
    "LinkUsage",
    "link_usage",
    "render_link_usage",
    "render_node_counters",
    "LatencyDistribution",
    "sample_swap_latency",
]
