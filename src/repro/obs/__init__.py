"""Unified telemetry: metrics, structured events, cycle profiling.

The observability layer of the reproduction, threaded through every
other subsystem:

* :mod:`repro.obs.metrics` -- the registry of counters, gauges and
  fixed-bucket histograms;
* :mod:`repro.obs.events` -- typed event records over pluggable sinks
  (in-memory, JSONL, callback);
* :mod:`repro.obs.profiling` -- cycle-level attribution of the RTL
  simulation to FSM states, memory ports, and scoped operations;
* :mod:`repro.obs.export` -- Prometheus text format and JSON snapshots;
* :mod:`repro.obs.telemetry` -- the facade and the process-wide
  default instance (disabled by default; hot paths pay one boolean
  test).

Quick use::

    from repro.obs import telemetry_session, to_prometheus

    with telemetry_session() as tel:
        ...  # run a network, drive the RTL, converge LDP
        print(to_prometheus(tel.registry))
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    render_alert_history,
)
from repro.obs.events import (
    CLOCK_CYCLES,
    CLOCK_SIM,
    JSONL_SCHEMA_VERSION,
    AlertCleared,
    AlertRaised,
    AttackDetected,
    AttackMitigated,
    AuditCompleted,
    CallbackSink,
    Event,
    EventLog,
    FaultHealed,
    FaultInjected,
    FilterSink,
    FSMTransition,
    HWOpExecuted,
    InfoBaseProgrammed,
    InfoBaseScrubbed,
    JSONLSink,
    KindCountSink,
    LabelMappingInstalled,
    LabelMappingWithdrawn,
    LabelOpApplied,
    ListSink,
    LSPEvent,
    OAMProbeCompleted,
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
    SessionStateChange,
    StaleEntriesFlushed,
    read_jsonl,
)
from repro.obs.export import snapshot, to_json, to_prometheus
from repro.obs.flows import (
    FlowAccountant,
    FlowRecord,
    MatrixCollector,
    TrafficMatrix,
    flows_to_jsonl,
    matrices_to_json,
    render_flow_summary,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.profiling import ConservationError, CycleProfiler
from repro.obs.spans import (
    Span,
    SpanAnnotation,
    SpanRecorder,
    Trace,
    export_chrome_trace,
    spans_to_jsonl,
    to_chrome_trace,
)
from repro.obs.telemetry import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.obs.topo import TopologyObserver, TopologyView

__all__ = [
    "AlertCleared",
    "AlertEngine",
    "AlertRaised",
    "AlertRule",
    "AttackDetected",
    "AttackMitigated",
    "AuditCompleted",
    "CallbackSink",
    "CLOCK_CYCLES",
    "CLOCK_SIM",
    "ConservationError",
    "Counter",
    "CycleProfiler",
    "Event",
    "EventLog",
    "FaultHealed",
    "FaultInjected",
    "FilterSink",
    "FlowAccountant",
    "FlowRecord",
    "FSMTransition",
    "Gauge",
    "Histogram",
    "HWOpExecuted",
    "InfoBaseProgrammed",
    "InfoBaseScrubbed",
    "JSONL_SCHEMA_VERSION",
    "JSONLSink",
    "KindCountSink",
    "LabelMappingInstalled",
    "LabelMappingWithdrawn",
    "LabelOpApplied",
    "ListSink",
    "LSPEvent",
    "MatrixCollector",
    "MetricFamily",
    "MetricsRegistry",
    "OAMProbeCompleted",
    "PacketDelivered",
    "PacketDropped",
    "PacketForwarded",
    "SessionStateChange",
    "Span",
    "SpanAnnotation",
    "SpanRecorder",
    "StaleEntriesFlushed",
    "Telemetry",
    "TopologyObserver",
    "TopologyView",
    "Trace",
    "TrafficMatrix",
    "export_chrome_trace",
    "flows_to_jsonl",
    "get_telemetry",
    "matrices_to_json",
    "read_jsonl",
    "render_alert_history",
    "render_flow_summary",
    "set_telemetry",
    "snapshot",
    "spans_to_jsonl",
    "telemetry_session",
    "to_chrome_trace",
    "to_json",
    "to_prometheus",
]
