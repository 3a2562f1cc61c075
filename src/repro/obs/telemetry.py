"""The telemetry facade: one switch, one registry, one event log.

Instrumented code across the data plane, control plane and hardware
model all funnels through a :class:`Telemetry` object.  The contract
that keeps the hot paths fast:

* every instrumentation site is guarded by ``tel.enabled`` -- when
  telemetry is off (the default), the entire layer costs one attribute
  read and one boolean test per instrumented call;
* metric families used on hot paths are pre-registered here once, so
  enabling telemetry never pays registration in the packet loop.

A process-wide default instance is reachable via :func:`get_telemetry`;
tests and the CLI swap in fresh instances with :func:`set_telemetry` or
the :func:`telemetry_session` context manager so runs never leak state
into each other.

The rule: **telemetry is resolved once, when an object is built.**  An
object that reports telemetry takes the default current in its
``__init__`` and keeps that object -- never its ``registry``, ``events``
or metric families, which :meth:`Telemetry.reset` replaces; an object
built over a network reads the network's.  Per-packet,
per-message and per-event code reads the object's own reference, so
what an object reports belongs to the run it was built for, whatever
default is current when it runs.  Swap the default *before* building a
run.  ``tests/obs/test_telemetry_lookups.py`` holds ``src/repro`` to it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import EventLog
from repro.obs.metrics import (
    DEFAULT_CYCLE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


class Telemetry:
    """A metrics registry and an event log behind one enable switch."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.events = EventLog()
        #: The attached :class:`~repro.obs.spans.SpanRecorder`, or None.
        #: Hardware nodes consult this to decide whether per-packet
        #: phase events are wanted; with no recorder attached the hot
        #: path pays nothing beyond the ``enabled`` test.
        self.spans = None
        #: The attached :class:`~repro.obs.flows.FlowAccountant`, or
        #: None.  Data-plane hooks consult this inside their existing
        #: ``enabled`` guards, so with accounting off the hot path pays
        #: nothing beyond the tests it already ran.
        self.flows = None
        #: The attached :class:`~repro.obs.topo.TopologyObserver`, or
        #: None.  Control-plane withdraw sites and the traffic-matrix
        #: collector consult this inside their existing ``enabled``
        #: guards; with no observer attached nothing extra is emitted.
        self.topo = None
        self._register_core_families()

    # -- core metric families ----------------------------------------------
    # Pre-registered so instrumented hot paths only pay .labels() child
    # lookups, never family creation.
    def _register_core_families(self) -> None:
        r = self.registry
        self.packets = r.counter(
            "repro_packets_total",
            "Packets processed per node by outcome action",
            ("node", "action"),
        )
        self.drops = r.counter(
            "repro_drops_total",
            "Packets discarded per node by reason class",
            ("node", "reason"),
        )
        self.mpls_ops = r.counter(
            "repro_mpls_ops_total",
            "Elementary data-plane operations (the OpCounts tally)",
            ("node", "op"),
        )
        self.link_tx_packets = r.counter(
            "repro_link_tx_packets_total",
            "Packets transmitted per link direction",
            ("src", "dst"),
        )
        self.link_tx_bytes = r.counter(
            "repro_link_tx_bytes_total",
            "Bytes transmitted per link direction",
            ("src", "dst"),
        )
        self.link_drops = r.counter(
            "repro_link_dropped_total",
            "Packets lost per link direction by cause",
            ("src", "dst", "cause"),
        )
        self.queue_depth = r.gauge(
            "repro_link_queue_depth",
            "Output queue occupancy per link direction",
            ("src", "dst"),
        )
        self.delivery_latency = r.histogram(
            "repro_delivery_latency_seconds",
            "End-to-end latency of delivered packets",
            ("node",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.ldp_messages = r.counter(
            "repro_ldp_messages_total",
            "LDP protocol messages sent, by type",
            ("kind",),
        )
        self.ldp_sessions = r.gauge(
            "repro_ldp_sessions_up",
            "Established LDP sessions (each direction counted once)",
        )
        self.lsp_events = r.counter(
            "repro_lsp_events_total",
            "RSVP-TE LSP lifecycle events by type",
            ("event",),
        )
        self.hw_cycles = r.counter(
            "repro_hw_cycles_total",
            "Simulated modifier clock cycles per node, data vs control",
            ("node", "kind"),
        )
        self.hw_packet_cycles = r.histogram(
            "repro_hw_packet_cycles",
            "Modifier cycles spent per hardware-forwarded packet",
            ("node",),
            buckets=DEFAULT_CYCLE_BUCKETS,
        )
        self.info_base_writes = r.counter(
            "repro_info_base_writes_total",
            "Label pairs programmed into the hardware information base",
            ("node",),
        )
        self.faults = r.counter(
            "repro_faults_injected_total",
            "Faults injected by the chaos layer, by kind and target",
            ("kind", "target"),
        )
        self.fault_recovery = r.histogram(
            "repro_fault_recovery_seconds",
            "Injection-to-recovery interval per fault kind (MTTR)",
            ("kind",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.ldp_retries = r.counter(
            "repro_ldp_reconnect_attempts_total",
            "LDP session reconnection attempts per peer pair",
            ("node", "peer"),
        )
        self.scrub_repairs = r.counter(
            "repro_ib_scrub_repairs_total",
            "Corrupted information-base pairs repaired by scrubbing",
            ("node",),
        )
        self.audit_runs = r.counter(
            "repro_audit_runs_total",
            "Consistency-audit passes over the hardware info bases",
        )
        self.audit_drift = r.counter(
            "repro_audit_drift_total",
            "Audits that found a node's info base disagreeing with its "
            "control-plane tables",
            ("node",),
        )
        self.audit_watchdog = r.counter(
            "repro_audit_watchdog_alarms_total",
            "Watchdog alarms for transactions left open across audits",
            ("node",),
        )
        self.stale_entries = r.gauge(
            "repro_stale_entries",
            "Stale-marked forwarding entries awaiting refresh or flush",
            ("node", "table"),
        )
        self.fec_latency = r.histogram(
            "repro_fec_latency_seconds",
            "End-to-end latency of delivered packets per FEC (SLO view)",
            ("fec",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.fec_latency_quantiles = r.gauge(
            "repro_fec_latency_quantile_seconds",
            "Nearest-rank latency quantiles per FEC, published when a "
            "span recorder finalizes",
            ("fec", "quantile"),
        )
        self.oam_probes = r.counter(
            "repro_oam_probes_total",
            "LSP-ping probes sent by the OAM monitor, by outcome",
            ("fec", "outcome"),
        )
        self.oam_rtt = r.histogram(
            "repro_oam_rtt_seconds",
            "Round-trip time of successful OAM probes per FEC",
            ("fec",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.oam_up = r.gauge(
            "repro_oam_up",
            "Last OAM probe verdict per FEC (1 = LSP answering)",
            ("fec",),
        )
        self.slo_breaches = r.counter(
            "repro_slo_breaches_total",
            "OAM probes whose RTT exceeded the configured SLO",
            ("fec",),
        )
        self.model_evals = r.counter(
            "repro_model_evaluations_total",
            "Analytic cost-model evaluations, by model",
            ("model",),
        )
        self.pipeline_speedup = r.gauge(
            "repro_pipeline_speedup",
            "Modeled pipelined-vs-sequential speedup at a table size",
            ("n_entries",),
        )
        # -- control-plane overload protection -----------------------------
        # registered unconditionally so dashboards see pressure building
        # even before overload protection is switched on
        self.control_queue_depth = r.gauge(
            "repro_control_queue_depth",
            "Bounded control-message queue depth, per node",
            ("node",),
        )
        self.control_queue_drops = r.counter(
            "repro_control_queue_drops_total",
            "Control messages lost to shedding/eviction/tail drop",
            ("node", "msg_class", "cause"),
        )
        self.fecs_shed = r.gauge(
            "repro_fecs_shed",
            "FECs currently shed by ingress overload protection",
            ("node",),
        )
        self.lsp_preemptions = r.counter(
            "repro_lsp_preemptions_total",
            "LSPs preempted by higher-priority setups, by outcome",
            ("mode",),
        )
        # -- flow accounting and alerting -----------------------------------
        # registered unconditionally (like the overload families) so
        # Prometheus scrapes keep the same schema whether or not a
        # FlowAccountant / AlertEngine is attached
        self.flow_active = r.gauge(
            "repro_flow_records_active",
            "Active flow records in the accounting cache, per node",
            ("node",),
        )
        self.flow_opened = r.counter(
            "repro_flow_records_opened_total",
            "Flow records opened per node",
            ("node",),
        )
        self.flow_expired = r.counter(
            "repro_flow_records_expired_total",
            "Flow records finished per node, by expiry reason",
            ("node", "reason"),
        )
        self.flow_packets = r.counter(
            "repro_flow_packets_total",
            "Packets accounted to flow records, per node and FEC",
            ("node", "fec"),
        )
        self.flow_bytes = r.counter(
            "repro_flow_bytes_total",
            "Bytes accounted to flow records, per node and FEC",
            ("node", "fec"),
        )
        self.matrix_snapshots = r.counter(
            "repro_traffic_matrix_snapshots_total",
            "Traffic-matrix snapshots materialized by the collector",
        )
        self.link_utilization = r.gauge(
            "repro_link_utilization_ratio",
            "Link busy fraction over the last matrix interval",
            ("src", "dst"),
        )
        self.alerts_active = r.gauge(
            "repro_alerts_active",
            "Currently firing alert instances, per rule",
            ("rule",),
        )
        self.alert_transitions = r.counter(
            "repro_alert_transitions_total",
            "Alert raise/clear transitions, per rule",
            ("rule", "transition"),
        )
        # -- adversarial security -------------------------------------------
        # registered unconditionally (like the overload families) so
        # the scrape schema is stable whether or not a SecurityMonitor
        # is armed for the run
        self.attacks_detected = r.counter(
            "repro_attacks_detected_total",
            "Injected attacks recognized by the security monitor",
            ("kind", "target"),
        )
        self.attacks_mitigated = r.counter(
            "repro_attacks_mitigated_total",
            "Injected attacks neutralized, by mitigating action",
            ("kind", "action"),
        )
        self.spoof_rejections = r.counter(
            "repro_spoof_guard_rejections_total",
            "Labelled packets rejected at the LER trust boundary",
            ("node",),
        )
        self.auth_mismatches = r.counter(
            "repro_ldp_auth_mismatches_total",
            "LDP messages rejected for a bad session auth token",
            ("node", "peer"),
        )
        self.xconnect_quarantines = r.counter(
            "repro_xconnect_quarantines_total",
            "Cross-connected ILM entries quarantined by the audit",
            ("node",),
        )
        self.exception_path = r.counter(
            "repro_exception_path_packets_total",
            "TTL-exception punts toward the control plane, by outcome",
            ("node", "outcome"),
        )
        # -- topology observatory -------------------------------------------
        # registered unconditionally so the scrape schema is stable
        # whether or not a TopologyObserver is attached for the run
        self.topo_deltas = r.counter(
            "repro_topo_deltas_total",
            "Versioned state deltas recorded by the topology observer",
        )
        self.topo_snapshots = r.counter(
            "repro_topo_snapshots_total",
            "Full topology snapshots taken between delta runs",
        )
        self.topo_health = r.gauge(
            "repro_topo_health",
            "Overall derived network health score in [0, 1]",
        )
        self.topo_convergence = r.histogram(
            "repro_topo_convergence_seconds",
            "Time from disruption to last dependent state change",
            ("kind",),
        )
        # -- centralized controller -----------------------------------------
        # registered unconditionally so the scrape schema is stable
        # whether or not a PCE controller is armed for the run
        self.controller_channel_depth = r.gauge(
            "repro_controller_channel_depth",
            "Bounded controller-channel queue depth, per node",
            ("node",),
        )
        self.controller_channel_drops = r.counter(
            "repro_controller_channel_drops_total",
            "Controller RPCs lost to partition/crash/shedding, by cause",
            ("node", "cause"),
        )
        self.controller_failovers = r.counter(
            "repro_controller_failovers_total",
            "Node hold-timer expiries against the controller, by reason",
            ("reason",),
        )
        self.controller_delegations = r.counter(
            "repro_controller_delegations_total",
            "Graceful fallbacks to distributed control, per node",
            ("node",),
        )
        self.controller_resyncs = r.counter(
            "repro_controller_resync_transactions_total",
            "Atomic resync transactions committed at re-adoption",
            ("node",),
        )
        self.controller_adoption = r.gauge(
            "repro_controller_adoption_state",
            "Delegation state per node (0 distributed, 1 adopted, "
            "2 orphaned)",
            ("node",),
        )

    # -- switch ------------------------------------------------------------
    def enable(self) -> "Telemetry":
        self.enabled = True
        return self

    def disable(self) -> "Telemetry":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Fresh registry and event log; the switch keeps its position.
        Any attached span recorder or flow accountant is dropped with
        the old event log."""
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self.spans = None
        self.flows = None
        self.topo = None
        self._register_core_families()


#: The process-wide default, disabled until someone opts in.
_default = Telemetry(enabled=False)


def get_telemetry() -> Telemetry:
    """The current default telemetry instance.  An object calls this
    once, when it is built, and keeps what it returns."""
    return _default


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Swap the default instance; returns the previous one."""
    global _default
    previous = _default
    _default = telemetry
    return previous


@contextmanager
def telemetry_session(
    enabled: bool = True, telemetry: Optional[Telemetry] = None
) -> Iterator[Telemetry]:
    """A fresh default :class:`Telemetry` for the duration of a block.

    The previous default (and therefore its enabled/disabled state) is
    restored on exit, so tests and CLI commands cannot leak metrics or
    sinks into each other.
    """
    tel = telemetry if telemetry is not None else Telemetry(enabled=enabled)
    previous = set_telemetry(tel)
    try:
        yield tel
    finally:
        set_telemetry(previous)
