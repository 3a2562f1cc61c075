"""Chaos runs: execute a fault scenario and report what survived.

:func:`run_scenario` builds the network a :class:`Scenario` describes,
arms its fault schedule through a
:class:`~repro.faults.injector.FaultInjector`, runs the simulation to
the scenario's horizon, and distils the outcome into a
:class:`ChaosReport`:

* forwarding availability (delivered / sent),
* FRR switchover latency, in simulated seconds *and* in hardware clock
  cycles at the paper's 50 MHz Stratix clock,
* packets lost before vs. after the last recovery (did the network
  actually become whole again?),
* per-fault MTTR, LDP session-recovery statistics and info-base scrub
  totals,
* graceful-restart outcomes (stale-marked/refreshed/flushed entries,
  stale-forwarding duration, per-flow loss) and consistency-audit
  totals -- present only when the scenario uses ``node-restart``
  faults or the ``audit`` key, so reports without them stay
  byte-identical to earlier versions,
* OAM probe statistics (per-FEC reachability, RTTs, SLO breaches,
  up/down transitions) when the scenario carries an ``oam`` key, and a
  span-tracing summary when the run was invoked with a sample rate --
  both gated the same way,
* control-plane overload statistics (queue accounting, hold-timer
  expiries, session survival, ingress shedding, LSP preemption) when
  the scenario carries an ``overload`` key -- gated the same way, so
  pre-overload reports stay byte-identical,
* flow-accounting totals, top talkers and the final traffic matrix
  when the scenario carries a ``flows`` key, plus the alert engine's
  rule set and full raise/clear history under an ``alerts`` key --
  both gated the same way.

Everything in the report derives from simulated time and seeded
randomness -- the same (scenario, seed) pair yields a byte-identical
JSON report, which the CI determinism-smoke job checks literally
with ``cmp``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.device import STRATIX_EP1S40
from repro.faults.injector import FaultInjector
from repro.faults.scenario import Scenario, ScenarioError
from repro.mpls.fec import PrefixFEC
from repro.net.network import MPLSNetwork
from repro.net.traffic import CBRSource
from repro.obs import KindCountSink, get_telemetry


def _round(value: Optional[float]) -> Optional[float]:
    """Stable float formatting for reports (sub-nanosecond noise would
    still be deterministic, but rounding keeps diffs readable)."""
    return None if value is None else round(value, 9)


@dataclass
class ChaosRun:
    """The live objects of one chaos run (exposed for tests)."""

    scenario: Scenario
    seed: int
    network: MPLSNetwork
    injector: FaultInjector
    sources: List[CBRSource] = field(default_factory=list)
    ldp: Any = None
    message_ldp: Any = None
    frr: Any = None
    schedule: List[Any] = field(default_factory=list)
    auditor: Any = None
    oam: Any = None
    overload: Any = None
    shedder: Any = None
    #: the armed FlowAccountant / MatrixCollector / AlertEngine when
    #: the scenario carries ``flows`` (and ``alerts``) keys
    flows: Any = None
    collector: Any = None
    alert_engine: Any = None
    #: the armed SecurityMonitor when the scenario carries a
    #: ``security`` key
    security: Any = None
    #: the armed TopologyObserver when the scenario carries a ``topo``
    #: key (and telemetry is on)
    topo: Any = None
    #: the armed PCEController when the scenario carries a
    #: ``controller`` key
    controller: Any = None


def build_run(scenario: Scenario, seed: int = 0) -> ChaosRun:
    """Construct the network, control plane, traffic and injector for
    one scenario without running it."""
    topology, roles = scenario.build_topology()
    if scenario.hardware:
        from repro.core.hwnode import HardwareLSRNode

        network = MPLSNetwork(
            topology, roles=roles, node_factory=HardwareLSRNode
        )
    else:
        network = MPLSNetwork(topology, roles=roles)
    for flow in scenario.traffic:
        network.attach_host(flow.egress, flow.prefix)

    topo_observer = None
    if scenario.topo is not None and get_telemetry().enabled:
        from repro.obs.topo import TopologyObserver

        # armed before the control plane exists so the initial label
        # distribution (and everything after) lands in the database
        topo_observer = TopologyObserver(
            topology,
            snapshot_every=int(
                dict(scenario.topo).get("snapshot_every", 64)
            ),
        )
        topo_observer.attach()

    overload_cfg = None
    if scenario.overload is not None:
        from repro.control.overload import OverloadConfig

        overload_cfg = OverloadConfig.from_dict(
            scenario.overload, horizon=scenario.duration
        )

    ldp = message_ldp = frr = None
    if scenario.control == "ldp":
        from repro.control.ldp import LDPProcess

        ldp = LDPProcess(topology, network.nodes)
        for flow in scenario.traffic:
            ldp.establish_fec(PrefixFEC(flow.prefix), egress=flow.egress)
    elif scenario.control == "ldp-messages":
        from repro.control.ldp_sessions import MessageLDPProcess

        if overload_cfg is not None:
            message_ldp = MessageLDPProcess(
                topology,
                network.nodes,
                network.scheduler,
                overload=overload_cfg,
                retry_jitter=overload_cfg.retry_jitter,
                jitter_seed=seed,
            )
        else:
            message_ldp = MessageLDPProcess(
                topology, network.nodes, network.scheduler
            )
        message_ldp.start()
        for flow in scenario.traffic:
            message_ldp.announce_fec(
                flow.prefix, PrefixFEC(flow.prefix), egress=flow.egress
            )
    else:  # frr
        from repro.control.frr import FastRerouteManager
        from repro.control.rsvp_te import RSVPTESignaler

        signaler = RSVPTESignaler(topology, network.nodes)
        if overload_cfg is not None:
            signaler.preemption_enabled = overload_cfg.enabled
        frr = FastRerouteManager(signaler)
        flows = {flow.prefix: flow for flow in scenario.traffic}
        for entry in scenario.protection:
            prefix = entry.get("prefix", scenario.traffic[0].prefix)
            flow = flows.get(prefix)
            if flow is None:
                raise ScenarioError(
                    f"protection {entry.get('name')!r} names prefix "
                    f"{prefix!r} with no matching flow"
                )
            frr.protect(
                entry.get("name", f"protect-{prefix}"),
                entry.get("ingress", flow.ingress),
                entry.get("egress", flow.egress),
                PrefixFEC(prefix),
                bandwidth_bps=float(entry.get("bandwidth_bps", 0.0)),
            )

    sources = []
    for i, flow in enumerate(scenario.traffic):
        source = CBRSource(
            network.scheduler,
            network.source_sink(flow.ingress),
            src=flow.src,
            dst=flow.dst,
            rate_bps=flow.rate_bps,
            packet_size=flow.packet_size,
            start=flow.start,
            stop=flow.stop if flow.stop is not None else scenario.duration,
            seed=seed + i,
        )
        source.begin()
        sources.append(source)

    security = None
    if scenario.security is not None:
        from repro.security import SecurityConfig, SecurityMonitor

        try:
            security_cfg = SecurityConfig.from_dict(scenario.security)
        except ValueError as exc:
            raise ScenarioError(str(exc))
        security = SecurityMonitor(
            network, security_cfg, message_ldp=message_ldp
        )
        security.flows = [
            (flow.prefix, flow.egress, source.flow_id)
            for flow, source in zip(scenario.traffic, sources)
        ]
        security.flow_dsts = {
            flow.prefix: flow.dst for flow in scenario.traffic
        }
        security.arm()

    controller = None
    if scenario.controller is not None:
        from repro.control.controller import ControllerConfig, PCEController

        try:
            controller_cfg = ControllerConfig.from_dict(
                scenario.controller, horizon=scenario.duration
            )
        except ValueError as exc:
            raise ScenarioError(str(exc))
        controller = PCEController(
            network,
            controller_cfg,
            ldp=ldp,
            message_ldp=message_ldp,
            frr=frr,
            fec_specs=[
                (PrefixFEC(flow.prefix), flow.ingress, flow.egress)
                for flow in scenario.traffic
            ],
            seed=seed,
        )
        controller.start()

    injector = FaultInjector(
        network,
        ldp=ldp,
        message_ldp=message_ldp,
        frr=frr,
        detection_delay_s=scenario.detection_delay_s,
        seed=seed,
        security=security,
        controller=controller,
    )
    schedule = injector.apply(scenario, seed)
    auditor = None
    if scenario.audit is not None:
        from repro.faults.auditor import ConsistencyAuditor

        cfg = dict(scenario.audit)
        auditor = ConsistencyAuditor(
            network,
            period=float(cfg.get("period", 0.1)),
            start=(
                float(cfg["start"]) if cfg.get("start") is not None
                else None
            ),
            stop=scenario.duration,
            repair=bool(cfg.get("repair", True)),
            security=security,
        )
    oam = None
    if scenario.oam is not None:
        from repro.control.oam import OAMMonitor, ProbeTarget

        cfg = dict(scenario.oam)
        targets = [
            ProbeTarget(
                fec=flow.prefix,
                ingress=flow.ingress,
                destination=flow.dst,
            )
            for flow in scenario.traffic
        ]
        period = float(cfg.get("period", 0.05))
        timeout = (
            float(cfg["timeout"]) if cfg.get("timeout") is not None
            else period
        )
        oam = OAMMonitor(
            network,
            targets,
            period=period,
            start=float(cfg.get("start", 0.0)),
            # the last probe's verdict check must land inside the run
            # horizon, or it would stay pending forever
            stop=scenario.duration - timeout,
            timeout=timeout,
            slo_rtt_s=(
                float(cfg["slo_rtt_s"])
                if cfg.get("slo_rtt_s") is not None
                else None
            ),
        )
    shedder = None
    if (
        overload_cfg is not None
        and overload_cfg.enabled
        and message_ldp is not None
        and scenario.traffic
    ):
        from repro.control.overload import IngressShedder, ShedEntry

        mldp = message_ldp
        shedder = IngressShedder(
            [
                ShedEntry(
                    prefix=flow.prefix, cos=flow.cos, ingress=flow.ingress
                )
                for flow in scenario.traffic
            ],
            pressure=lambda: max(
                q.fill_fraction for q in mldp.queues.values()
            ),
            config=overload_cfg,
            scheduler=network.scheduler,
        )
        network.ingress_guard = shedder.guard
        shedder.arm()
    accountant = collector = alert_engine = None
    if scenario.flows is not None:
        from repro.obs.alerts import AlertEngine
        from repro.obs.flows import FlowAccountant, MatrixCollector

        cfg = dict(scenario.flows)
        accountant = FlowAccountant(
            active_timeout=float(cfg.get("active_timeout", 1.0)),
            idle_timeout=float(cfg.get("idle_timeout", 0.25)),
            capacity=int(cfg.get("capacity", 4096)),
            flow_fecs={
                source.flow_id: flow.prefix
                for flow, source in zip(scenario.traffic, sources)
            },
            # runtime flow ids come from a process-global counter;
            # export the scenario flow index instead so flow-record
            # exports are byte-stable across runs
            flow_ids={
                source.flow_id: i for i, source in enumerate(sources)
            },
        )
        if scenario.alerts is not None:
            alert_engine = AlertEngine(
                dict(scenario.alerts).get("rules", [])
            )
        bandwidths = {
            (ch.src.node, ch.dst.node): ch.bandwidth_bps
            for link in network.links.values()
            for ch in (link.forward, link.reverse)
        }
        period = float(cfg.get("matrix_period", 0.1))
        collector = MatrixCollector(
            accountant,
            network.scheduler,
            bandwidths=bandwidths,
            period=period,
            start=(
                float(cfg["matrix_start"])
                if cfg.get("matrix_start") is not None
                else None
            ),
            stop=scenario.duration,
            alerts=alert_engine,
        )
    return ChaosRun(
        scenario=scenario,
        seed=seed,
        network=network,
        injector=injector,
        sources=sources,
        ldp=ldp,
        message_ldp=message_ldp,
        frr=frr,
        schedule=schedule,
        auditor=auditor,
        oam=oam,
        overload=overload_cfg,
        shedder=shedder,
        flows=accountant,
        collector=collector,
        alert_engine=alert_engine,
        security=security,
        topo=topo_observer,
        controller=controller,
    )


@dataclass
class ChaosReport:
    """The deterministic outcome of one chaos run."""

    data: Dict[str, Any]
    #: The :class:`~repro.obs.spans.SpanRecorder` of a traced run
    #: (``sample_rate`` was given), for export; not part of the JSON.
    recorder: Any = None
    #: The run's FlowAccountant / MatrixCollector / AlertEngine when
    #: the scenario carried a ``flows`` key, for export and rendering;
    #: not part of the JSON.
    flows: Any = None
    collector: Any = None
    alert_engine: Any = None
    #: The run's TopologyObserver when the scenario carried a ``topo``
    #: key, for time-travel queries and export; not part of the JSON.
    topo: Any = None

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    def __getitem__(self, key: str) -> Any:
        return self.data[key]


def run_scenario(
    scenario: Scenario,
    seed: int = 0,
    sample_rate: Optional[float] = None,
    batching: bool = False,
) -> ChaosReport:
    """Run one scenario to its horizon and summarize the damage.

    ``sample_rate`` arms a :class:`~repro.obs.spans.SpanRecorder` over
    the run (head-based sampling at that rate, flows labelled with
    their FEC prefixes); the finalized recorder rides back on
    :attr:`ChaosReport.recorder` and a ``spans`` report section.

    ``batching`` runs the data plane on the batched fast path (per-node
    flow caches); the report is byte-identical to the scalar run of the
    same seed -- that equivalence is the contract
    ``tests/integration/test_batching_equivalence.py`` enforces.
    """
    run = build_run(scenario, seed)
    if batching:
        run.network.enable_batching()
    recorder = None
    if sample_rate is not None:
        from repro.obs.spans import SpanRecorder

        flow_fecs = {
            source.flow_id: flow.prefix
            for flow, source in zip(scenario.traffic, run.sources)
        }
        if run.oam is not None:
            flow_fecs.update(
                {fid: fec for fec, fid in run.oam.flow_ids.items()}
            )
        recorder = SpanRecorder(
            sample_rate=sample_rate,
            flow_fecs=flow_fecs,
            nodes=set(run.network.nodes),
        )
    tel = get_telemetry()
    # the report reads only the per-kind tally, so no event is retained
    sink = tel.events.add_sink(KindCountSink()) if tel.enabled else None
    try:
        try:
            processed = run.network.run(until=scenario.duration)
        finally:
            if sink is not None:
                tel.events.remove_sink(sink)
        run.injector.finalize()
        if run.security is not None:
            run.security.finalize()
        if recorder is not None:
            recorder.finalize()
            recorder.detach()
        if run.flows is not None:
            run.flows.finalize()
            run.flows.detach()
        if run.topo is not None:
            # verify the observed database against ground truth and
            # publish the health/convergence metrics before summarizing
            run.topo.finalize(run)
        return summarize(run, processed, sink, recorder=recorder)
    finally:
        # nothing stays hooked to the process-global telemetry, however
        # the run ended; the detaches above are where a clean run needs
        # them, and repeating one is a no-op
        for observer in (recorder, run.flows, run.topo):
            if observer is not None:
                observer.detach()


def _overload_section(run: ChaosRun) -> Dict[str, Any]:
    """The gated ``overload`` report section (scenario has the key)."""
    from repro.control.overload import CLASS_NAMES, MessageClass

    cfg = run.overload
    section: Dict[str, Any] = {"enabled": cfg.enabled}
    mldp = run.message_ldp
    if mldp is not None and mldp.queues:
        queues = list(mldp.queues.values())
        section["queues"] = {
            "enqueued": sum(q.enqueued for q in queues),
            "serviced": sum(q.serviced for q in queues),
            "max_depth": max(q.max_depth for q in queues),
            "dropped_by_class": {
                CLASS_NAMES[c]: sum(q.dropped_by_class[c] for q in queues)
                for c in MessageClass
            },
            "shed_by_class": {
                CLASS_NAMES[c]: sum(q.shed_by_class[c] for q in queues)
                for c in MessageClass
            },
        }
        links = run.network.topology.links
        up = sum(
            1
            for a, b in links
            if b in mldp.speakers[a].sessions
            and a in mldp.speakers[b].sessions
        )
        section["holds_expired"] = mldp.holds_expired
        section["sessions"] = {
            "links": len(links),
            "up_at_end": up,
            "lost": len(mldp.sessions_lost),
            "recovered": len(mldp.sessions_recovered),
        }
    if run.shedder is not None:
        shedder = run.shedder
        section["shedding"] = {
            "fecs": [
                {
                    "prefix": e.prefix,
                    "cos": e.cos,
                    "ingress": e.ingress,
                    "shed_at_end": e.shed,
                }
                for e in shedder.entries
            ],
            "shed_events": [
                {"time": _round(t), "prefix": p, "cos": c}
                for t, p, c in shedder.shed_events
            ],
            "restore_events": [
                {"time": _round(t), "prefix": p, "cos": c}
                for t, p, c in shedder.restore_events
            ],
            "packets_shed": shedder.packets_shed,
            "recovery_time_s": _round(shedder.recovery_time_s),
        }
    if run.frr is not None:
        stats = run.frr.signaler.stats
        section["preemption"] = {
            "reroutes": stats.preempt_reroutes,
            "teardowns": stats.preempt_teardowns,
            "declined": stats.preempt_declined,
        }
    return section


def _flows_section(run: ChaosRun) -> Dict[str, Any]:
    """The gated ``flows`` report section (scenario has the key)."""
    accountant = run.flows
    section: Dict[str, Any] = dict(accountant.summary())
    section["top_talkers"] = accountant.top_talkers(5)
    collector = run.collector
    if collector is not None:
        section["matrix_snapshots"] = len(collector.matrices)
        if collector.latest is not None:
            section["final_matrix"] = collector.latest.as_dict()
        section["peak_link_utilization"] = [
            {"src": src, "dst": dst, "utilization": _round(util)}
            for (src, dst), util in sorted(
                collector.peak_utilization().items()
            )
        ]
    return section


def _security_section(run: ChaosRun) -> Dict[str, Any]:
    """The gated ``security`` report section (scenario has the key)."""
    monitor = run.security
    cfg = monitor.config
    blast_total = sorted(
        set().union(*(r.blast_fecs for r in monitor.attacks))
        if monitor.attacks
        else set()
    )
    return {
        "enabled": cfg.enabled,
        "guards": {
            "edge_guard": cfg.edge_guard,
            "authenticate": cfg.authenticate,
            "cross_check": cfg.cross_check,
            "quarantine": cfg.quarantine,
            "exception_rate": cfg.exception_rate,
            "exception_burst": cfg.exception_burst,
        },
        "attacks": [
            {
                "kind": r.kind,
                "target": r.target,
                "injected_at": _round(r.injected_at),
                "detected_at": _round(r.detected_at),
                "time_to_detect_s": _round(r.time_to_detect),
                "mitigated_at": _round(r.mitigated_at),
                "time_to_mitigate_s": _round(r.time_to_mitigate),
                "blast_radius_fecs": r.blast_radius,
                "blast_fecs": sorted(r.blast_fecs),
                "quarantined_fecs": sorted(r.quarantined_fecs),
                "packets_accepted": r.packets_accepted,
                "packets_rejected": r.packets_rejected,
                "packets_leaked": r.packets_leaked,
                "detail": r.detail,
            }
            for r in monitor.attacks
        ],
        "blast_radius_total": len(blast_total),
        "blast_fecs_total": blast_total,
        "guard_rejections": monitor.guard_rejections,
        "auth_mismatches": monitor.auth_mismatches,
        "exception_path": {
            "total": monitor.exceptions_total,
            "forwarded": monitor.exceptions_forwarded,
            "limited": monitor.exceptions_limited,
        },
        "quarantines": [
            {
                "time": _round(t),
                "node": node,
                "label": label,
                "fec": fec,
                "leaked_to": leaked_to,
            }
            for t, node, label, fec, leaked_to in monitor.quarantines
        ],
    }


def _controller_section(run: ChaosRun) -> Dict[str, Any]:
    """The gated ``controller`` report section (scenario has the key).

    Time-to-failover is how long the fastest crash-orphaned node took
    to detect the loss (hold-timer expiry minus crash time);
    time-to-readopt is the slowest resync (re-adoption minus the
    restart/heal that made it possible).  ``fecs_blackholed`` is
    cumulative over the run -- with delegation on it must stay zero.
    """
    pce = run.controller
    failovers = [
        {
            "at": _round(f["at"]),
            "node": f["node"],
            "reason": f["reason"],
            "detect_s": _round(f["detect_s"]),
            "orphaned_fecs": f["orphaned_fecs"],
            "delegated": f["delegated"],
        }
        for f in pce.failovers
    ]
    readopts = [
        {
            "at": _round(r["at"]),
            "node": r["node"],
            "reason": r["reason"],
            "rewrites": r["rewrites"],
            "restore_s": _round(r["restore_s"]),
        }
        for r in pce.readopts
    ]
    crash_detects = [
        f["detect_s"] for f in pce.failovers if f["reason"] == "crash"
    ]
    restores = [r["restore_s"] for r in pce.readopts]
    channels = [pce.channels[name] for name in sorted(pce.channels)]
    drops_by_cause: Dict[str, int] = {}
    for channel in channels:
        for cause, count in channel.drops_by_cause.items():
            drops_by_cause[cause] = drops_by_cause.get(cause, 0) + count
    return {
        "enabled": pce.config.enabled,
        "delegation": pce.config.delegation,
        "adoptions": len(pce.adoptions),
        "crashes": pce.crashes,
        "restarts": pce.restarts,
        "failovers": failovers,
        "readopts": readopts,
        "time_to_failover_s": (
            _round(min(crash_detects)) if crash_detects else None
        ),
        "time_to_readopt_s": _round(max(restores)) if restores else None,
        "fecs_orphaned": len(pce.orphaned_ever),
        "fecs_blackholed": len(pce.blackholed_ever),
        "blackholed_fecs": sorted(pce.blackholed_ever),
        "fecs_blackholed_final": len(pce.blackholed_now()),
        "resync": {
            "reads": pce.resync_reads,
            "transactions": pce.resync_transactions,
            "rewrites": pce.resync_rewrites,
        },
        "cspf": {
            "paths_computed": pce.paths_computed,
            "view_agreements": pce.view_agreements,
        },
        "channel": {
            "rpcs": sum(c.rpcs for c in channels),
            "replies": sum(c.replies for c in channels),
            "timeouts": sum(c.timeouts for c in channels),
            "drops_by_cause": dict(sorted(drops_by_cause.items())),
        },
    }


def summarize(
    run: ChaosRun, processed: int, sink=None, recorder=None
) -> ChaosReport:
    network, injector = run.network, run.injector
    sent = sum(s.sent for s in run.sources)
    if run.oam is not None or run.security is not None:
        # OAM probes and forged attack packets are deliveries too;
        # count traffic flows only so availability keeps meaning
        # delivered-traffic / sent-traffic
        delivered = sum(
            network.delivered_count(s.flow_id) for s in run.sources
        )
    else:
        delivered = network.delivered_count()
    dropped = network.drop_count()
    availability = _round(delivered / sent) if sent else None

    # packets that died inside a channel (loss, corruption, link-down
    # flush) never reach a node's drop log -- count them from the
    # channels themselves, including links that are still failed
    all_links = list(network.links.values()) + [
        link for link, _ in network._failed_links.values()
    ]
    link_lost = sum(
        ch.lost for link in all_links for ch in (link.forward, link.reverse)
    )
    link_corrupted = sum(
        ch.corrupted
        for link in all_links
        for ch in (link.forward, link.reverse)
    )

    # -- did the network become whole again? --------------------------------
    recovery_times = [
        r.recovered_at
        for r in injector.records
        if r.recovered_at is not None
    ]
    last_recovery = max(recovery_times) if recovery_times else None
    before = after = 0
    for drop in network.drops:
        if last_recovery is None or drop.time <= last_recovery:
            before += drop.count
        else:
            after += drop.count
    by_reason: Dict[str, int] = {}
    for drop in network.drops:
        reason = drop.reason.split(":")[-1].strip()
        by_reason[reason] = by_reason.get(reason, 0) + drop.count

    faults = [
        {
            "kind": r.spec.kind.value,
            "target": r.spec.label,
            "injected_at": _round(r.injected_at),
            "healed_at": _round(r.healed_at),
            "recovered_at": _round(r.recovered_at),
            "mttr_s": _round(r.mttr),
            "skipped": r.skipped,
            "detail": r.detail,
        }
        for r in injector.records
    ]
    mttrs = injector.mttr_values

    report: Dict[str, Any] = {
        "scenario": run.scenario.name,
        "seed": run.seed,
        "control": run.scenario.control,
        "hardware": run.scenario.hardware,
        "duration_s": run.scenario.duration,
        "sim_events_processed": processed,
        "traffic": {
            "sent": sent,
            "delivered": delivered,
            "dropped": dropped,
            "lost_on_links": link_lost,
            "corrupted_on_links": link_corrupted,
            "availability": availability,
        },
        "drops": {
            "before_last_recovery": before,
            "after_last_recovery": after,
            "by_reason": dict(sorted(by_reason.items())),
        },
        "faults": faults,
        "recovery": {
            "recovered": len(mttrs),
            "unrecovered": sum(
                1
                for r in injector.records
                if not r.skipped and r.mttr is None
            ),
            "mean_mttr_s": _round(sum(mttrs) / len(mttrs))
            if mttrs
            else None,
            "max_mttr_s": _round(max(mttrs)) if mttrs else None,
        },
    }

    if run.frr is not None:
        clock = STRATIX_EP1S40.clock_hz
        latencies = [s.latency_s for s in injector.switchovers]
        report["frr"] = {
            "switchovers": run.frr.switchovers,
            "reverts": len(injector.reverts),
            "switchover_latency_s": [_round(v) for v in latencies],
            "switchover_latency_cycles": [
                int(round(v * clock)) for v in latencies
            ],
        }
    if run.message_ldp is not None:
        mldp = run.message_ldp
        downtimes = [d for (_, _, _, d) in mldp.sessions_recovered]
        report["ldp_sessions"] = {
            "lost": len(mldp.sessions_lost),
            "recovered": len(mldp.sessions_recovered),
            "reconnect_attempts": mldp.reconnect_attempts,
            "abandoned": mldp.reconnects_abandoned,
            "mean_downtime_s": _round(sum(downtimes) / len(downtimes))
            if downtimes
            else None,
        }
    if run.scenario.overload is not None:
        report["overload"] = _overload_section(run)
    if run.scenario.flows is not None and run.flows is not None:
        report["flows"] = _flows_section(run)
        if run.alert_engine is not None:
            report["alerts"] = run.alert_engine.summary()
    if run.scenario.security is not None and run.security is not None:
        report["security"] = _security_section(run)
    if run.scenario.topo is not None and run.topo is not None:
        conv = run.topo.convergence()
        report["convergence"] = {
            "initial": conv["initial"],
            "disruptions": conv["disruptions"],
            "deltas": conv["deltas"],
            "snapshots": conv["snapshots"],
            "final_health": run.topo.live_view().health()["overall"],
            "verified": run.topo.verified,
            "mismatches": run.topo.mismatches,
        }
    if run.scenario.controller is not None and run.controller is not None:
        report["controller"] = _controller_section(run)
    if injector.restarts:
        restarts = []
        for restart in injector.restarts:
            window_end = (
                restart.resumed_at
                if restart.resumed_at is not None
                else run.scenario.duration
            )
            drops_at_node = sum(
                drop.count
                for drop in network.drops
                if drop.node == restart.node
                and restart.began_at <= drop.time <= window_end
            )
            restarts.append(
                {
                    "node": restart.node,
                    "began_at": _round(restart.began_at),
                    "resumed_at": _round(restart.resumed_at),
                    "hold_time_s": _round(restart.hold_time),
                    "hold_expired_at": _round(restart.hold_expired_at),
                    "stale_marked": {
                        "ilm": restart.ilm_stale_marked,
                        "ftn": restart.ftn_stale_marked,
                    },
                    "refreshed": {
                        "ilm": restart.ilm_stale_marked
                        - restart.ilm_flushed,
                        "ftn": restart.ftn_stale_marked
                        - restart.ftn_flushed,
                    },
                    "flushed": {
                        "ilm": restart.ilm_flushed,
                        "ftn": restart.ftn_flushed,
                    },
                    "stale_forwarding_s": _round(
                        restart.stale_forwarding_s
                    ),
                    "drops_at_node_during_restart": drops_at_node,
                }
            )
        report["graceful_restart"] = {
            "restarts": restarts,
            # per-flow outcome, keyed by the scenario's flow index --
            # a flow that never traverses a warm-restarting node must
            # show zero loss
            "flows": [
                {
                    "index": i,
                    "ingress": flow.ingress,
                    "egress": flow.egress,
                    "sent": source.sent,
                    "delivered": network.delivered_count(source.flow_id),
                    "lost": source.sent
                    - network.delivered_count(source.flow_id),
                }
                for i, (flow, source) in enumerate(
                    zip(run.scenario.traffic, run.sources)
                )
            ],
        }
    if run.auditor is not None:
        passes, checked, drift, repaired, alarms = run.auditor.summary()
        report["audit"] = {
            "passes": passes,
            "nodes_checked": checked,
            "drift_detected": drift,
            "repaired": repaired,
            "repair_cycles": run.auditor.repair_cycles,
            "watchdog_alarms": alarms,
            "clean": run.auditor.clean,
        }
    if injector.scrub_reports:
        report["scrub"] = {
            "runs": len(injector.scrub_reports),
            "checked": sum(r.checked for r in injector.scrub_reports),
            "corrupted": sum(r.corrupted for r in injector.scrub_reports),
            "repaired": sum(r.repaired for r in injector.scrub_reports),
            "cycles": sum(r.cycles for r in injector.scrub_reports),
            "clean": all(r.clean for r in injector.scrub_reports),
        }
    if injector.corrupted_packets:
        report["corrupted_packets"] = injector.corrupted_packets
    if run.oam is not None:
        oam_summary = run.oam.summary()
        fecs_out = []
        for entry in oam_summary["fecs"]:
            out = dict(entry)
            for key in ("rtt_min_s", "rtt_max_s", "rtt_mean_s"):
                if key in out:
                    out[key] = _round(out[key])
            out["transitions"] = [
                {"time": _round(t["time"]), "up": t["up"]}
                for t in out["transitions"]
            ]
            if out["up_at_end"] is False:
                # name the hop where the broken LSP dies (post-run
                # traceroute; safe here, the horizon has passed)
                out["localized_path"] = run.oam.localize(out["fec"]).path
            fecs_out.append(out)
        report["oam"] = {
            "period": oam_summary["period"],
            "timeout": oam_summary["timeout"],
            "slo_rtt_s": oam_summary["slo_rtt_s"],
            "fecs": fecs_out,
        }
    if recorder is not None:
        spans_summary = recorder.summary()
        spans_summary["fec_latency_quantiles"] = {
            fec: {q: _round(v) for q, v in quantiles.items()}
            for fec, quantiles in spans_summary[
                "fec_latency_quantiles"
            ].items()
        }
        report["spans"] = spans_summary
    if sink is not None:
        report["events"] = sink.kind_counts()
    return ChaosReport(
        report,
        recorder=recorder,
        flows=run.flows,
        collector=run.collector,
        alert_engine=run.alert_engine,
        topo=run.topo,
    )
