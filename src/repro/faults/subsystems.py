"""The subsystems a chaos run can arm: one row each.

A scenario key (``topo``, ``overload``, ``security`` ...) arms one
subsystem, and :data:`SUBSYSTEMS` holds one row per key.  A row says
everything the harness knows about its subsystem:

* how the key's object parses into a typed config -- a value no run
  can mean is one :class:`ScenarioError` naming the key and the field,
  raised before anything is built;
* what the fault kinds that need the key are told (:data:`KIND_KEYS`);
* how it is built into a :class:`~repro.faults.chaos.ChaosRun`, and
  finalized and detached when the run ends;
* the report section(s) it adds;
* the ``repro chaos`` flag that overrides it.

The rows are in construction order.  Scheduler sequence ties decide
report bytes, so the order is part of the contract: ``topo`` is armed
before the control plane, ``security`` and ``controller`` after the
traffic sources, and ``audit``, ``oam``, the ``overload`` shedder and
``flows`` after the fault injector.  Each row imports its subsystem's
module only when a scenario arms it.

Adding a subsystem is one row here plus the subsystem's own module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.config import (
    AMOUNT,
    BOOL,
    POSITIVE,
    SIZE,
    ScenarioError,
    build,
    read,
)


def _round(value: Optional[float]) -> Optional[float]:
    """Stable float formatting for reports (sub-nanosecond noise would
    still be deterministic, but rounding keeps diffs readable)."""
    return None if value is None else round(value, 9)


def _rounded(record: Mapping[str, Any]) -> Dict[str, Any]:
    """``record`` with every float in it rounded as by :func:`_round`."""
    return {k: round(v, 9) if isinstance(v, float) else v
            for k, v in record.items()}


def _alert_rules(value):
    from repro.obs.alerts import AlertRule

    if not isinstance(value, list):
        raise ValueError("must be a list of rule objects")
    rules = [build(AlertRule, f"alerts: rule {r!r}", r) for r in value]
    if len({rule.name for rule in rules}) < len(rules):
        raise ValueError("rule names must be unique")
    return rules


@dataclass(frozen=True)
class Flag:
    """A ``repro chaos`` override: ``--<name>`` arms its row whatever
    the scenario file says, laying ``{field: value}`` over the file's
    own object.  An ``enabled`` flag is an ``on|off`` switch; any other
    takes a number (``--audit PERIOD``)."""

    name: str
    field: str
    help: str

    @property
    def switch(self) -> bool:
        return self.field == "enabled"

    def config(self, value) -> Dict[str, Any]:
        return {self.field: value == "on" if self.switch else value}


class Subsystem:
    """One row of :data:`SUBSYSTEMS`.

    A row defines ``parse``, ``build`` and ``section``; a class missing
    one fails when it is made, not when a scenario first arms it.
    """

    #: the scenario key that arms it
    key: str
    #: the core build step it is armed after: ``"network"``,
    #: ``"sources"`` or ``"injector"``
    after: str
    #: scenario keys the row also reads, each needing the row's own key
    #: (key -> why)
    carries: Mapping[str, str] = {}
    #: when fault kinds need the key: (the ``--list-faults`` tag, what
    #: the injector calls the subsystem, why such faults need it)
    kinds: Optional[Tuple[str, str, str]] = None
    flag: Optional[Flag] = None
    #: the section runs the scheduler past the horizon, so it is read
    #: after every other section
    traces: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for hook in ("parse", "build", "section"):
            if hook not in vars(cls):
                raise TypeError(f"subsystem {cls.key!r} has no {hook}")

    def parse(self, raw: Mapping[str, Any], scenario) -> Any:
        """The key's object (``raw``) as the typed config ``build`` takes."""

    def build(self, run, cfg) -> None:
        """Arm the subsystem on ``run``."""

    def section(self, run) -> Dict[str, Any]:
        """The report section(s) the armed subsystem adds."""

    def finalize(self, run) -> None:
        """End of run, before the report."""

    def detach(self, run) -> None:
        """Unhook from the run's telemetry; repeating it is a no-op."""

    def flow_fecs(self, run) -> Dict[int, str]:
        """flow id -> FEC of the packets the subsystem sends itself (the
        span recorder's labels)."""
        return {}


class Topo(Subsystem):
    key = "topo"
    # armed before the control plane so the initial label distribution
    # (and everything after) lands in the database
    after = "network"

    def parse(self, raw, scenario):
        return read(self.key, raw, {"snapshot_every": (SIZE, 64)})

    def build(self, run, cfg):
        if not run.telemetry.enabled:
            return  # the observer is fed by the event stream
        from repro.obs.topo import TopologyObserver

        run.topo = TopologyObserver(run.network.topology, **cfg)
        run.topo.attach(run.telemetry)

    def finalize(self, run):
        if run.topo is not None:
            # verify the observed database against ground truth and
            # publish the health/convergence metrics
            run.topo.finalize(run)

    def detach(self, run):
        if run.topo is not None:
            run.topo.detach()

    def section(self, run):
        topo = run.topo
        if topo is None:
            return {}
        return {"convergence": {
            **topo.convergence(),
            "final_health": topo.live_view().health()["overall"],
            "verified": topo.verified,
            "mismatches": topo.mismatches,
        }}


class Security(Subsystem):
    key = "security"
    after = "sources"
    kinds = (
        "adversarial",
        "a security monitor",
        "adversarial faults are measured against the security monitor's "
        "guards (set \"enabled\": false to run them unmitigated)",
    )
    flag = Flag(
        "mitigation", "enabled",
        "force the security guards on, or stand them down for the "
        "unmitigated blast-radius baseline (overrides the scenario's "
        "own 'security.enabled' key)",
    )

    def parse(self, raw, scenario):
        from repro.security import SecurityConfig

        return build(SecurityConfig, self.key, raw)

    def build(self, run, cfg):
        from repro.security import SecurityMonitor

        traffic = run.scenario.traffic
        monitor = run.security = SecurityMonitor(
            run.network, cfg, message_ldp=run.message_ldp
        )
        monitor.flows = [
            (flow.prefix, flow.egress, source.flow_id)
            for flow, source in zip(traffic, run.sources)
        ]
        monitor.flow_dsts = {flow.prefix: flow.dst for flow in traffic}
        monitor.arm()

    def finalize(self, run):
        run.security.finalize()

    def section(self, run):
        monitor = run.security
        cfg = vars(monitor.config)
        blast = sorted(set().union(*(r.blast_fecs for r in monitor.attacks)))
        return {"security": {
            "enabled": cfg["enabled"],
            "guards": {k: v for k, v in cfg.items() if k != "enabled"},
            "attacks": [
                _rounded({
                    "kind": r.kind,
                    "target": r.target,
                    "injected_at": r.injected_at,
                    "detected_at": r.detected_at,
                    "time_to_detect_s": r.time_to_detect,
                    "mitigated_at": r.mitigated_at,
                    "time_to_mitigate_s": r.time_to_mitigate,
                    "blast_radius_fecs": r.blast_radius,
                    "blast_fecs": sorted(r.blast_fecs),
                    "quarantined_fecs": sorted(r.quarantined_fecs),
                    "packets_accepted": r.packets_accepted,
                    "packets_rejected": r.packets_rejected,
                    "packets_leaked": r.packets_leaked,
                    "detail": r.detail,
                })
                for r in monitor.attacks
            ],
            "blast_radius_total": len(blast),
            "blast_fecs_total": blast,
            "guard_rejections": monitor.guard_rejections,
            "auth_mismatches": monitor.auth_mismatches,
            "exception_path": {
                "total": monitor.exceptions_total,
                "forwarded": monitor.exceptions_forwarded,
                "limited": monitor.exceptions_limited,
            },
            "quarantines": [
                _rounded(dict(zip(("time", "node", "label", "fec", "leaked_to"), q)))
                for q in monitor.quarantines
            ],
        }}


class Controller(Subsystem):
    key = "controller"
    after = "sources"
    kinds = (
        "controller",
        "a PCE controller",
        "controller faults act on the PCE and its node channels (set "
        "\"enabled\": false to run them against a dark controller)",
    )
    flag = Flag(
        "controller", "enabled",
        "arm the centralized PCE controller, or run it dark for the "
        "pure-distributed baseline (overrides the scenario's own "
        "'controller.enabled' key)",
    )

    def parse(self, raw, scenario):
        from repro.control.controller import ControllerConfig

        return ControllerConfig.from_dict(raw, horizon=scenario.duration)

    def build(self, run, cfg):
        from repro.control.controller import PCEController
        from repro.mpls.fec import PrefixFEC

        run.controller = PCEController(
            run.network,
            cfg,
            ldp=run.ldp,
            message_ldp=run.message_ldp,
            frr=run.frr,
            fec_specs=[
                (PrefixFEC(flow.prefix), flow.ingress, flow.egress)
                for flow in run.scenario.traffic
            ],
            seed=run.seed,
        )
        run.controller.start()

    def section(self, run):
        """Time-to-failover is how long the fastest crash-orphaned node
        took to detect the loss (hold-timer expiry minus crash time);
        time-to-readopt is the slowest resync (re-adoption minus the
        restart/heal that made it possible).  ``fecs_blackholed`` is
        cumulative over the run -- with delegation on it must stay zero.
        """
        pce = run.controller
        channels = [pce.channels[name] for name in sorted(pce.channels)]
        drops_by_cause = Counter()
        for channel in channels:
            drops_by_cause.update(channel.drops_by_cause)
        return {"controller": {
            "enabled": pce.config.enabled,
            "delegation": pce.config.delegation,
            "adoptions": len(pce.adoptions),
            "crashes": pce.crashes,
            "restarts": pce.restarts,
            "failovers": [_rounded(f) for f in pce.failovers],
            "readopts": [_rounded(r) for r in pce.readopts],
            "time_to_failover_s": _round(min(
                (f["detect_s"] for f in pce.failovers if f["reason"] == "crash"),
                default=None,
            )),
            "time_to_readopt_s": _round(max(
                (r["restore_s"] for r in pce.readopts), default=None
            )),
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
        }}


class Audit(Subsystem):
    key = "audit"
    after = "injector"
    flag = Flag(
        "audit", "period",
        "run the data-plane consistency auditor every PERIOD "
        "simulated seconds (overrides the scenario's own 'audit' key)",
    )

    def parse(self, raw, scenario):
        return read(self.key, raw, {
            "period": (POSITIVE, 0.1),
            "start": (AMOUNT, None),
            "repair": (BOOL, True),
        })

    def build(self, run, cfg):
        from repro.faults.auditor import ConsistencyAuditor

        run.auditor = ConsistencyAuditor(
            run.network, stop=run.scenario.duration, security=run.security,
            **cfg,
        )

    def section(self, run):
        passes, checked, drift, repaired, alarms = run.auditor.summary()
        return {"audit": {
            "passes": passes,
            "nodes_checked": checked,
            "drift_detected": drift,
            "repaired": repaired,
            "repair_cycles": run.auditor.repair_cycles,
            "watchdog_alarms": alarms,
            "clean": run.auditor.clean,
        }}


class OAM(Subsystem):
    key = "oam"
    after = "injector"
    # a broken LSP's section entry comes from a post-run traceroute
    traces = True

    def parse(self, raw, scenario):
        cfg = read(self.key, raw, {
            "period": (POSITIVE, 0.05),
            "start": (AMOUNT, 0.0),
            "timeout": (POSITIVE, None),
            "slo_rtt_s": (AMOUNT, None),
        })
        if cfg["timeout"] is None:
            cfg["timeout"] = cfg["period"]
        if cfg["start"] + cfg["timeout"] > scenario.duration:
            raise ScenarioError(
                f"{self.key}: bad timeout {cfg['timeout']!r}: start + "
                f"timeout must not pass the {scenario.duration} s horizon, "
                "or no probe ever concludes"
            )
        return cfg

    def build(self, run, cfg):
        from repro.control.oam import OAMMonitor, ProbeTarget

        run.oam = OAMMonitor(
            run.network,
            [
                ProbeTarget(
                    fec=flow.prefix,
                    ingress=flow.ingress,
                    destination=flow.dst,
                )
                for flow in run.scenario.traffic
            ],
            # the last probe's verdict check must land inside the run
            # horizon, or it would stay pending forever
            stop=run.scenario.duration - cfg["timeout"],
            **cfg,
        )

    def flow_fecs(self, run):
        return {fid: fec for fec, fid in run.oam.flow_ids.items()}

    def section(self, run):
        summary = run.oam.summary()
        fecs = []
        for entry in summary["fecs"]:
            out = _rounded(entry)
            out["transitions"] = [_rounded(t) for t in out["transitions"]]
            if out["up_at_end"] is False:
                # name the hop where the broken LSP dies (post-run
                # traceroute; safe here, the horizon has passed)
                out["localized_path"] = run.oam.localize(out["fec"]).path
            fecs.append(out)
        return {"oam": {**summary, "fecs": fecs}}


class Overload(Subsystem):
    """Bounded, prioritized control queues (the control plane is built
    with ``run.overload``), RSVP-TE preemption, and the ingress shedder
    armed here."""

    key = "overload"
    after = "injector"
    flag = Flag(
        "overload", "enabled",
        "force control-plane overload protection on or run the "
        "unprotected bounded-FIFO baseline (overrides the scenario's "
        "own 'overload.enabled' key)",
    )

    def parse(self, raw, scenario):
        from repro.control.overload import OverloadConfig

        return OverloadConfig.from_dict(raw, horizon=scenario.duration)

    def build(self, run, cfg):
        mldp = run.message_ldp
        if not cfg.enabled or mldp is None:
            return
        from repro.control.overload import IngressShedder, ShedEntry

        run.shedder = IngressShedder(
            [
                ShedEntry(
                    prefix=flow.prefix, cos=flow.cos, ingress=flow.ingress
                )
                for flow in run.scenario.traffic
            ],
            pressure=lambda: max(
                q.fill_fraction for q in mldp.queues.values()
            ),
            config=cfg,
            scheduler=run.network.scheduler,
        )
        run.network.ingress_guard = run.shedder.guard
        run.shedder.arm()

    def section(self, run):
        from repro.control.overload import CLASS_NAMES, MessageClass

        section: Dict[str, Any] = {"enabled": run.overload.enabled}
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
        shedder = run.shedder
        if shedder is not None:
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
                "shed_events": [_rounded(dict(zip(("time", "prefix", "cos"), e)))
                                for e in shedder.shed_events],
                "restore_events": [_rounded(dict(zip(("time", "prefix", "cos"), e)))
                                   for e in shedder.restore_events],
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
        return {"overload": section}


class Flows(Subsystem):
    """Flow accounting and the traffic-matrix collector, plus the alert
    engine the ``alerts`` key adds on the collector's tick."""

    key = "flows"
    after = "injector"
    carries = {
        "alerts": "the alert engine is evaluated on the traffic-matrix "
        "collector tick",
    }

    def parse(self, raw, scenario):
        cfg = read(self.key, raw, {
            "active_timeout": (POSITIVE, 1.0),
            "idle_timeout": (POSITIVE, 0.25),
            "capacity": (SIZE, 4096),
            "matrix_period": (POSITIVE, 0.1),
            "matrix_start": (AMOUNT, None),
        })
        alerts = scenario.alerts
        cfg["rules"] = None if alerts is None else read(
            "alerts", alerts, {"rules": (_alert_rules, [])}
        )["rules"]
        return cfg

    def build(self, run, cfg):
        from repro.obs.alerts import AlertEngine
        from repro.obs.flows import FlowAccountant, MatrixCollector

        network, sources = run.network, run.sources
        run.flows = FlowAccountant(
            active_timeout=cfg["active_timeout"],
            idle_timeout=cfg["idle_timeout"],
            capacity=cfg["capacity"],
            flow_fecs={
                source.flow_id: flow.prefix
                for flow, source in zip(run.scenario.traffic, sources)
            },
            # runtime flow ids come from a process-global counter;
            # export the scenario flow index instead so flow-record
            # exports are byte-stable across runs
            flow_ids={source.flow_id: i for i, source in enumerate(sources)},
            telemetry=run.telemetry,
        )
        if cfg["rules"] is not None:
            run.alert_engine = AlertEngine(cfg["rules"], run.telemetry)
        run.collector = MatrixCollector(
            run.flows,
            network.scheduler,
            bandwidths={
                (ch.src.node, ch.dst.node): ch.bandwidth_bps
                for link in network.links.values()
                for ch in (link.forward, link.reverse)
            },
            period=cfg["matrix_period"],
            start=cfg["matrix_start"],
            stop=run.scenario.duration,
            alerts=run.alert_engine,
        )

    def finalize(self, run):
        run.flows.finalize()

    def detach(self, run):
        if run.flows is not None:
            run.flows.detach()

    def section(self, run):
        accountant, collector = run.flows, run.collector
        flows = {
            **accountant.summary(),
            "top_talkers": accountant.top_talkers(5),
            "matrix_snapshots": len(collector.matrices),
            "peak_link_utilization": [
                {"src": src, "dst": dst, "utilization": _round(util)}
                for (src, dst), util in sorted(
                    collector.peak_utilization().items()
                )
            ],
        }
        if collector.latest is not None:
            flows["final_matrix"] = collector.latest.as_dict()
        if run.alert_engine is None:
            return {"flows": flows}
        return {"flows": flows, "alerts": run.alert_engine.summary()}


#: the subsystem table, in construction order
SUBSYSTEMS: Tuple[Subsystem, ...] = (
    Topo(), Security(), Controller(), Audit(), OAM(), Overload(), Flows(),
)

# views of the table
#: every optional scenario key: each an object configuring what it arms,
#: or absent (None) to run without it
SUBSYSTEM_KEYS = tuple(
    key for sub in SUBSYSTEMS for key in (sub.key, *sub.carries)
)
#: the scenario keys fault kinds need (a kind row's ``key``) -> (the
#: ``--list-faults`` tag, what the injector calls it, why such faults
#: need it)
KIND_KEYS: Dict[str, Tuple[str, str, str]] = {
    sub.key: sub.kinds for sub in SUBSYSTEMS if sub.kinds is not None
}
#: ``repro chaos`` flag name -> its row
FLAGS: Dict[str, Subsystem] = {
    sub.flag.name: sub for sub in SUBSYSTEMS if sub.flag is not None
}
