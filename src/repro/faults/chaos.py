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
  totals, graceful-restart outcomes when the scenario uses
  ``node-restart`` faults, and a span-tracing summary when the run was
  invoked with a sample rate,
* one section (or two) per subsystem the scenario arms: each optional
  scenario key is one row of
  :data:`~repro.faults.subsystems.SUBSYSTEMS`, which builds the
  subsystem and writes its section.  A report without the key has no
  section, so reports stay byte-identical as subsystems are added.

Everything in the report derives from simulated time and seeded
randomness -- the same (scenario, seed) pair yields a byte-identical
JSON report, which the CI determinism-smoke job checks literally
with ``cmp`` and against ``tests/faults/data/chaos_reports.sha256``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.device import STRATIX_EP1S40
from repro.faults.injector import FaultInjector
from repro.faults.scenario import Scenario
from repro.faults.subsystems import SUBSYSTEMS, Subsystem, _round, _rounded
from repro.mpls.fec import PrefixFEC
from repro.net.network import MPLSNetwork
from repro.net.traffic import CBRSource
from repro.obs import KindCountSink


@dataclass
class ChaosRun:
    """The live objects of one chaos run (exposed for tests)."""

    scenario: Scenario
    seed: int
    network: MPLSNetwork
    injector: Optional[FaultInjector] = None
    sources: List[CBRSource] = field(default_factory=list)
    ldp: Any = None
    message_ldp: Any = None
    frr: Any = None
    schedule: List[Any] = field(default_factory=list)
    auditor: Any = None
    oam: Any = None
    #: the parsed OverloadConfig the control plane was built with
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
    #: the telemetry the run's subsystems were handed
    telemetry: Any = None
    #: the rows of :data:`SUBSYSTEMS` the scenario arms, in build order
    armed: Tuple[Subsystem, ...] = ()


def build_run(scenario: Scenario, seed: int = 0) -> ChaosRun:
    """Construct the network, control plane, traffic, injector and
    every armed subsystem for one scenario without running it."""
    # every armed row parses first: a value no run can mean is refused
    # before anything is built or scheduled
    configs = {
        sub.key: sub.parse(raw, scenario)
        for sub in SUBSYSTEMS
        if (raw := getattr(scenario, sub.key)) is not None
    }
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
    run = ChaosRun(
        scenario, seed, network, telemetry=network.telemetry,
        armed=tuple(sub for sub in SUBSYSTEMS if sub.key in configs),
        # the control plane is built with it
        overload=configs.get("overload"),
    )

    def arm(after: str) -> None:
        for sub in run.armed:
            if sub.after == after:
                sub.build(run, configs[sub.key])

    arm("network")
    _control_plane(run)
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
        run.sources.append(source)
    arm("sources")
    run.injector = FaultInjector(
        network,
        ldp=run.ldp,
        message_ldp=run.message_ldp,
        frr=run.frr,
        detection_delay_s=scenario.detection_delay_s,
        seed=seed,
        security=run.security,
        controller=run.controller,
    )
    run.schedule = run.injector.apply(scenario, seed)
    arm("injector")
    return run


def _control_plane(run: ChaosRun) -> None:
    """The scenario's ``control`` plane, its FECs announced.  The
    overload config, when there is one, bounds message-LDP's queues and
    switches RSVP-TE preemption."""
    scenario, network, overload = run.scenario, run.network, run.overload
    topology = network.topology
    if scenario.control == "ldp":
        from repro.control.ldp import LDPProcess

        run.ldp = LDPProcess(topology, network.nodes)
        for flow in scenario.traffic:
            run.ldp.establish_fec(PrefixFEC(flow.prefix), egress=flow.egress)
    elif scenario.control == "ldp-messages":
        from repro.control.ldp_sessions import MessageLDPProcess

        run.message_ldp = MessageLDPProcess(
            topology,
            network.nodes,
            network.scheduler,
            overload=overload,
            retry_jitter=getattr(overload, "retry_jitter", 0.0),
            jitter_seed=run.seed,
        )
        run.message_ldp.start()
        for flow in scenario.traffic:
            run.message_ldp.announce_fec(
                flow.prefix, PrefixFEC(flow.prefix), egress=flow.egress
            )
    else:  # frr
        from repro.control.frr import FastRerouteManager
        from repro.control.rsvp_te import RSVPTESignaler

        signaler = RSVPTESignaler(topology, network.nodes)
        signaler.preemption_enabled = getattr(overload, "enabled", True)
        run.frr = FastRerouteManager(signaler)
        for lsp in scenario.protection:
            run.frr.protect(
                lsp.name, lsp.ingress, lsp.egress, PrefixFEC(lsp.prefix),
                bandwidth_bps=lsp.bandwidth_bps,
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


@contextmanager
def finish(run: ChaosRun, recorder=None) -> Iterator[Any]:
    """Close a run out around its simulation::

        with finish(run, recorder) as sink:
            processed = run.network.run(until=...)

    The body runs under a per-kind event tally (``sink``; None with
    telemetry off).  A clean exit finalizes the injector, the span
    recorder and every armed row, newest first.  However the body
    ended, nothing the run hooked to its telemetry stays hooked.
    """
    tel = run.telemetry
    # the report reads only the per-kind tally, so no event is retained
    sink = tel.events.add_sink(KindCountSink()) if tel.enabled else None
    try:
        try:
            yield sink
        finally:
            if sink is not None:
                tel.events.remove_sink(sink)
        run.injector.finalize()
        if recorder is not None:
            recorder.finalize()
        for sub in reversed(run.armed):
            sub.finalize(run)
    finally:
        if recorder is not None:
            recorder.detach()
        for sub in run.armed:
            sub.detach(run)


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
        for sub in run.armed:
            flow_fecs.update(sub.flow_fecs(run))
        recorder = SpanRecorder(
            sample_rate=sample_rate,
            flow_fecs=flow_fecs,
            nodes=set(run.network.nodes),
            telemetry=run.telemetry,
        )
    with finish(run, recorder) as sink:
        processed = run.network.run(until=scenario.duration)
    return summarize(run, processed, sink, recorder=recorder)


def summarize(
    run: ChaosRun, processed: int, sink=None, recorder=None
) -> ChaosReport:
    network, injector = run.network, run.injector
    sent = sum(s.sent for s in run.sources)
    # OAM probes and forged attack packets are deliveries too; count
    # traffic flows only so availability keeps meaning delivered-traffic
    # / sent-traffic
    delivered = sum(network.delivered_count(s.flow_id) for s in run.sources)
    dropped = network.drop_count()
    availability = _round(delivered / sent) if sent else None

    # packets that died inside a channel (loss, corruption, link-down
    # flush) never reach a node's drop log -- count them from the
    # channels themselves, including links that are still failed
    channels = [
        ch
        for link in [*network.links.values(),
                     *(link for link, _ in network._failed_links.values())]
        for ch in (link.forward, link.reverse)
    ]

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
            "lost_on_links": sum(ch.lost for ch in channels),
            "corrupted_on_links": sum(ch.corrupted for ch in channels),
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
    if recorder is not None:
        spans_summary = recorder.summary()
        spans_summary["fec_latency_quantiles"] = {
            fec: _rounded(quantiles)
            for fec, quantiles in spans_summary["fec_latency_quantiles"].items()
        }
        report["spans"] = spans_summary
    if sink is not None:
        report["events"] = sink.kind_counts()
    # a row whose section runs the scheduler on (a traceroute) goes last
    for sub in sorted(run.armed, key=lambda sub: sub.traces):
        report.update(sub.section(run))
    return ChaosReport(
        report,
        recorder=recorder,
        flows=run.flows,
        collector=run.collector,
        alert_engine=run.alert_engine,
        topo=run.topo,
    )
