"""The control planes a chaos run can run: one row each.

The paper leaves label distribution and information-base programming
to software "routing functionality" running one protocol.  A chaos run
likewise runs exactly one plane, named by the scenario's ``control``
value, and :data:`CONTROL_PLANES` holds one row per value.  A row is the
one place that knows its plane.  Bound to its run's protocol process,
it

* builds the process and announces the scenario's FECs;
* reacts to what the :class:`~repro.faults.injector.FaultInjector`
  detects: links lost, links back (a heal, or a cold-restarted node's
  links), a node crashing and coming back, and -- on a plane a graceful
  restart may run under -- a restart resuming and the nodes whose
  tables share its hold timer;
* refreshes one node in place when the PCE re-adopts it;
* writes its report section;
* checks the topology observer's view against its ground truth.

A row missing a hook fails when its class is made, not when a scenario
first runs it; a row ``node-restart`` may run under (its ``controls``)
also needs the restart hooks.  Each row imports its protocol module
only when a run builds it.  The base class bound to nothing,
``NO_PLANE``, is no plane at all (every hook a no-op): what an
injector, PCE or monitor built without distributed control runs
against.

Adding a control plane is one row here plus its protocol module; a
fault kind that needs it names the row in its ``controls``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.device import STRATIX_EP1S40
from repro.faults.scenario import FAULT_KINDS, FaultKind
from repro.mpls.fec import PrefixFEC
from repro.obs.events import round9

#: the hooks every row defines itself
HOOKS = ("build", "links_lost", "links_back", "refresh", "verify")
#: and a row a graceful restart may run under
RESTART_HOOKS = ("resume", "helpers")


@dataclass
class SwitchoverRecord:
    """One FRR switchover triggered by an injected failure."""

    time: float
    link: Tuple[str, str]
    paths: List[str] = field(default_factory=list)
    #: failure injection -> FTN rewritten (the detection delay plus
    #: the constant-time switchover itself, which is instantaneous in
    #: simulated time: a single FTN write)
    latency_s: float = 0.0


class ControlPlane:
    """One row of :data:`CONTROL_PLANES`, bound to its run's protocol
    ``process``.

    A row defines ``build(run)`` (a classmethod: the process built and
    the FECs announced, as a bound row), ``links_lost(record, links,
    reason)``, ``links_back(links)``, ``refresh(name)`` (the entries
    rewritten) and ``verify(view, link_pairs)`` (the observed
    view's mismatches).  The other hooks default to doing nothing, and
    ``section()`` to no report section.
    """

    #: the scenario ``control`` value it runs
    control: Optional[str] = None
    #: node -> bounded control queue (the ``overload`` key's)
    queues: Mapping[str, Any] = {}
    #: node -> LDP speaker, the per-session label state
    speakers: Mapping[str, Any] = {}

    def __init__(self, process: Any = None) -> None:
        self.process = process

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        hooks = HOOKS
        if cls.control in FAULT_KINDS[FaultKind.NODE_RESTART].controls:
            hooks += RESTART_HOOKS
        for hook in hooks:
            if hook not in vars(cls):
                raise TypeError(f"control plane {cls.control!r} has no {hook}")

    def links_lost(self, record, links, reason: str) -> None:
        """The injector detected ``links`` down (``record`` the fault)."""

    def links_back(self, links) -> None:
        """The injector detected ``links`` up again."""

    def node_down(self, name: str) -> None:
        """``name`` crashed (told at the crash, before detection)."""

    def node_up(self, name: str) -> None:
        """``name`` is back from a crash."""

    def refresh(self, name: str) -> int:
        return 0

    def section(self) -> Dict[str, Any]:
        return {}

    def secure(self, monitor) -> None:
        """Check the plane's sessions against the security monitor."""

    def exception_load(self, node: str, count: int) -> None:
        """``count`` TTL-exception punts land on ``node``'s control CPU."""


#: no control plane: every hook a no-op
NO_PLANE = ControlPlane()


def _egress_of(scenario) -> Dict[str, str]:
    """Each prefix once, at its one egress, however many flows send to
    it (a multipoint-to-point LSP)."""
    return {flow.prefix: flow.egress for flow in scenario.traffic}


class ConvergedLDP(ControlPlane):
    """Converged LDP: state appears at once, and every topology change
    the injector detects is one transactional reconvergence."""

    control = "ldp"

    @classmethod
    def build(cls, run):
        from repro.control.ldp import LDPProcess

        network = run.network
        ldp = LDPProcess(network.topology, network.nodes)
        for prefix, egress in _egress_of(run.scenario).items():
            ldp.establish_fec(PrefixFEC(prefix), egress=egress)
        return cls(ldp)

    def links_lost(self, record, links, reason):
        self.process.reconverge()

    def links_back(self, links):
        # a healed link is taken back; a cold-restarted node's cleared
        # tables are re-programmed (and everyone routing through it)
        self.process.reconverge()

    def node_down(self, name):
        self.process.down_nodes.add(name)

    def node_up(self, name):
        self.process.down_nodes.discard(name)

    def refresh(self, name):
        ilm, ftn = self.process.refresh_node(name)
        return ilm + ftn

    def resume(self, name: str) -> str:
        """``name``'s restart resumed (the network reconverges at once):
        the ``detail`` the fault record gains."""
        ilm, ftn = self.process.complete_graceful_restart(name)
        return f"; resumed, {ilm}+{ftn} entries await flush"

    def helpers(self, name: str) -> Iterable[str]:
        """The nodes besides ``name`` whose stale entries its hold timer
        flushes."""
        return ()

    def verify(self, view, link_pairs):
        expected: Dict[str, Dict[str, Any]] = {}
        for binding in self.process.bindings:
            expected[str(binding.fec)] = {
                node: {"label": label, "next_hop": binding.next_hops.get(node)}
                for node, label in binding.labels.items()
            }
        return [
            f"fec {fec_id}: observed {view['fecs'].get(fec_id)} != "
            f"bindings {expected.get(fec_id)}"
            for fec_id in sorted(set(view["fecs"]) | set(expected))
            if view["fecs"].get(fec_id) != expected.get(fec_id)
        ]


class MessageLDP(ControlPlane):
    """Message-level LDP: sessions, backoff reconnects and (with the
    ``overload`` key) bounded control queues, over simulated time."""

    control = "ldp-messages"

    def __init__(self, process) -> None:
        super().__init__(process)
        self.queues, self.speakers = process.queues, process.speakers

    @classmethod
    def build(cls, run):
        from repro.control.ldp_sessions import MessageLDPProcess

        network = run.network
        mldp = MessageLDPProcess(
            network.topology, network.nodes, network.scheduler,
            overload=run.overload,
        )
        mldp.start()
        for prefix, egress in _egress_of(run.scenario).items():
            mldp.announce_fec(prefix, PrefixFEC(prefix), egress=egress)
        return cls(mldp)

    def links_lost(self, record, links, reason):
        for a, b in links:
            self.process.drop_session(a, b, reason=reason)

    def links_back(self, links):
        pass  # sessions re-establish on their own via the backoff retries

    # refresh_node's (ILM, FTN) rewrites, as for converged LDP
    refresh = ConvergedLDP.refresh

    def resume(self, name):
        # the process re-discovers its peers; refreshes arrive as
        # sessions re-form over simulated time
        self.process.complete_graceful_restart(name)
        return "; resumed, sessions re-forming"

    def helpers(self, name):
        # helper peers stale-marked their entries routed via the
        # restarting node; their hold timer is the same one
        return self.process.topology.neighbors(name)

    def secure(self, monitor):
        self.process.security = monitor

    def exception_load(self, node, count):
        self.process.exception_load(node, count)

    def section(self):
        mldp = self.process
        downtimes = [d for (_, _, _, d) in mldp.sessions_recovered]
        return {"ldp_sessions": {
            "lost": len(mldp.sessions_lost),
            "recovered": len(mldp.sessions_recovered),
            "reconnect_attempts": mldp.reconnect_attempts,
            "abandoned": mldp.reconnects_abandoned,
            "mean_downtime_s": round9(sum(downtimes) / len(downtimes))
            if downtimes
            else None,
        }}

    def verify(self, view, link_pairs):
        problems = []
        adjacencies = view["adjacencies"]
        for a, b in link_pairs:
            observed = (adjacencies.get(f"{a}>{b}") == "up"
                        and adjacencies.get(f"{b}>{a}") == "up")
            actual = (b in self.speakers[a].sessions
                      and a in self.speakers[b].sessions)
            if observed != actual:
                problems.append(
                    f"adjacency {a}<->{b}: observed "
                    f"{'up' if observed else 'down'}, speakers say "
                    f"{'up' if actual else 'down'}"
                )
        fecs = self.process.fecs
        for fec_id, state in fecs.items():
            observed_labels = {
                node: entry["label"]
                for node, entry in view["fecs"].get(fec_id, {}).items()
            }
            if observed_labels != dict(state.advertised):
                problems.append(
                    f"fec {fec_id}: observed bindings {observed_labels} "
                    f"!= advertised {dict(state.advertised)}"
                )
        problems.extend(f"fec {fec_id}: observed but unknown"
                        for fec_id in view["fecs"] if fec_id not in fecs)
        return problems


class FRR(ControlPlane):
    """RSVP-TE protected LSPs: a detected failure switches the LSPs
    over it to their backups, a detected heal reverts them."""

    control = "frr"

    def __init__(self, process, scheduler) -> None:
        super().__init__(process)
        #: the run's clock, which stamps switchovers and reverts
        self.scheduler = scheduler
        self.switchovers: List[SwitchoverRecord] = []
        #: (time, protected path) per revert to a primary
        self.reverts: List[Tuple[float, str]] = []

    @classmethod
    def build(cls, run):
        from repro.control.frr import FastRerouteManager
        from repro.control.rsvp_te import RSVPTESignaler

        network = run.network
        frr = FastRerouteManager(
            RSVPTESignaler(network.topology, network.nodes)
        )
        for lsp in run.scenario.protection:
            frr.protect(
                lsp.name, lsp.ingress, lsp.egress, PrefixFEC(lsp.prefix)
            )
        return cls(frr, network.scheduler)

    def links_lost(self, record, links, reason):
        now = self.scheduler.now
        for a, b in links:
            repaired = self.process.handle_link_failure(a, b)
            if repaired:
                self.switchovers.append(SwitchoverRecord(
                    time=now, link=(a, b), paths=repaired,
                    latency_s=now - record.injected_at,
                ))

    def links_back(self, links):
        for a, b in links:
            for name in self.process.handle_link_recovery(a, b):
                self.reverts.append((self.scheduler.now, name))

    def refresh(self, name):
        return (self.process.signaler.refresh_node(name)
                + self.process.refresh_ingress(name))

    def section(self):
        clock = STRATIX_EP1S40.clock_hz
        latencies = [s.latency_s for s in self.switchovers]
        return {"frr": {
            "switchovers": self.process.switchovers,
            "reverts": len(self.reverts),
            "switchover_latency_s": [round9(v) for v in latencies],
            "switchover_latency_cycles": [
                int(round(v * clock)) for v in latencies
            ],
        }}

    def verify(self, view, link_pairs):
        problems = []
        observed_up = {
            name for name, entry in view["lsps"].items()
            if entry["state"] == "up"
        }
        actual_up = set(self.process.signaler.lsps)
        if observed_up != actual_up:
            problems.append(
                f"lsps up: observed {sorted(observed_up)} != "
                f"signaled {sorted(actual_up)}"
            )
        actual_active = {
            name: p.active for name, p in self.process.protected.items()
        }
        observed_active = dict(view["frr"])
        # a protected path that never switched over has no event;
        # absence means primary
        for name in actual_active:
            observed_active.setdefault(name, "primary")
        if observed_active != actual_active:
            problems.append(
                f"frr active paths: observed {observed_active} != "
                f"{actual_active}"
            )
        return problems


#: the plane table: ``control`` value -> its row
CONTROL_PLANES: Dict[str, type] = {
    row.control: row for row in (ConvergedLDP, MessageLDP, FRR)
}
