"""Centralized Path Computation Element with crash/partition failover.

The ROADMAP's "POX-style centralized controller": a PCE that owns
global CSPF over the telemetry-fed :class:`~repro.obs.topo.TopologyView`
and programs nodes exclusively through the transactional table API
(:class:`~repro.mpls.transaction.TableTransaction`) over an explicit
controller<->node channel.  The channel is deliberately fallible --
bounded priority queues reusing PR 5's overload machinery, per-RPC
timeouts, exponential-backoff reconnect with seeded jitter
(:class:`~repro.control.retry.ReconnectBackoff`) -- because robustness
is the point:

* ``controller-crash`` -- the controller process dies and later warm
  restarts, resyncing from node read-back plus event replay, with
  RFC 3478-style stale-marking of controller-programmed entries;
* ``controller-partition`` -- the channel to one node is cut while the
  controller stays alive.

Each node runs a small :class:`NodeAgent` with a delegation state
machine::

    DISTRIBUTED --adopt--> ADOPTED --hold-timer expiry--+
         ^                                              |
         |            delegation on                     v
         +----- graceful fallback (refresh-in-place) FAILOVER
         |            delegation off                    |
         +<---- ORPHANED (stale flush, blackholes) <----+

With delegation enabled an orphaned node stale-marks its tables and
immediately refreshes them in place from the live distributed control
plane (LDP / message LDP / RSVP-TE+FRR), so **zero FECs blackhole**;
with delegation disabled the stale entries are flushed after
``stale_hold`` and traffic blackholes until the controller re-adopts.
Re-adoption diffs intended vs. actual state through one atomic
:class:`TableTransaction` per node -- no duplicate or partial
programming, no split brain (the controller never writes to a node it
has not re-adopted, and nodes never accept stale controller writes
because orphaned channels drop in-flight RPCs).

Determinism: all iteration is over sorted keys, all randomness flows
from the seeded backoff, and every event/metric emission is gated on
telemetry being enabled -- the same (scenario, seed) always produces
the same chaos report, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Annotated,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.config import NOT_NEGATIVE, build
from repro.control.cspf import CSPFError, cspf_over_view
from repro.control.overload import PriorityControlQueue, classify_message
from repro.control.retry import ReconnectBackoff
from repro.mpls.fec import FEC
from repro.mpls.transaction import TableTransaction
from repro.obs.events import ControllerFailover, ControllerReadopt

#: NodeAgent delegation states (also the adoption-gauge values).
STATE_DISTRIBUTED = 0
STATE_ADOPTED = 1
STATE_ORPHANED = 2

_STATE_NAMES = {
    STATE_DISTRIBUTED: "distributed",
    STATE_ADOPTED: "adopted",
    STATE_ORPHANED: "orphaned",
}


@dataclass
class ControllerConfig:
    """Knobs for the PCE controller and its node channels.

    Parsed from the scenario's ``controller`` key; unknown keys are
    rejected (:meth:`from_dict`) so typos fail loudly, mirroring
    :class:`~repro.control.overload.OverloadConfig`.
    """

    enabled: bool = True
    #: graceful fallback to distributed control on hold expiry; when
    #: False orphaned nodes flush stale state and blackhole instead
    delegation: bool = True
    #: when the controller first adopts the network (sim seconds); it
    #: and the retry delays are scheduler delays, never negative
    adopt_at: Annotated[float, NOT_NEGATIVE] = 0.05
    keepalive_interval: float = 0.02
    #: hold timer: an adopted node falls back after this long without
    #: hearing the controller
    hold_time: float = 0.08
    #: how long stale-marked entries survive before the flush timer
    stale_hold: float = 0.1
    #: one-way channel latency per RPC leg
    rpc_delay: float = 1e-3
    rpc_timeout: float = 0.02
    #: keepalive timeouts before the controller releases a node
    missed_rpc_limit: int = 3
    # bounded channel queue (PR 5 overload machinery)
    queue_capacity: int = 32
    high_watermark: int = 24
    low_watermark: int = 8
    # seeded reconnect backoff (shared repro.control.retry policy)
    retry_initial: Annotated[float, NOT_NEGATIVE] = 20e-3
    retry_max: Annotated[float, NOT_NEGATIVE] = 0.5
    max_retries: int = 20
    retry_jitter: float = 0.1
    #: scheduling horizon -- periodic timers stop re-arming past it
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.keepalive_interval <= 0:
            raise ValueError("keepalive_interval must be > 0")
        if self.hold_time <= self.keepalive_interval:
            raise ValueError(
                "hold_time must exceed keepalive_interval (a single "
                "on-time keepalive must refresh the hold timer)"
            )
        if self.stale_hold <= 0:
            raise ValueError("stale_hold must be > 0")
        if self.rpc_timeout <= 0 or self.rpc_delay < 0:
            raise ValueError("rpc_timeout must be > 0 and rpc_delay >= 0")
        if self.missed_rpc_limit < 1:
            raise ValueError("missed_rpc_limit must be >= 1")
        if not (
            0
            <= self.low_watermark
            < self.high_watermark
            <= self.queue_capacity
        ):
            raise ValueError(
                "watermarks must satisfy 0 <= low < high <= capacity"
            )
        if not (0.0 <= self.retry_jitter < 1.0):
            raise ValueError("retry_jitter must be in [0, 1)")

    @classmethod
    def from_dict(
        cls, raw: Mapping[str, Any], horizon: Optional[float] = None
    ) -> "ControllerConfig":
        return build(cls, "controller", raw, horizon=horizon)


class _Rpc:
    """One in-flight controller<->node RPC (bookkeeping only)."""

    __slots__ = ("kind", "execute", "on_reply", "on_timeout", "done",
                 "timed_out")

    def __init__(
        self,
        kind: str,
        execute: Callable[[], Any],
        on_reply: Optional[Callable[[Any], None]],
        on_timeout: Optional[Callable[[], None]],
    ) -> None:
        self.kind = kind
        self.execute = execute
        self.on_reply = on_reply
        self.on_timeout = on_timeout
        self.done = False
        self.timed_out = False


class ControllerChannel:
    """The fault-injectable channel between the controller and one node.

    A bounded :class:`PriorityControlQueue` (PR 5) sits between offer
    and service, so keepalives outrank table writes under pressure; a
    partition (``cut``) or a dead controller makes the channel unusable
    and every RPC on it times out instead of silently succeeding.
    """

    def __init__(
        self, controller: "PCEController", node: str,
        config: ControllerConfig,
    ) -> None:
        self.controller = controller
        self.node = node
        self.config = config
        self.queue = PriorityControlQueue(
            capacity=config.queue_capacity,
            high_watermark=config.high_watermark,
            low_watermark=config.low_watermark,
            prioritized=True,
        )
        self.partitioned = False
        self.cut_at: Optional[float] = None
        self.restored_at: Optional[float] = None
        self.rpcs = 0
        self.replies = 0
        self.timeouts = 0
        self.drops_by_cause: Dict[str, int] = {}

    # -- fault hooks ---------------------------------------------------
    def cut(self) -> None:
        if self.partitioned:
            return
        self.partitioned = True
        self.cut_at = self.controller.scheduler.now

    def restore(self) -> None:
        if not self.partitioned:
            return
        self.partitioned = False
        self.restored_at = self.controller.scheduler.now

    @property
    def usable(self) -> bool:
        return not self.partitioned and self.controller.alive

    # -- the RPC machine ----------------------------------------------
    def _drop(self, cause: str, cls_name: str) -> None:
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1
        tel = self.controller.network.telemetry
        if tel.enabled:
            tel.controller_channel_drops.labels(self.node, cause).inc()
            _ = cls_name  # class already folded into the cause ledger

    def _gauge_depth(self) -> None:
        tel = self.controller.network.telemetry
        if tel.enabled:
            tel.controller_channel_depth.labels(self.node).set(
                len(self.queue)
            )

    def rpc(
        self,
        kind: str,
        execute: Callable[[], Any],
        on_reply: Optional[Callable[[Any], None]] = None,
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> None:
        """Issue one RPC.  ``execute`` runs node-side after one channel
        delay; ``on_reply`` runs controller-side one delay later;
        ``on_timeout`` fires at ``rpc_timeout`` if no reply landed."""
        sched = self.controller.scheduler
        self.rpcs += 1
        item = _Rpc(kind, execute, on_reply, on_timeout)
        cls = classify_message(kind)

        def expire() -> None:
            if item.done:
                return
            item.timed_out = True
            self.timeouts += 1
            if item.on_timeout is not None:
                item.on_timeout()

        if not self.usable:
            self._drop("partition" if self.partitioned else "crash",
                       cls.name)
            sched.after(self.config.rpc_timeout, expire)
            return

        accepted, shed = self.queue.offer(item, cls)
        for _dropped, dropped_cls, cause in shed:
            self._drop(cause, dropped_cls.name)
        self._gauge_depth()
        if not accepted:
            sched.after(self.config.rpc_timeout, expire)
            return
        sched.after(self.config.rpc_timeout, expire)
        sched.after(self.config.rpc_delay, self._service)

    def _service(self) -> None:
        popped = self.queue.pop()
        self._gauge_depth()
        if popped is None:
            return
        item, cls = popped
        if item.timed_out:
            return
        if not self.usable:
            # the request was in flight when the channel died
            self._drop("lost", cls.name)
            return
        result = item.execute()
        sched = self.controller.scheduler

        def reply() -> None:
            if item.timed_out or not self.usable:
                return
            item.done = True
            self.replies += 1
            if item.on_reply is not None:
                item.on_reply(result)

        sched.after(self.config.rpc_delay, reply)


class NodeAgent:
    """The node-side delegation state machine.

    Watches controller liveness through ``last_heard`` (refreshed by
    every keepalive/read/write that reaches the node) and falls back to
    distributed control when the hold timer expires."""

    def __init__(
        self, controller: "PCEController", name: str,
        config: ControllerConfig,
    ) -> None:
        self.controller = controller
        self.name = name
        self.config = config
        self.state = STATE_DISTRIBUTED
        self.last_heard: Optional[float] = None

    def set_state(self, state: int) -> None:
        self.state = state
        tel = self.controller.network.telemetry
        if tel.enabled:
            tel.controller_adoption.labels(self.name).set(state)

    def tick(self) -> None:
        """Periodic hold-timer check (runs every keepalive interval)."""
        ctl = self.controller
        now = ctl.scheduler.now
        if (
            self.state == STATE_ADOPTED
            and self.last_heard is not None
            and now - self.last_heard > self.config.hold_time
        ):
            self._failover(now)
        horizon = self.config.horizon
        if (
            horizon is None
            or now + self.config.keepalive_interval <= horizon
        ):
            ctl.scheduler.after(self.config.keepalive_interval, self.tick)

    def _failover(self, now: float) -> None:
        """Hold timer expired: fall back (delegation on) or orphan."""
        ctl = self.controller
        channel = ctl.channels[self.name]
        if channel.partitioned:
            reason = "partition"
            cause_at = channel.cut_at
        else:
            reason = "crash"
            cause_at = ctl._crash_at
        detect_s = now - cause_at if cause_at is not None else 0.0

        node = ctl.network.nodes[self.name]
        orphaned = node.ilm.mark_all_stale() + node.ftn.mark_all_stale()
        for fec, ingress, _egress in ctl.fec_specs:
            ctl.orphaned_ever.add(f"{fec}@{ingress}")
        ctl.adopted.discard(self.name)

        if self.config.delegation:
            # graceful fallback: refresh the stale entries in place
            # from the live distributed control plane -- forwarding
            # state never leaves the tables, so nothing blackholes
            ctl._refresh_distributed(self.name)
            self.set_state(STATE_DISTRIBUTED)
        else:
            self.set_state(STATE_ORPHANED)
        ctl.scheduler.after(self.config.stale_hold, self._flush_stale)

        ctl.failovers.append(
            {
                "at": now,
                "node": self.name,
                "reason": reason,
                "detect_s": detect_s,
                "orphaned_fecs": orphaned,
                "delegated": self.config.delegation,
            }
        )
        tel = ctl.network.telemetry
        if tel.enabled:
            tel.controller_failovers.labels(reason).inc()
            if self.config.delegation:
                tel.controller_delegations.labels(self.name).inc()
            event = ControllerFailover(
                node=self.name,
                reason=reason,
                delegated=self.config.delegation,
                orphaned_fecs=orphaned,
                detect_s=detect_s,
            )
            event.time = now
            tel.events.emit(event)
        ctl._checkpoint_blackholes()
        ctl._schedule_reconnect(self.name)

    def _flush_stale(self) -> None:
        """The RFC 3478-style stale-hold timer: anything still marked
        stale (nothing after a graceful fallback, everything on an
        orphaned node) is removed."""
        node = self.controller.network.nodes[self.name]
        node.ilm.flush_stale()
        node.ftn.flush_stale()
        self.controller._checkpoint_blackholes()


class PCEController:
    """The centralized Path Computation Element.

    Owns global CSPF intent over the observed topology, adopts every
    node over its channel, keeps them alive with keepalives, and
    survives its own crash/partition faults by releasing, backing off
    and re-adopting with a single atomic resync transaction per node.
    """

    def __init__(
        self,
        network: Any,
        config: ControllerConfig,
        ldp: Any = None,
        message_ldp: Any = None,
        frr: Any = None,
        fec_specs: Sequence[Tuple[FEC, str, str]] = (),
        seed: int = 0,
    ) -> None:
        self.network = network
        self.scheduler = network.scheduler
        self.config = config
        self.ldp = ldp
        self.message_ldp = message_ldp
        self.frr = frr
        #: sorted (fec, ingress, egress) triples the PCE is responsible
        #: for -- the blackhole accounting walks exactly these
        self.fec_specs: List[Tuple[FEC, str, str]] = sorted(
            fec_specs, key=lambda t: (str(t[0]), t[1], t[2])
        )
        self.seed = seed
        self.alive = True
        self.backoff = ReconnectBackoff(
            initial=config.retry_initial,
            maximum=config.retry_max,
            max_retries=config.max_retries,
            jitter=config.retry_jitter,
            seed=seed,
        )
        self.channels: Dict[str, ControllerChannel] = {}
        self.agents: Dict[str, NodeAgent] = {}
        for name in sorted(network.nodes):
            self.channels[name] = ControllerChannel(self, name, config)
            self.agents[name] = NodeAgent(self, name, config)
        self.adopted: Set[str] = set()
        # ledgers (sorted-deterministic; the report section reads them)
        self.adoptions: List[Dict[str, Any]] = []
        self.failovers: List[Dict[str, Any]] = []
        self.readopts: List[Dict[str, Any]] = []
        self.crashes = 0
        self.restarts = 0
        self.resync_reads = 0
        self.resync_transactions = 0
        self.resync_rewrites = 0
        self.paths_computed = 0
        self.view_agreements = 0
        self.blackholed_ever: Set[str] = set()
        self.orphaned_ever: Set[str] = set()
        self._crash_at: Optional[float] = None
        self._restart_at: Optional[float] = None
        self._missed: Dict[str, int] = {}
        self._reconnecting: Set[str] = set()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Arm adoption and the keepalive machinery (no-op when the
        scenario asked for ``enabled: false``)."""
        if not self.config.enabled:
            return
        self.scheduler.at(self.config.adopt_at, self._adopt_all)
        first_tick = self.config.adopt_at + self.config.keepalive_interval
        self.scheduler.at(first_tick, self._keepalive_all)
        for name in sorted(self.agents):
            self.scheduler.at(first_tick, self.agents[name].tick)

    def _adopt_all(self) -> None:
        for name in sorted(self.channels):
            self._adopt(name)

    def _adopt(self, name: str) -> None:
        channel = self.channels[name]
        agent = self.agents[name]
        node = self.network.nodes[name]

        def execute() -> Tuple[int, int]:
            agent.last_heard = self.scheduler.now
            return (len(node.ilm), len(node.ftn))

        def on_reply(counts: Tuple[int, int]) -> None:
            self.adopted.add(name)
            agent.set_state(STATE_ADOPTED)
            agent.last_heard = self.scheduler.now
            self.adoptions.append(
                {
                    "at": self.scheduler.now,
                    "node": name,
                    "ilm_entries": counts[0],
                    "ftn_entries": counts[1],
                }
            )
            if len(self.adopted) == len(self.channels):
                self._checkpoint_blackholes()
                self._compute_intent()

        channel.rpc("ctrl-read", execute, on_reply=on_reply)

    # -- global CSPF intent --------------------------------------------
    def _compute_intent(self) -> None:
        """Global CSPF over the observed topology view: for every FEC
        the PCE owns, compute the intended path and count how often the
        view-derived path agrees with the live forwarding trace."""
        view = self._view_data()
        for fec, ingress, egress in self.fec_specs:
            try:
                path = cspf_over_view(view, ingress, egress)
            except CSPFError:
                continue
            self.paths_computed += 1
            actual = self.network.fec_trace(ingress, fec)
            if actual is not None and actual == path:
                self.view_agreements += 1

    def _view_data(self) -> Dict[str, Any]:
        """The topology the PCE plans over: the telemetry-fed
        TopologyView when an observer is attached, else a view derived
        from ground truth (keeps the PCE usable without telemetry)."""
        observer = self.network.telemetry.topo
        if observer is not None:
            return observer.live_view().data
        down = getattr(self.network, "_down_nodes", {})
        nodes = {
            name: ("down" if name in down else "up")
            for name in sorted(self.network.nodes)
        }
        links: Dict[str, str] = {}
        for a, b in self.network.topology.links:
            key = f"{min(a, b)}|{max(a, b)}"
            links[key] = (
                "up" if self.network.link_is_up(a, b) else "down"
            )
        return {"nodes": nodes, "links": links}

    # -- keepalives ----------------------------------------------------
    def _keepalive_all(self) -> None:
        now = self.scheduler.now
        if self.alive:
            for name in sorted(self.adopted):
                self._keepalive(name)
        horizon = self.config.horizon
        if (
            horizon is None
            or now + self.config.keepalive_interval <= horizon
        ):
            self.scheduler.after(
                self.config.keepalive_interval, self._keepalive_all
            )

    def _keepalive(self, name: str) -> None:
        channel = self.channels[name]
        agent = self.agents[name]

        def execute() -> None:
            agent.last_heard = self.scheduler.now

        def on_reply(_result: None) -> None:
            self._missed[name] = 0

        def on_timeout() -> None:
            missed = self._missed.get(name, 0) + 1
            self._missed[name] = missed
            if (
                missed >= self.config.missed_rpc_limit
                and name in self.adopted
            ):
                # release the node; the agent's own hold timer drives
                # its fallback, the controller starts reconnecting
                self.adopted.discard(name)
                self._schedule_reconnect(name)

        channel.rpc(
            "ctrl-keepalive", execute,
            on_reply=on_reply, on_timeout=on_timeout,
        )

    # -- fault surface -------------------------------------------------
    def crash(self) -> None:
        """``controller-crash`` inject: the PCE dies mid-flight."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self._crash_at = self.scheduler.now

    def restart(self) -> None:
        """``controller-crash`` heal: warm restart.  All adoption state
        is gone; every node is re-adopted through the resync path."""
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self._restart_at = self.scheduler.now
        self.adopted.clear()
        for name in sorted(self.channels):
            self._schedule_reconnect(name)

    def cut(self, node: str) -> None:
        """``controller-partition`` inject for one node."""
        self.channels[node].cut()

    def restore(self, node: str) -> None:
        """``controller-partition`` heal for one node."""
        self.channels[node].restore()

    # -- reconnect + resync --------------------------------------------
    def _schedule_reconnect(self, name: str) -> None:
        if not self.config.enabled or name in self._reconnecting:
            return
        self._reconnecting.add(name)
        key = ("controller", name)
        self.scheduler.after(
            self.backoff.first_delay(key),
            lambda: self._try_readopt(name, attempt=1),
        )

    def _try_readopt(self, name: str, attempt: int) -> None:
        if name in self.adopted:
            self._reconnecting.discard(name)
            return
        channel = self.channels[name]
        if channel.usable:
            self._resync(name)
            return
        if self.backoff.exhausted(attempt):
            self._reconnecting.discard(name)
            return
        key = ("controller", name)
        self.scheduler.after(
            self.backoff.next_delay(key, attempt),
            lambda: self._try_readopt(name, attempt + 1),
        )

    def _resync(self, name: str) -> None:
        """Re-adopt one node: read-back, event replay, intent diff, one
        atomic write transaction, then mark adopted."""
        channel = self.channels[name]
        agent = self.agents[name]
        node = self.network.nodes[name]

        def read() -> Tuple[int, int]:
            agent.last_heard = self.scheduler.now
            return (len(node.ilm), len(node.ftn))

        def on_read(_counts: Tuple[int, int]) -> None:
            self.resync_reads += 1
            if self.network.telemetry.topo is not None:
                # event replay: reconcile against the telemetry-fed
                # view (the observer replayed everything we missed)
                self._compute_intent()
            self._write(name)

        def on_read_timeout() -> None:
            self._reconnecting.discard(name)
            self._schedule_reconnect(name)

        channel.rpc(
            "ctrl-read", read,
            on_reply=on_read, on_timeout=on_read_timeout,
        )

    def _write(self, name: str) -> None:
        channel = self.channels[name]
        agent = self.agents[name]
        node = self.network.nodes[name]

        def write() -> int:
            """Node-side: one atomic transaction that diffs intended
            vs. actual -- refresh-in-place of every entry the
            distributed truth wants, then flush whatever is left
            stale.  Commit or nothing: no partial programming."""
            agent.last_heard = self.scheduler.now
            node.ilm.mark_all_stale()
            node.ftn.mark_all_stale()
            with TableTransaction([node.ilm, node.ftn]):
                rewrites = self._refresh_distributed(name)
            node.ilm.flush_stale()
            node.ftn.flush_stale()
            self.resync_transactions += 1
            self.resync_rewrites += rewrites
            return rewrites

        def on_reply(rewrites: int) -> None:
            now = self.scheduler.now
            self._reconnecting.discard(name)
            self.adopted.add(name)
            self._missed[name] = 0
            agent.set_state(STATE_ADOPTED)
            agent.last_heard = now
            reason, anchor = self._readopt_anchor(name, now)
            restore_s = now - anchor if anchor is not None else 0.0
            self.readopts.append(
                {
                    "at": now,
                    "node": name,
                    "reason": reason,
                    "rewrites": rewrites,
                    "restore_s": restore_s,
                }
            )
            tel = self.network.telemetry
            if tel.enabled:
                tel.controller_resyncs.labels(name).inc()
                event = ControllerReadopt(
                    node=name,
                    reason=reason,
                    rewrites=rewrites,
                    restore_s=restore_s,
                )
                event.time = now
                tel.events.emit(event)
            self._checkpoint_blackholes()

        def on_timeout() -> None:
            self._reconnecting.discard(name)
            self._schedule_reconnect(name)

        channel.rpc(
            "ctrl-write", write,
            on_reply=on_reply, on_timeout=on_timeout,
        )

    def _readopt_anchor(
        self, name: str, now: float
    ) -> Tuple[str, Optional[float]]:
        """What outage does this readopt close, and when did service
        become restorable (restart / partition heal)?"""
        channel = self.channels[name]
        candidates: List[Tuple[float, str]] = []
        if self._restart_at is not None and self._restart_at <= now:
            candidates.append((self._restart_at, "crash"))
        if (
            channel.restored_at is not None
            and channel.restored_at <= now
        ):
            candidates.append((channel.restored_at, "partition"))
        if not candidates:
            return ("adopt", None)
        anchor, reason = max(candidates)
        return (reason, anchor)

    # -- delegation refresh --------------------------------------------
    def _refresh_distributed(self, name: str) -> int:
        """Refresh one node's tables in place from whatever distributed
        control plane this scenario runs.  Returns rewrite count."""
        rewrites = 0
        if self.ldp is not None:
            ilm, ftn = self.ldp.refresh_node(name)
            rewrites += ilm + ftn
        if self.message_ldp is not None:
            ilm, ftn = self.message_ldp.refresh_node(name)
            rewrites += ilm + ftn
        if self.frr is not None:
            rewrites += self.frr.signaler.refresh_node(name)
            rewrites += self.frr.refresh_ingress(name)
        return rewrites

    # -- blackhole accounting ------------------------------------------
    def blackholed_now(self) -> List[str]:
        """FECs with no working forwarding path right now (sorted)."""
        holes: List[str] = []
        for fec, ingress, _egress in self.fec_specs:
            if self.network.fec_trace(ingress, fec) is None:
                holes.append(f"{fec}@{ingress}")
        return holes

    def _checkpoint_blackholes(self) -> None:
        self.blackholed_ever.update(self.blackholed_now())
