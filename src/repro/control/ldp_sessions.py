"""Message-level LDP: discovery, sessions, ordered label distribution.

:mod:`repro.control.ldp` models a *converged* LDP (state appears
instantaneously).  This module models how that state comes to exist:
every router runs an :class:`LDPSpeaker` exchanging real messages over
the event scheduler with per-link propagation delays --

1. **discovery**: HELLOs on every adjacency,
2. **session setup**: the active side (higher node name) sends INIT,
   the passive side replies, KEEPALIVEs confirm; the session is then up
   on both ends,
3. **label distribution** (downstream-unsolicited, *ordered* control):
   the egress originates a LABEL_MAPPING for an announced FEC; a router
   that receives a mapping from its SPF next hop towards the egress
   installs forwarding state and only then propagates its own mapping
   upstream -- so LSPs become usable strictly from the egress backwards,
4. **withdrawal**: LABEL_WITHDRAW propagates the same way and tears the
   state down.

The orchestrator records message counts and convergence timestamps, so
benchmarks can measure control-plane convergence against topology
diameter -- the "efficient maintenance of those paths" the paper's
introduction asks of MPLS.
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.control.labels import LabelAllocator
from repro.control.overload import (
    CLASS_NAMES,
    HIGH_WATERMARK,
    HOLD_TIME,
    KEEPALIVE_INTERVAL,
    LOW_WATERMARK,
    QUEUE_CAPACITY,
    SERVICE_TIME_S,
    OverloadConfig,
    PriorityControlQueue,
    classify_message,
)
from repro.control.retry import ReconnectBackoff
from repro.control.routing import LinkStateDatabase
from repro.mpls.fec import FEC
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode
from repro.net.events import EventScheduler
from repro.net.topology import Topology, TopologyError
from repro.obs.events import (
    ControlMessageShed,
    LabelMappingInstalled,
    LabelMappingWithdrawn,
    SessionStateChange,
)
from repro.obs.telemetry import get_telemetry

#: a speaker's per-message processing time, added to the link delay
PROCESSING_DELAY_S = 50e-6


class MsgType(Enum):
    HELLO = "hello"
    INIT = "init"
    KEEPALIVE = "keepalive"
    LABEL_MAPPING = "label-mapping"
    LABEL_WITHDRAW = "label-withdraw"
    #: session teardown notification (RFC 5036 shutdown); the message a
    #: hijacker forges, so it is the one the auth token protects
    SHUTDOWN = "shutdown"
    #: a TTL-expiry punt from the data plane: pure control-CPU load
    TTL_EXCEPTION = "ttl-exception"


def session_token(a: str, b: str) -> int:
    """The per-session authentication token (a TCP-MD5 stand-in).

    Deterministic over the sorted node pair, modelling a pre-shared
    key per session (RFC 5036 section 2.9); never zero, so a forged
    ``auth=0`` cannot collide with a real token.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    return zlib.crc32(f"{lo}|{hi}|ldp-md5".encode("utf-8")) or 1


@dataclass(frozen=True)
class LDPMessage:
    kind: MsgType
    src: str
    dst: str
    #: FEC id for mapping/withdraw messages
    fec_id: Optional[str] = None
    label: Optional[int] = None
    #: session auth token; :meth:`MessageLDPProcess.send` stamps it
    #: when authentication is armed (a forged non-None value survives,
    #: which is what makes the hijack fault testable)
    auth: Optional[int] = None


@dataclass
class FECState:
    """One distributed FEC, tracked network-wide for convergence."""

    fec: FEC
    egress: str
    #: node -> label it advertised upstream
    advertised: Dict[str, int] = field(default_factory=dict)
    #: node -> time its forwarding state was installed
    installed_at: Dict[str, float] = field(default_factory=dict)
    withdrawn: bool = False


def _outdated(
    entry: Optional[NHLFE], stale: bool, peer: str, label_in: int
) -> bool:
    """Does a graceful-restart refresh rewrite ``entry``?  Only when it
    routes via ``peer`` and is stale-marked or carries a label other
    than ``label_in``."""
    return (
        entry is not None
        and entry.next_hop == peer
        and (stale or entry.out_label != label_in)
    )


class LDPSpeaker:
    """The per-router LDP protocol instance."""

    def __init__(self, process: "MessageLDPProcess", node: LSRNode) -> None:
        self.process = process
        self.node = node
        self.name = node.name
        self.allocator = LabelAllocator()
        #: neighbours from which a HELLO arrived
        self.heard: Set[str] = set()
        #: peers with an established session
        self.sessions: Set[str] = set()
        #: fec_id -> (neighbor -> label) remote bindings
        self.bindings: Dict[str, Dict[str, int]] = {}
        #: fec_id -> label we advertised
        self.local_labels: Dict[str, int] = {}
        #: True while the control plane is down in a graceful restart:
        #: incoming messages hit a dead process and are ignored, but
        #: the node's data plane keeps forwarding on stale-marked state
        self.restarting = False

    # -- discovery / session ------------------------------------------------
    def start(self) -> None:
        for neighbor in self.process.topology.neighbors(self.name):
            self.process.send(
                LDPMessage(MsgType.HELLO, self.name, neighbor)
            )

    def handle(self, msg: LDPMessage) -> None:
        if self.restarting:
            return  # control plane down: nobody home to process this
        if msg.kind is MsgType.HELLO:
            self._on_hello(msg)
        elif msg.kind is MsgType.INIT:
            self._on_init(msg)
        elif msg.kind is MsgType.KEEPALIVE:
            self._on_keepalive(msg)
        elif msg.kind is MsgType.LABEL_MAPPING:
            self._on_mapping(msg)
        elif msg.kind is MsgType.LABEL_WITHDRAW:
            self._on_withdraw(msg)
        elif msg.kind is MsgType.SHUTDOWN:
            self.process._handle_shutdown(msg)
        # TTL_EXCEPTION carries no protocol state: servicing it *was*
        # the work (one control-CPU slot burned per punt)

    def _on_hello(self, msg: LDPMessage) -> None:
        first = msg.src not in self.heard
        self.heard.add(msg.src)
        if first:
            # every speaker already hello'd all neighbours at start, so
            # no reply is needed; the active side (lexicographically
            # larger name) initiates the session
            if self.name > msg.src:
                self.process.send(
                    LDPMessage(MsgType.INIT, self.name, msg.src)
                )

    def _on_init(self, msg: LDPMessage) -> None:
        if msg.src not in self.sessions:
            if self.name < msg.src:
                # passive side: respond with its own INIT
                self.process.send(
                    LDPMessage(MsgType.INIT, self.name, msg.src)
                )
            self.process.send(
                LDPMessage(MsgType.KEEPALIVE, self.name, msg.src)
            )

    def _on_keepalive(self, msg: LDPMessage) -> None:
        if msg.src not in self.sessions:
            self.sessions.add(msg.src)
            self.process._session_up(self.name, msg.src)
            # distribute any FECs we already originated/learned
            for fec_id in list(self.local_labels):
                self._advertise(fec_id, only_to=msg.src)

    # -- label distribution ---------------------------------------------------
    def originate(self, fec_id: str) -> None:
        """Egress behaviour: bind a label and advertise it."""
        state = self.process.fecs[fec_id]
        label = self.allocator.allocate()
        self.local_labels[fec_id] = label
        self.node.ilm.install(label, NHLFE(op=LabelOp.POP))
        state.advertised[self.name] = label
        state.installed_at[self.name] = self.process.scheduler.now
        self._note_install(fec_id, label, next_hop=None)
        self._advertise(fec_id)

    def _note_install(
        self, fec_id: str, label: int, next_hop: Optional[str]
    ) -> None:
        """Telemetry: this router just installed forwarding state for
        a FEC -- the per-router convergence instant."""
        tel = self.process.telemetry
        if tel.enabled:
            event = LabelMappingInstalled(
                node=self.name, fec_id=fec_id, label=label, next_hop=next_hop
            )
            event.time = self.process.scheduler.now
            tel.events.emit(event)

    def _note_withdraw(self, fec_id: str, label: int) -> None:
        """Telemetry: this router just withdrew its binding for a FEC.
        Emitted only while a topology observer is attached (gated so
        pre-existing event-count reports stay byte-identical)."""
        tel = self.process.telemetry
        if tel.enabled and tel.topo is not None:
            event = LabelMappingWithdrawn(
                node=self.name, fec_id=fec_id, label=label
            )
            event.time = self.process.scheduler.now
            tel.events.emit(event)

    def _advertise(self, fec_id: str, only_to: Optional[str] = None) -> None:
        label = self.local_labels[fec_id]
        peers = [only_to] if only_to else sorted(self.sessions)
        for peer in peers:
            self.process.send(
                LDPMessage(
                    MsgType.LABEL_MAPPING,
                    self.name,
                    peer,
                    fec_id=fec_id,
                    label=label,
                )
            )

    def _next_hop_to_egress(self, egress: str) -> Optional[str]:
        spf = self.process.lsdb.spf(self.name)
        return spf.next_hop(egress)

    def _on_mapping(self, msg: LDPMessage) -> None:
        fec_id = msg.fec_id
        state = self.process.fecs.get(fec_id)
        if state is None or state.withdrawn:
            return
        self.bindings.setdefault(fec_id, {})[msg.src] = msg.label
        if self.name == state.egress:
            return  # an egress's origination depends on nobody
        if fec_id in self.local_labels:
            # already installed: a re-advertisement can still refresh a
            # stale entry in place (RFC 3478 graceful restart)
            self._refresh_from(fec_id, msg.src, msg.label)
            return
        next_hop = self._next_hop_to_egress(state.egress)
        if next_hop != msg.src:
            return  # liberal retention: keep the binding, do not use it
        self._install_from(fec_id, msg.src, msg.label)

    def _install_from(self, fec_id: str, peer: str, label_in: int) -> None:
        """Ordered control: install forwarding state via ``peer`` (its
        advertised label is ``label_in``), then propagate upstream."""
        state = self.process.fecs[fec_id]
        label = self.allocator.allocate()
        self.local_labels[fec_id] = label
        self._program(state, label, peer, label_in)
        state.advertised[self.name] = label
        state.installed_at[self.name] = self.process.scheduler.now
        self._note_install(fec_id, label, next_hop=peer)
        self._advertise(fec_id)

    def _refresh_from(self, fec_id: str, peer: str, label_in: int) -> None:
        """Refresh-in-place for graceful restart (RFC 3478).

        We already hold forwarding state for this FEC; if our installed
        path goes via ``peer`` (and SPF agrees) and the entry is either
        stale-marked or carries an outdated outgoing label, rewrite it
        in place -- same local label, stale mark cleared.  Entries that
        are current and not stale are left untouched, so ordinary
        duplicate advertisements remain no-ops.
        """
        state = self.process.fecs[fec_id]
        label = self.local_labels[fec_id]
        nhlfe = self.node.ilm.get(label)
        if nhlfe is None or nhlfe.next_hop != peer:
            return
        if self._next_hop_to_egress(state.egress) != peer:
            return
        self._program(state, label, peer, label_in, outdated_only=True)

    def _program(
        self,
        state: FECState,
        label: int,
        peer: str,
        label_in: int,
        outdated_only: bool = False,
    ) -> Tuple[int, int]:
        """Forward ``state``'s FEC via ``peer``, which advertised
        ``label_in``: the transit SWAP under our ``label`` and, at an
        edge router, the ingress PUSH -- the one place this router's
        entries for a binding are derived.  ``outdated_only`` rewrites
        just the entries that already route via ``peer`` and are
        stale-marked or carry another label.  Returns the (ILM, FTN)
        entries written."""
        ilm, ftn, fec = self.node.ilm, self.node.ftn, state.fec
        ilm_writes = ftn_writes = 0
        if not outdated_only or _outdated(
            ilm.get(label), ilm.is_stale(label), peer, label_in
        ):
            ilm.install(
                label,
                NHLFE(op=LabelOp.SWAP, out_label=label_in, next_hop=peer),
            )
            ilm_writes = 1
        if self.node.is_edge and (
            not outdated_only
            or _outdated(ftn.entry_for(fec), ftn.is_stale(fec), peer, label_in)
        ):
            ftn.install(
                fec, NHLFE(op=LabelOp.PUSH, out_label=label_in, next_hop=peer)
            )
            ftn_writes = 1
        return ilm_writes, ftn_writes

    def _withdraw_local(
        self, fec_id: str, exclude: Optional[str] = None
    ) -> bool:
        """Tear down our forwarding state for a FEC and tell every
        session peer except ``exclude``.  Returns True if state was
        actually removed."""
        state = self.process.fecs.get(fec_id)
        if state is None:
            return False
        label = self.local_labels.pop(fec_id, None)
        if label is None:
            return False
        if label in self.node.ilm:
            self.node.ilm.remove(label)
        try:
            self.node.ftn.remove(state.fec)
        except KeyError:
            pass
        self.allocator.release(label)
        state.advertised.pop(self.name, None)
        state.installed_at.pop(self.name, None)
        self._note_withdraw(fec_id, label)
        for peer in sorted(self.sessions):
            if peer != exclude:
                self.process.send(
                    LDPMessage(
                        MsgType.LABEL_WITHDRAW,
                        self.name,
                        peer,
                        fec_id=fec_id,
                    )
                )
        return True

    def _reinstall_from_retained(self, fec_id: str) -> None:
        """After losing the state we had via a failed peer, fall back
        to a liberally retained binding from the *current* SPF next hop
        (if a session to it is up) -- the recovery path that makes
        liberal retention worth its memory."""
        state = self.process.fecs.get(fec_id)
        if state is None or state.withdrawn:
            return
        if self.name == state.egress or fec_id in self.local_labels:
            return
        next_hop = self._next_hop_to_egress(state.egress)
        if next_hop is None or next_hop not in self.sessions:
            return
        label_in = self.bindings.get(fec_id, {}).get(next_hop)
        if label_in is None:
            return
        self._install_from(fec_id, next_hop, label_in)

    def _on_withdraw(self, msg: LDPMessage) -> None:
        fec_id = msg.fec_id
        state = self.process.fecs.get(fec_id)
        if state is None:
            return
        self.bindings.get(fec_id, {}).pop(msg.src, None)
        if self.name == state.egress:
            return  # an egress's origination depends on nobody
        label = self.local_labels.get(fec_id)
        if label is None:
            return
        nhlfe = self.node.ilm.get(label)
        if nhlfe is None or nhlfe.next_hop != msg.src:
            # our installed path does not go through the withdrawing
            # peer; dropping the retained binding is all that's needed
            # (propagating further would tear down healthy state and
            # cascade the withdrawal around the whole network)
            return
        if self._withdraw_local(fec_id, exclude=msg.src):
            # the downstream path died; try any retained alternative
            self._reinstall_from_retained(fec_id)

    # -- session failure ------------------------------------------------------
    def _fecs_via(self, peer: str) -> List[str]:
        """FEC ids whose installed forwarding state here routes via
        ``peer`` (egress originations excluded) -- the state a session
        loss to ``peer`` would tear down."""
        affected: List[str] = []
        for fec_id, label in list(self.local_labels.items()):
            state = self.process.fecs.get(fec_id)
            if state is None or self.name == state.egress:
                continue
            nhlfe = self.node.ilm.get(label)
            if nhlfe is not None and nhlfe.next_hop == peer:
                affected.append(fec_id)
        return affected

    def session_lost(self, peer: str) -> None:
        """The session to ``peer`` dropped: purge every binding learned
        from it and withdraw any mapping of ours that was installed via
        it.  Without the withdrawal, upstream routers keep forwarding
        into a black hole -- the stale-mapping bug this method fixes.
        """
        if peer not in self.sessions:
            return
        self.sessions.discard(peer)
        # forget discovery state too, so reconnection re-runs the full
        # HELLO -> INIT -> KEEPALIVE handshake
        self.heard.discard(peer)
        affected = self._fecs_via(peer)
        for fec_id in list(self.bindings):
            self.bindings[fec_id].pop(peer, None)
        for fec_id in affected:
            self._withdraw_local(fec_id)
            self._reinstall_from_retained(fec_id)


class MessageLDPProcess:
    """Orchestrates the speakers over one event scheduler."""

    def __init__(
        self,
        topology: Topology,
        nodes: Dict[str, LSRNode],
        scheduler: EventScheduler,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        self.topology = topology
        self.scheduler = scheduler
        self.telemetry = get_telemetry()
        self.lsdb = LinkStateDatabase(topology)
        self.speakers: Dict[str, LDPSpeaker] = {
            name: LDPSpeaker(self, node) for name, node in nodes.items()
        }
        self.fecs: Dict[str, FECState] = {}
        self.message_counts: Dict[MsgType, int] = {k: 0 for k in MsgType}
        self.sessions_established: List[Tuple[float, str, str]] = []
        self._started = False
        # -- session-recovery policy (exponential backoff, no jitter) -------
        self.backoff = ReconnectBackoff()
        #: (a, b) sorted pair -> {"attempt": n, "down_at": t}
        self._reconnecting: Dict[Tuple[str, str], Dict[str, float]] = {}
        self.sessions_lost: List[Tuple[float, str, str]] = []
        #: (recovered_at, a, b, downtime_seconds)
        self.sessions_recovered: List[Tuple[float, str, str, float]] = []
        self.reconnect_attempts = 0
        self.reconnects_abandoned = 0
        # -- adversarial security (None = legacy unauthenticated) -----------
        #: the run's :class:`repro.security.SecurityMonitor`, attached
        #: by its ``arm()``; with one attached (and authentication on)
        #: outgoing messages carry session tokens and shutdowns are
        #: verified against them
        self.security = None
        # -- overload protection (None = legacy unbounded delivery) ---------
        self.overload = overload
        self.holds_expired = 0
        if overload is not None:
            self.queues: Dict[str, PriorityControlQueue] = {
                name: PriorityControlQueue(
                    QUEUE_CAPACITY,
                    HIGH_WATERMARK,
                    LOW_WATERMARK,
                    prioritized=overload.enabled,
                )
                for name in sorted(self.speakers)
            }
            self._cpu_busy: Dict[str, bool] = {
                name: False for name in self.speakers
            }
            #: (node, peer) -> time a KEEPALIVE from peer was last serviced
            self._last_heard: Dict[Tuple[str, str], float] = {}
        else:
            self.queues = {}
            self._cpu_busy = {}
            self._last_heard = {}

    # -- transport ---------------------------------------------------------
    def send(self, msg: LDPMessage) -> None:
        try:
            link = self.topology.link(msg.src, msg.dst)
        except TopologyError:
            return  # adjacency gone (link failed mid-flight)
        sec = self.security
        if sec is not None and sec.config.enabled and msg.auth is None:
            # the legitimate sender signs its messages; a forger set a
            # (wrong) token already, and that forgery must survive
            msg = LDPMessage(
                msg.kind, msg.src, msg.dst, msg.fec_id, msg.label,
                session_token(msg.src, msg.dst),
            )
        self.message_counts[msg.kind] += 1
        tel = self.telemetry
        if tel.enabled:
            tel.ldp_messages.labels(msg.kind.value).inc()
        if self.overload is None:
            self.scheduler.after(
                link.delay_s + PROCESSING_DELAY_S,
                self.speakers[msg.dst].handle, msg,
            )
            return
        # overload protection: propagation only, then the receiver's
        # bounded control queue (processing happens at service time)
        self.scheduler.after(link.delay_s, self._control_arrive, msg)

    def _control_arrive(self, msg: LDPMessage) -> None:
        """An LDP message reached ``msg.dst``'s control queue."""
        queue = self.queues[msg.dst]
        cls = classify_message(msg.kind)
        accepted, dropped = queue.offer(msg, cls)
        tel = self.telemetry
        if tel.enabled:
            tel.control_queue_depth.labels(msg.dst).set(len(queue))
            for victim, vcls, cause in dropped:
                tel.control_queue_drops.labels(
                    msg.dst, CLASS_NAMES[vcls], cause
                ).inc()
                event = ControlMessageShed(
                    node=msg.dst,
                    msg_class=CLASS_NAMES[vcls],
                    cause=cause,
                )
                event.time = self.scheduler.now
                tel.events.emit(event)
        if not accepted:
            return
        if not self._cpu_busy[msg.dst]:
            self._cpu_busy[msg.dst] = True
            self.scheduler.after(SERVICE_TIME_S, self._service, msg.dst)

    def _service(self, name: str) -> None:
        """``name``'s control CPU finishes one service slot."""
        queue = self.queues[name]
        head = queue.pop()
        tel = self.telemetry
        if tel.enabled:
            tel.control_queue_depth.labels(name).set(len(queue))
        if head is None:
            self._cpu_busy[name] = False
            return
        msg, _cls = head
        self.speakers[name].handle(msg)
        if msg.kind is MsgType.KEEPALIVE:
            self._last_heard[(name, msg.src)] = self.scheduler.now
        if len(queue):
            self.scheduler.after(SERVICE_TIME_S, self._service, name)
        else:
            self._cpu_busy[name] = False

    # -- adversarial security hooks -----------------------------------------
    def _handle_shutdown(self, msg: LDPMessage) -> None:
        """A SHUTDOWN reached ``msg.dst``: verify its session token
        (when authentication is armed), then tear the session down.
        This is the path a hijacker forges -- with auth on, a forged
        token is rejected and counted; with auth off, the forgery
        tears down a healthy session."""
        sec = self.security
        now = self.scheduler.now
        if (
            sec is not None
            and sec.config.enabled
            and msg.auth != session_token(msg.src, msg.dst)
        ):
            sec.note_auth_mismatch(now, node=msg.dst, peer=msg.src)
            return
        # measure what the accepted shutdown is about to tear down,
        # before drop_session purges it on both sides
        affected = sorted(
            set(self.speakers[msg.dst]._fecs_via(msg.src))
            | set(self.speakers[msg.src]._fecs_via(msg.dst))
        )
        if sec is not None:
            sec.note_hijack_teardown(now, msg.dst, msg.src, affected)
        self.drop_session(msg.src, msg.dst, reason="shutdown received")

    def exception_load(self, node: str, count: int) -> None:
        """``count`` TTL-exception punts land on ``node``'s control CPU.

        Exception work rides the same bounded queue as signaling
        (class SETUP, so a flood of punts can never outrank the
        keepalives it is trying to starve); each accepted punt burns
        one service slot, which is exactly how an unmitigated low-TTL
        flood starves liveness on an unprioritized queue.
        """
        if not self.queues:
            return
        tel = self.telemetry
        for _ in range(count):
            msg = LDPMessage(MsgType.TTL_EXCEPTION, node, node)
            self.message_counts[msg.kind] += 1
            if tel.enabled:
                tel.ldp_messages.labels(msg.kind.value).inc()
            self._control_arrive(msg)

    def refresh_node(self, name: str) -> Tuple[int, int]:
        """Rewrite one speaker's ILM/FTN entries in place from its
        live protocol state (local labels + learned bindings + SPF).

        The delegation-fallback / controller-resync primitive: install
        clears stale marks, so still-valid forwarding state survives a
        controller orphaning untouched while dead entries stay stale
        for the flush.  Emits no events -- network-wide state does not
        change.  Returns the number of (ILM, FTN) entries rewritten.
        """
        speaker = self.speakers[name]
        node = speaker.node
        ilm_writes = ftn_writes = 0
        for fec_id in sorted(speaker.local_labels):
            state = self.fecs.get(fec_id)
            if state is None or state.withdrawn:
                continue
            label = speaker.local_labels[fec_id]
            if name == state.egress:
                node.ilm.install(label, NHLFE(op=LabelOp.POP))
                ilm_writes += 1
                continue
            nh = speaker._next_hop_to_egress(state.egress)
            if nh is None:
                continue
            label_in = speaker.bindings.get(fec_id, {}).get(nh)
            if label_in is None:
                continue
            ilm, ftn = speaker._program(state, label, nh, label_in)
            ilm_writes += ilm
            ftn_writes += ftn
        return ilm_writes, ftn_writes

    # -- liveness (keepalive refresh + hold-timer expiry) -------------------
    def _liveness_tick(self) -> None:
        cfg = self.overload
        if cfg is None:
            return
        now = self.scheduler.now
        expired: Set[Tuple[str, str]] = set()
        for name in sorted(self.speakers):
            speaker = self.speakers[name]
            for peer in sorted(speaker.sessions):
                last = self._last_heard.get((name, peer))
                if last is not None and now - last > HOLD_TIME:
                    expired.add(self._pair(name, peer))
        for a, b in sorted(expired):
            self.holds_expired += 1
            self.drop_session(a, b, reason="hold timer expired")
        for name in sorted(self.speakers):
            speaker = self.speakers[name]
            if speaker.restarting:
                continue
            for peer in sorted(speaker.sessions):
                self.send(LDPMessage(MsgType.KEEPALIVE, name, peer))
        if cfg.horizon is not None and now + KEEPALIVE_INTERVAL <= cfg.horizon:
            self.scheduler.after(KEEPALIVE_INTERVAL, self._liveness_tick)

    def _session_up(self, a: str, b: str) -> None:
        self.sessions_established.append((self.scheduler.now, a, b))
        if self.overload is not None:
            # a fresh session counts as recently heard in both directions
            self._last_heard[(a, b)] = self.scheduler.now
            self._last_heard[(b, a)] = self.scheduler.now
        tel = self.telemetry
        if tel.enabled:
            tel.ldp_sessions.inc()
            event = SessionStateChange(node=a, peer=b, state="up")
            event.time = self.scheduler.now
            tel.events.emit(event)
        # a pending reconnection has succeeded once both directions are up
        key = self._pair(a, b)
        pending = self._reconnecting.get(key)
        if (
            pending is not None
            and b in self.speakers[a].sessions
            and a in self.speakers[b].sessions
        ):
            del self._reconnecting[key]
            downtime = self.scheduler.now - pending["down_at"]
            self.sessions_recovered.append(
                (self.scheduler.now, key[0], key[1], downtime)
            )
            if tel.enabled:
                tel.fault_recovery.labels("ldp-session").observe(downtime)

    @staticmethod
    def _pair(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- session failure and recovery ---------------------------------------
    def drop_session(self, a: str, b: str, reason: str = "injected") -> None:
        """Tear down the LDP session between ``a`` and ``b``.

        Both speakers purge the bindings they learned over the session
        and withdraw any mapping that depended on it (re-installing
        from liberally retained bindings when an alternative next hop
        exists).  Reconnection attempts then run with exponential
        backoff until the session re-forms or ``max_retries`` is
        exhausted -- while the underlying adjacency is gone, attempts
        keep backing off, so a healed link is re-discovered.
        """
        was_up = (
            b in self.speakers[a].sessions or a in self.speakers[b].sessions
        )
        if reason == "hold timer expired" and self.security is not None:
            # a starved hold timer during a flood attack: record what
            # the expiry tears down, before the purge below removes it
            affected = sorted(
                set(self.speakers[a]._fecs_via(b))
                | set(self.speakers[b]._fecs_via(a))
            )
            self.security.note_hold_expiry_teardown(
                self.scheduler.now, a, b, affected
            )
        tel = self.telemetry
        for x, y in ((a, b), (b, a)):
            if y in self.speakers[x].sessions:
                self.speakers[x].session_lost(y)
                if tel.enabled:
                    event = SessionStateChange(node=x, peer=y, state="down")
                    event.time = self.scheduler.now
                    tel.events.emit(event)
        if not was_up:
            return
        self.sessions_lost.append((self.scheduler.now, a, b))
        if tel.enabled:
            tel.ldp_sessions.dec()
        key = self._pair(a, b)
        self._reconnecting[key] = {
            "attempt": 0.0,
            "down_at": self.scheduler.now,
        }
        self.scheduler.after(
            self.backoff.first_delay(key), self._try_reconnect, key
        )

    def _try_reconnect(self, key: Tuple[str, str]) -> None:
        pending = self._reconnecting.get(key)
        if pending is None:
            return  # recovered (or abandoned) in the meantime
        a, b = key
        attempt = int(pending["attempt"]) + 1
        pending["attempt"] = float(attempt)
        if self.backoff.exhausted(attempt):
            del self._reconnecting[key]
            self.reconnects_abandoned += 1
            return
        self.reconnect_attempts += 1
        tel = self.telemetry
        if tel.enabled:
            tel.ldp_retries.labels(a, b).inc()
        if self.topology.has_link(a, b):
            # re-run discovery: fresh HELLOs re-arm the INIT exchange.
            # Forget hello state first -- an INIT lost to an overloaded
            # control queue must not leave discovery half-armed, where
            # retried HELLOs are no longer "first" and nobody INITs
            self.speakers[a].heard.discard(b)
            self.speakers[b].heard.discard(a)
            self.send(LDPMessage(MsgType.HELLO, a, b))
            self.send(LDPMessage(MsgType.HELLO, b, a))
        self.scheduler.after(
            self.backoff.next_delay(key, attempt), self._try_reconnect, key
        )

    # -- graceful restart (RFC 3478 semantics) ------------------------------
    def begin_graceful_restart(self, name: str) -> Tuple[int, int]:
        """Warm control-plane crash at ``name``: non-stop forwarding.

        The speaker's control plane dies (incoming messages are
        ignored; protocol state is lost except the label bindings it
        recovers from the preserved forwarding tables, per RFC 3478)
        while its data plane keeps forwarding on stale-marked ILM/FTN
        entries.  Sessions to its peers go down *gracefully*: because
        the restarting speaker advertised the fault-tolerant restart
        capability, helpers keep the bindings and forwarding state
        learned from it, merely stale-marking the entries routed via
        the restarting node instead of withdrawing them.  Returns the
        number of (ILM, FTN) entries stale-marked at ``name``.
        """
        speaker = self.speakers[name]
        node = speaker.node
        # the staging bank dies with the software
        if node.ilm.in_transaction:
            node.ilm.rollback()
        if node.ftn.in_transaction:
            node.ftn.rollback()
        marked = (node.ilm.mark_all_stale(), node.ftn.mark_all_stale())
        speaker.restarting = True
        tel = self.telemetry
        for peer_name in sorted(speaker.sessions):
            peer = self.speakers[peer_name]
            peer.sessions.discard(name)
            peer.heard.discard(name)
            # helper behaviour: keep state, stale-mark entries via name
            for fec_id, label in peer.local_labels.items():
                nhlfe = peer.node.ilm.get(label)
                if nhlfe is not None and nhlfe.next_hop == name:
                    peer.node.ilm.mark_stale(label)
                    state = self.fecs.get(fec_id)
                    if state is not None:
                        ftn_nhlfe = peer.node.ftn.entry_for(state.fec)
                        if (
                            ftn_nhlfe is not None
                            and ftn_nhlfe.next_hop == name
                        ):
                            peer.node.ftn.mark_stale(state.fec)
            if tel.enabled:
                for x, y in ((name, peer_name), (peer_name, name)):
                    event = SessionStateChange(node=x, peer=y, state="down")
                    event.time = self.scheduler.now
                    tel.events.emit(event)
                tel.ldp_sessions.dec()
        speaker.sessions.clear()
        speaker.heard.clear()
        return marked

    def complete_graceful_restart(self, name: str) -> None:
        """The control plane at ``name`` is back, restart flag set.

        Its egress originations are refreshed in place from the
        recovered bindings, then discovery re-runs on every adjacency;
        as sessions re-form, both sides re-advertise their mappings and
        the :meth:`LDPSpeaker._refresh_from` path clears the stale
        marks without ever touching the labels packets are switched on.
        Entries never refreshed stay stale until the injector's
        hold-timer flush removes them.
        """
        speaker = self.speakers[name]
        speaker.restarting = False
        for fec_id, state in self.fecs.items():
            if state.egress != name or state.withdrawn:
                continue
            label = speaker.local_labels.get(fec_id)
            if label is not None and speaker.node.ilm.is_stale(label):
                speaker.node.ilm.install(label, NHLFE(op=LabelOp.POP))
        # re-run discovery in both directions, as reconnection does
        for neighbor in sorted(self.topology.neighbors(name)):
            self.send(LDPMessage(MsgType.HELLO, name, neighbor))
            self.send(LDPMessage(MsgType.HELLO, neighbor, name))

    # -- operations --------------------------------------------------------
    def start(self) -> None:
        """Begin discovery on every router."""
        if self._started:
            raise RuntimeError("already started")
        self._started = True
        for speaker in self.speakers.values():
            speaker.start()
        cfg = self.overload
        if cfg is not None and cfg.horizon is not None:
            self.scheduler.after(KEEPALIVE_INTERVAL, self._liveness_tick)

    def announce_fec(self, fec_id: str, fec: FEC, egress: str) -> FECState:
        """The egress originates a FEC (schedule after sessions form)."""
        if fec_id in self.fecs:
            raise ValueError(f"FEC {fec_id!r} already announced")
        state = FECState(fec=fec, egress=egress)
        self.fecs[fec_id] = state
        self.speakers[egress].originate(fec_id)
        return state

    def withdraw_fec(self, fec_id: str) -> None:
        state = self.fecs[fec_id]
        state.withdrawn = True
        egress = self.speakers[state.egress]
        label = egress.local_labels.pop(fec_id, None)
        if label is not None:
            if label in egress.node.ilm:
                egress.node.ilm.remove(label)
            egress.allocator.release(label)
            # the egress's advertisement is gone with its binding
            # (previously left behind, leaving FECState.advertised
            # claiming a label the allocator had already reclaimed)
            state.advertised.pop(state.egress, None)
            egress._note_withdraw(fec_id, label)
        state.installed_at.pop(state.egress, None)
        for peer in sorted(egress.sessions):
            self.send(
                LDPMessage(
                    MsgType.LABEL_WITHDRAW, state.egress, peer, fec_id=fec_id
                )
            )

    # -- observations ----------------------------------------------------
    def all_sessions_up(self) -> bool:
        for a, b in self.topology.links:
            if b not in self.speakers[a].sessions:
                return False
            if a not in self.speakers[b].sessions:
                return False
        return True

    def converged(self, fec_id: str) -> bool:
        """Every router that can reach the egress has installed state."""
        state = self.fecs[fec_id]
        for name in self.speakers:
            if name == state.egress:
                continue
            spf = self.lsdb.spf(name)
            if spf.reachable(state.egress) and name not in state.installed_at:
                return False
        return True

    def convergence_time(self, fec_id: str) -> float:
        """Time from announcement until the last router installed."""
        state = self.fecs[fec_id]
        if not state.installed_at:
            return float("nan")
        return max(state.installed_at.values()) - min(
            state.installed_at.values()
        )

    @property
    def total_messages(self) -> int:
        return sum(self.message_counts.values())
