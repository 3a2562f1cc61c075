"""FaultInjector: executes a fault schedule against a live network.

The injector owns the inject/heal lifecycle of every fault: it drives
the data plane (:class:`~repro.net.network.MPLSNetwork` link/node
failures, channel loss/corruption), tells the run's control plane (a
row of :data:`~repro.faults.planes.CONTROL_PLANES`) after a
*detection delay* (FRR switchover, LDP reconvergence, session
teardown), and records a
:class:`FaultRecord` per fault with injection/heal/recovery times so
MTTR can be reported.

It also keeps an authoritative up/down timeline per link and node
(:meth:`link_was_up` / :meth:`node_was_up`) -- the soak tests use it to
assert that no packet was ever forwarded over a link that was down at
decision time.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.planes import NO_PLANE, ControlPlane
from repro.faults.scenario import (
    FAULT_KINDS,
    FaultSpec,
    Scenario,
    ScenarioError,
)
from repro.faults.subsystems import KIND_KEYS
from repro.mpls.label import LabelEntry
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.obs.events import FaultHealed, FaultInjected, StaleEntriesFlushed

#: how long a storm, spoof or flood lasts when its ``heal_at`` is omitted
WINDOW_S = 0.5
#: the source address of every forged packet
SPOOFED_SRC = "203.0.113.66"
#: how long the control plane takes to notice a data-plane fault or its
#: heal (a loss-of-light / BFD stand-in)
DETECTION_DELAY_S = 1e-3


@dataclass
class FaultRecord:
    """The observed lifecycle of one injected fault."""

    spec: FaultSpec
    injected_at: float
    healed_at: Optional[float] = None
    #: when the control plane finished recovering (switchover done,
    #: tables reconverged, session re-established, info base scrubbed)
    recovered_at: Optional[float] = None
    detail: str = ""
    skipped: bool = False

    def skip(self, detail: str) -> None:
        """The fault could not apply: it stays in the report, unapplied."""
        self.skipped = True
        self.detail = detail

    @property
    def mttr(self) -> Optional[float]:
        """Mean-time-to-repair contribution: inject -> full recovery."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at


@dataclass
class RestartRecord:
    """One graceful (warm) restart: the RFC 3478-style lifecycle.

    The control plane at ``node`` went away at ``began_at`` and its
    forwarding state was preserved and stale-marked; it resumed at
    ``resumed_at`` (refreshing still-valid entries in place), and the
    forwarding-state holding timer expired at ``hold_expired_at``,
    flushing whatever was never refreshed.
    """

    node: str
    began_at: float
    hold_time: float
    ilm_stale_marked: int = 0
    ftn_stale_marked: int = 0
    resumed_at: Optional[float] = None
    hold_expired_at: Optional[float] = None
    ilm_flushed: int = 0
    ftn_flushed: int = 0

    @property
    def stale_forwarding_s(self) -> Optional[float]:
        """How long packets were switched on stale-marked entries:
        until the resume refreshed everything, or until the hold timer
        flushed what the refresh never reclaimed."""
        if self.resumed_at is not None and not (
            self.ilm_flushed or self.ftn_flushed
        ):
            return self.resumed_at - self.began_at
        if self.hold_expired_at is not None:
            return self.hold_expired_at - self.began_at
        return None


def _methods_by_kind(cls):
    """Resolve each fault kind's ``_inject_<kind>``, ``_heal_<kind>``
    and ``_backfill_<kind>`` (``link-down`` -> ``_inject_link_down``)
    once, when the class is made.  A kind with no ``_inject_`` method,
    or with neither a heal nor a back-fill to stamp its recovery, is an
    error then, not when a scenario first uses it."""

    def resolve(prefix):
        return {
            kind: getattr(cls, prefix + kind.value.replace("-", "_"), None)
            for kind, contract in FAULT_KINDS.items()
            if contract.expand is None  # sugar never reaches the injector
        }

    cls._injects = resolve("_inject_")
    cls._heals = resolve("_heal_")
    cls._backfills = resolve("_backfill_")
    for kind, inject in cls._injects.items():
        if inject is None:
            raise TypeError(f"{cls.__name__} cannot inject {kind.value}")
        if cls._heals[kind] is None and cls._backfills[kind] is None:
            raise TypeError(f"{cls.__name__} never recovers {kind.value}")
    return cls


@_methods_by_kind
class FaultInjector:
    """Schedules and executes the faults of a :class:`Scenario`.

    Parameters
    ----------
    network:
        The running domain whose scheduler times everything.
    plane:
        The run's control plane, a bound row of
        :data:`~repro.faults.planes.CONTROL_PLANES`, told about every
        detected link or node fault (none: ``NO_PLANE``).  A fault kind
        whose ``controls`` do not name its row is refused.
    seed:
        Seeds the injector's private RNG (bit positions for
        corruption/bit-flips); independent of the schedule's seed.
    security:
        Optional :class:`~repro.security.SecurityMonitor`; required by
        the adversarial fault kinds, which account every forged input
        through it (and are measured against its guards).
    controller:
        Optional :class:`~repro.control.controller.PCEController`;
        required by the controller fault kinds, which crash it or cut
        its per-node channels.
    """

    def __init__(
        self,
        network,
        plane: ControlPlane = NO_PLANE,
        seed: int = 0,
        security=None,
        controller=None,
    ) -> None:
        self.network = network
        self.scheduler = network.scheduler
        self.plane = plane
        self.security = security
        self.controller = controller
        self.rng = random.Random((seed << 4) ^ 0xB17F11B)
        self.records: List[FaultRecord] = []
        self.restarts: List[RestartRecord] = []
        self._restarting: Dict[str, RestartRecord] = {}
        self.scrub_reports: List[Any] = []
        self.corrupted_packets = 0
        #: link key -> [(time, up)] transition log (True = came up)
        self._link_log: Dict[Tuple[str, str], List[Tuple[float, bool]]] = {}
        self._node_log: Dict[str, List[Tuple[float, bool]]] = {}

    # -- schedule ----------------------------------------------------------
    def apply(self, scenario: Scenario, seed: int = 0) -> List[FaultSpec]:
        """Materialize the scenario's schedule and arm every fault."""
        schedule = scenario.materialize(seed)
        for spec in schedule:
            self._validate(spec)
        for spec in schedule:
            self.schedule_fault(spec)
        return schedule

    def _validate(self, spec: FaultSpec) -> None:
        """Refuse a fault this run cannot inject: its kind's row of
        :data:`FAULT_KINDS` names everything it needs."""
        kind = spec.kind.value
        need = FAULT_KINDS[spec.kind]
        if need.target == "controller":
            if spec.target != ("controller",):
                raise ScenarioError(
                    f"{kind} targets the controller itself: "
                    "use \"target\": [\"controller\"]"
                )
        else:
            for node in spec.target:
                if node not in self.network.nodes:
                    raise ScenarioError(
                        f"{kind} targets unknown node {node!r}"
                    )
        topology = self.network.topology
        if need.target == "link" and not topology.has_link(*spec.target):
            raise ScenarioError(
                f"{kind} targets {spec.label}, which is not a link"
            )
        if need.controls and self.plane.control not in need.controls:
            feature = f" ({need.feature})" if need.feature else ""
            either = " or ".join(repr(c) for c in need.controls)
            raise ScenarioError(f"{kind}{feature} needs control = {either}")
        if need.key is not None and getattr(self, need.key) is None:
            raise ScenarioError(
                f"{kind} needs {KIND_KEYS[need.key][1]} "
                f"(scenario '{need.key}' key)"
            )
        name = spec.target[0]
        node = self.network.nodes.get(name)
        if need.hardware and not hasattr(node, "modifier"):
            raise ScenarioError(
                f"{kind} targets software node {name!r}; "
                "set \"hardware\": true"
            )
        if need.edge and not getattr(node, "is_edge", False):
            raise ScenarioError(
                f"{kind} targets {name!r}, which is not an edge LER: forged "
                "traffic enters over the trust boundary"
            )
        if need.queues and not self.plane.queues:
            raise ScenarioError(
                f"{kind} needs an 'overload' key: the exception path "
                "lands in the bounded control queues"
            )

    def schedule_fault(self, spec: FaultSpec) -> FaultRecord:
        """Arm one fault's inject (and heal, if any) on the scheduler."""
        record = FaultRecord(spec=spec, injected_at=spec.at)
        self.records.append(record)
        self.scheduler.at(spec.at, self._inject, record)
        if spec.heal_at is not None:
            self.scheduler.at(spec.heal_at, self._heal, record)
        return record

    # -- injection ---------------------------------------------------------
    def _inject(self, record: FaultRecord) -> None:
        spec = record.spec
        record.injected_at = self.scheduler.now
        self._injects[spec.kind](self, record)
        tel = self.network.telemetry
        if tel.enabled:
            tel.faults.labels(spec.kind.value, spec.label).inc()
            event = FaultInjected(
                fault=spec.kind.value, target=spec.label,
                detail=record.detail,
            )
            event.time = self.scheduler.now
            tel.events.emit(event)

    def _heal(self, record: FaultRecord) -> None:
        if record.skipped:
            return
        spec = record.spec
        record.healed_at = self.scheduler.now
        heal = self._heals[spec.kind]
        if heal is not None:  # else finalize() back-fills the recovery
            heal(self, record)
        tel = self.network.telemetry
        if tel.enabled:
            event = FaultHealed(
                fault=spec.kind.value,
                target=spec.label,
                downtime=record.healed_at - record.injected_at,
                detail=record.detail,
            )
            event.time = self.scheduler.now
            tel.events.emit(event)

    def _recovered(self, record: FaultRecord) -> None:
        record.recovered_at = self.scheduler.now
        tel = self.network.telemetry
        if tel.enabled and record.mttr is not None:
            tel.fault_recovery.labels(record.spec.kind.value).observe(
                record.mttr
            )

    # -- link down/up ------------------------------------------------------
    def _inject_link_down(self, record: FaultRecord) -> None:
        a, b = record.spec.target
        if (a, b) not in self.network._channel_of:
            record.skip("link already down")
            return
        self.network.fail_link(a, b)
        self._mark_link(a, b, up=False)
        self.scheduler.after(
            DETECTION_DELAY_S,
            self.plane.links_lost, record, [(a, b)], f"link {a}-{b} down",
        )

    def _links_back(
        self, links: List[Tuple[str, str]], record: FaultRecord
    ) -> None:
        """The control plane notices ``links`` came back: the fault's
        recovery."""
        self.plane.links_back(links)
        self._recovered(record)

    def _heal_link_down(self, record: FaultRecord) -> None:
        a, b = record.spec.target
        self.network.restore_link(a, b)
        self._mark_link(a, b, up=True)
        self.scheduler.after(
            DETECTION_DELAY_S, self._links_back, [(a, b)], record
        )

    # -- link loss / corruption -------------------------------------------
    def _inject_link_loss(self, record: FaultRecord) -> None:
        a, b = record.spec.target
        if (a, b) not in self.network._channel_of:
            record.skip("link is down; loss not applied")
            return
        link = self.network.link(a, b)
        rate = record.spec.params.get("rate", 0.2)
        record.detail = f"loss rate {rate}"
        link.set_loss(rate)

    def _heal_link_loss(self, record: FaultRecord) -> None:
        a, b = record.spec.target
        self.network.link(a, b).set_loss(0.0)
        self._recovered(record)

    def _inject_link_corrupt(self, record: FaultRecord) -> None:
        a, b = record.spec.target
        if (a, b) not in self.network._channel_of:
            record.skip("link is down; corruption not applied")
            return
        link = self.network.link(a, b)
        rate = record.spec.params.get("rate", 0.1)
        record.detail = f"corruption rate {rate}"
        link.set_corruption(rate, corruptor=self._corrupt_packet)

    def _heal_link_corrupt(self, record: FaultRecord) -> None:
        a, b = record.spec.target
        self.network.link(a, b).set_corruption(0.0, corruptor=None)
        self._recovered(record)

    def _corrupt_packet(self, packet):
        """Flip one bit in the top label; unlabelled packets are
        damaged beyond use (returned as None, a loss)."""
        if isinstance(packet, MPLSPacket) and not packet.stack.is_empty:
            self.corrupted_packets += 1
            top = packet.stack.top
            flipped = dataclasses.replace(
                top, label=top.label ^ (1 << self.rng.randrange(20))
            )
            entries = (flipped,) + packet.stack.entries[1:]
            return packet.with_stack(type(packet.stack)(entries))
        return None

    # -- node crash/restart -----------------------------------------------
    def _inject_node_crash(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        if name in self.network._down_nodes:
            record.skip("node already down")
            return
        self.network.fail_node(name)
        self._mark_node(name, up=False)
        incident = self.network._down_nodes[name]
        for a, b in incident:
            self._mark_link(a, b, up=False)
        record.detail = f"{len(incident)} links down"
        self.plane.node_down(name)
        self.scheduler.after(
            DETECTION_DELAY_S,
            self.plane.links_lost, record, incident, f"node {name} down",
        )

    def _heal_node_crash(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        # restore_node reports the links it actually brought back: a
        # link shared with a still-crashed neighbour stays down and is
        # restored by that neighbour's own restart, so it must not be
        # marked up (or announced to FRR) here
        restored = self.network.restore_node(name)
        self._mark_node(name, up=True)
        for a, b in restored:
            self._mark_link(a, b, up=True)
        self.plane.node_up(name)
        self.scheduler.after(
            DETECTION_DELAY_S, self._links_back, restored, record
        )

    # -- graceful (warm) restart -------------------------------------------
    def _inject_node_restart(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        if name in self.network._down_nodes or name in self._restarting:
            record.skip("node already down or restarting")
            return
        hold_time = record.spec.params.get("hold_time", 0.25)
        # either LDP row: the kind's controls name both
        ilm_marked, ftn_marked = self.plane.process.begin_graceful_restart(
            name
        )
        restart = RestartRecord(
            node=name,
            began_at=self.scheduler.now,
            hold_time=hold_time,
            ilm_stale_marked=ilm_marked,
            ftn_stale_marked=ftn_marked,
        )
        self.restarts.append(restart)
        self._restarting[name] = restart
        record.detail = (
            f"warm restart; {ilm_marked}+{ftn_marked} entries "
            f"stale-marked, hold timer {hold_time}s"
        )
        tel = self.network.telemetry
        if tel.enabled:
            tel.stale_entries.labels(name, "ilm").set(ilm_marked)
            tel.stale_entries.labels(name, "ftn").set(ftn_marked)
        self.scheduler.after(hold_time, self._hold_expired, restart)

    def _heal_node_restart(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        restart = self._restarting.pop(name, None)
        if restart is None:
            return
        record.detail += self.plane.resume(name)
        restart.resumed_at = self.scheduler.now
        self._recovered(record)

    def _hold_expired(self, restart: RestartRecord) -> None:
        """The forwarding-state holding timer: entries stale-marked at
        the restart and never refreshed since are flushed now, at
        exactly ``began_at + hold_time``."""
        nodes = {restart.node, *self.plane.helpers(restart.node)}
        ilm_flushed = ftn_flushed = 0
        tel = self.network.telemetry
        for name in sorted(nodes):
            node = self.network.nodes[name]
            labels = node.ilm.flush_stale()
            fecs = node.ftn.flush_stale()
            ilm_flushed += len(labels)
            ftn_flushed += len(fecs)
            if (labels or fecs) and tel.enabled:
                event = StaleEntriesFlushed(
                    node=name,
                    ilm_flushed=len(labels),
                    ftn_flushed=len(fecs),
                )
                event.time = self.scheduler.now
                tel.events.emit(event)
            if tel.enabled:
                tel.stale_entries.labels(name, "ilm").set(0)
                tel.stale_entries.labels(name, "ftn").set(0)
        restart.hold_expired_at = self.scheduler.now
        restart.ilm_flushed = ilm_flushed
        restart.ftn_flushed = ftn_flushed

    # -- LDP session drop ---------------------------------------------------
    def _inject_ldp_session_drop(self, record: FaultRecord) -> None:
        a, b = record.spec.target
        self.plane.process.drop_session(a, b)
        record.detail = "session reset; backoff reconnect armed"

    def _backfill_ldp_session_drop(self, record: FaultRecord) -> None:
        # recovery is autonomous: whenever the process's own backoff
        # machinery re-establishes the session
        want = tuple(sorted(record.spec.target))
        for when, a, b, _downtime in self.plane.process.sessions_recovered:
            if tuple(sorted((a, b))) == want and when >= record.injected_at:
                record.recovered_at = when
                return

    # -- information-base bit flips ----------------------------------------
    def _inject_ib_bitflip(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        node = self.network.nodes[name]
        level, address = self._pick_slot(node, record.spec.params.get("level"))
        if level is None:
            record.skip("information base empty; nothing to corrupt")
            return
        # one seeded bit of the stored label flips
        label_xor = 1 << self.rng.randrange(20)
        node.modifier.corrupt_pair(level, address, label_xor=label_xor)
        record.detail = (
            f"level {level} addr {address} "
            f"xor index=0x0 label={label_xor:#x} op=0x0"
        )

    def _pick_slot(self, node, level):
        """Choose a populated (level, address) slot deterministically:
        ``level`` when given, the address always seeded."""
        # mirror before choosing, so the info base reflects the tables
        node._sync_info_base()
        counts = node.modifier.ib_counts()
        if level is None:
            populated = [lvl for lvl in (1, 2, 3) if counts[lvl - 1] > 0]
            if not populated:
                return None, None
            level = self.rng.choice(populated)
        if counts[level - 1] == 0:
            return None, None
        return level, self.rng.randrange(counts[level - 1])

    def _heal_ib_bitflip(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        node = self.network.nodes[name]
        reports = node.scrub_info_base()
        self.scrub_reports.extend(reports)
        repaired = sum(r.repaired for r in reports)
        record.detail += f"; scrub repaired {repaired}"
        self._recovered(record)

    # -- signaling storms ---------------------------------------------------
    def _storm_window(self, record: FaultRecord) -> float:
        spec = record.spec
        if spec.heal_at is not None:
            return spec.heal_at - spec.at
        return WINDOW_S

    def _inject_signaling_storm(self, record: FaultRecord) -> None:
        """Flood the target's message-level LDP with seeded bursts:
        forged LABEL_MAPPINGs (unknown FECs -- harmless if processed,
        but each one occupies queue space and a service slot) plus a
        HELLO flood, at seeded times across the storm window."""
        from repro.control.ldp_sessions import LDPMessage, MsgType

        spec = record.spec
        target = spec.target[0]
        window = self._storm_window(record)
        start = self.scheduler.now
        neighbors = sorted(self.network.topology.neighbors(target))
        if not neighbors:
            record.skip("target has no neighbors; nothing to flood")
            return
        mappings = spec.params.get("mappings", 2000)
        hellos = spec.params.get("hellos", 100)
        for i in range(mappings):
            msg = LDPMessage(
                MsgType.LABEL_MAPPING,
                self.rng.choice(neighbors),
                target,
                fec_id=f"__storm-{target}-{i}",
                label=900_000 + i,
            )
            when = start + self.rng.uniform(0.0, window)
            self.scheduler.at(when, self.plane.process.send, msg)
        for i in range(hellos):
            msg = LDPMessage(
                MsgType.HELLO, self.rng.choice(neighbors), target
            )
            when = start + self.rng.uniform(0.0, window)
            self.scheduler.at(when, self.plane.process.send, msg)
        record.detail = (
            f"{mappings} mappings + {hellos} hellos over {window:g}s"
        )

    def _sessions_up(self, node: str) -> bool:
        """Is every LDP session of ``node`` (one per neighbour) up?"""
        sessions = self.plane.speakers[node].sessions
        neighbors = self.network.topology.neighbors(node)
        return all(n in sessions for n in neighbors)

    def _heal_signaling_storm(self, record: FaultRecord) -> None:
        if self._sessions_up(record.spec.target[0]):
            # the flood never took a session down: recovered as of the
            # moment it stopped
            self._recovered(record)
        # else finalize() back-fills from sessions_recovered

    def _backfill_signaling_storm(self, record: FaultRecord) -> None:
        # the storm recovers when every session the flood took down has
        # come back up
        target = record.spec.target[0]
        if not self._sessions_up(target):
            return
        times = [
            when
            for when, a, b, _downtime in self.plane.process.sessions_recovered
            if target in (a, b) and when >= record.injected_at
        ]
        if times:
            record.recovered_at = max(times)

    # -- adversarial faults --------------------------------------------------
    def _inject_label_spoof(self, record: FaultRecord) -> None:
        """Forge labelled packets over the target LER's trust boundary.

        Each forged packet carries a *valid* local label of the target
        (cycled over its announced FECs) so an unguarded edge switches
        it straight down the FEC's LSP; an armed edge guard rejects
        every one (a labelled packet from outside the domain is never
        self-originated).
        """
        spec = record.spec
        target = spec.target[0]
        monitor = self.security
        window = self._storm_window(record)
        start = self.scheduler.now
        packets = spec.params.get("packets", 40)
        ttl = spec.params.get("ttl", 64)
        speaker = self.plane.speakers[target]
        fecs = [
            f for f in sorted(speaker.local_labels)
            if not f.startswith("__")
        ]
        if not fecs:
            record.skip("target announces no FECs; nothing to spoof")
            return
        attack = monitor.begin_attack(spec.kind.value, spec.label, start)
        for i in range(packets):
            fec = fecs[i % len(fecs)]
            label = speaker.local_labels[fec]
            flow_id = monitor.allocate_forged_flow_id(attack, fec)
            # aim the inner header at the FEC's real destination so an
            # accepted forgery travels the whole LSP and counts as a
            # leak on delivery
            dst = monitor.flow_dsts.get(fec, SPOOFED_SRC)
            when = start + self.rng.uniform(0.0, window)
            inner = IPv4Packet(
                src=SPOOFED_SRC, dst=dst, ttl=ttl,
                flow_id=flow_id, seq=i, created_at=when,
            )
            pkt = MPLSPacket(
                LabelStack([LabelEntry(label=label, ttl=ttl)]), inner
            )
            self.scheduler.at(when, self.network.inject_external, target, pkt)
        record.detail = (
            f"{packets} forged stacks across {len(fecs)} FEC(s) "
            f"over {window:g}s"
        )

    # the forged train ends inside the window: the heal is the recovery
    _heal_label_spoof = _recovered

    def _inject_ldp_hijack(self, record: FaultRecord) -> None:
        """Forge an LDP shutdown against the target session.

        The forged message carries a deliberately *wrong* (but present)
        auth token -- ``send()`` only stamps the genuine session token
        onto messages with no token at all, so the forgery reaches
        ``_handle_shutdown`` as an attacker would deliver it.  With
        authentication on it is rejected and counted; with it off the
        session tears down and its FECs are the blast.
        """
        from repro.control.ldp_sessions import (
            LDPMessage,
            MsgType,
            session_token,
        )

        spec = record.spec
        a, b = spec.target
        now = self.scheduler.now
        self.security.begin_attack(spec.kind.value, spec.label, now)
        forged = session_token(a, b) ^ (1 + self.rng.randrange(0xFFFF))
        msg = LDPMessage(MsgType.SHUTDOWN, a, b, auth=forged)
        self.plane.process.send(msg)
        record.detail = f"forged shutdown {a}->{b} with bad auth token"

    def _backfill_ldp_hijack(self, record: FaultRecord) -> None:
        # a rejected hijack never tore anything down: recovered the
        # moment it was rejected.  An accepted one recovers exactly like
        # a session drop.
        attack = self._attack(record)
        if attack is not None and attack.packets_rejected:
            record.recovered_at = attack.detected_at
        else:
            self._backfill_ldp_session_drop(record)

    def _inject_xconnect_leak(self, record: FaultRecord) -> None:
        """Corrupt one ILM entry so a victim FEC's traffic is switched
        into another FEC's LSP (a VPN cross-connect).

        SEU-style direct table write: the victim's out-label is replaced
        with the next hop's binding for the imposter FEC, so leaked
        packets really do arrive at the wrong egress.  The install bumps
        the table generation, so the flow caches drop the stale
        decision before the next packet.
        """
        spec = record.spec
        target = spec.target[0]
        monitor = self.security
        now = self.scheduler.now
        speaker = self.plane.speakers[target]
        node = self.network.nodes[target]
        candidates = []
        for fec_id in sorted(speaker.local_labels):
            if fec_id.startswith("__"):
                continue
            label = speaker.local_labels[fec_id]
            nhlfe = node.ilm.get(label)
            if (
                nhlfe is None
                or nhlfe.next_hop is None
                or nhlfe.out_label is None
            ):
                continue  # unprogrammed, egress, or PHP entry
            candidates.append((fec_id, label, nhlfe))
        victim = spec.params.get("victim")
        if victim is not None:
            candidates = [c for c in candidates if c[0] == victim]
        if not candidates:
            record.skip(
                "no transit ILM entry to cross-connect"
                + (f" for victim {victim!r}" if victim else "")
            )
            return
        victim, label, nhlfe = candidates[0]
        peer = self.plane.speakers[nhlfe.next_hop]
        imposter = spec.params.get("imposter")
        imposters = [
            f for f in sorted(peer.local_labels)
            if f != victim
            and not f.startswith("__")
            and peer.local_labels[f] != nhlfe.out_label
        ]
        if imposter is not None:
            imposters = [f for f in imposters if f == imposter]
        if not imposters:
            record.skip(
                f"no imposter FEC at {nhlfe.next_hop} to leak "
                f"{victim} into"
            )
            return
        imposter = imposters[0]
        leak_label = peer.local_labels[imposter]
        node.ilm.install(
            label, dataclasses.replace(nhlfe, out_label=leak_label)
        )
        monitor.begin_attack(spec.kind.value, spec.label, now)
        monitor.note_xconnect_injected(now, target, victim, imposter)
        record.detail = (
            f"{victim} ILM entry at {target} now switches into "
            f"{imposter}'s LSP"
        )

    def _backfill_xconnect_leak(self, record: FaultRecord) -> None:
        # quarantine *is* the recovery: the poisoned entry is out of the
        # table from that audit pass on
        attack = self._attack(record)
        if attack is not None:
            record.recovered_at = attack.mitigated_at

    def _attack(self, record: FaultRecord):
        """The security monitor's account of an attack fault, if any."""
        if self.security is None:
            return None
        return self.security.attack(record.spec.kind.value, record.spec.label)

    def _inject_ttl_flood(self, record: FaultRecord) -> None:
        """Storm the target edge with TTL=1 packets aimed at routed
        prefixes: every one expires at the ingress and punts exception
        work toward the bounded control queues, where (unmitigated) it
        competes with keepalives."""
        spec = record.spec
        target = spec.target[0]
        monitor = self.security
        window = self._storm_window(record)
        start = self.scheduler.now
        packets = spec.params.get("packets", 400)
        # dst must be a routed prefix: the ingress FTN lookup precedes
        # its TTL check, so an unroutable flood never reaches the
        # exception path.  Skip prefixes homed at the target itself --
        # those deliver locally without ever expiring.
        local = {
            prefix
            for prefix, egress, _ in monitor.flows
            if egress == target
        }
        pairs = sorted(
            (prefix, str(dst))
            for prefix, dst in monitor.flow_dsts.items()
            if prefix not in local
        )
        if not pairs:
            record.skip("no routed prefixes to aim the flood at")
            return
        attack = monitor.begin_attack(spec.kind.value, spec.label, start)
        for i in range(packets):
            prefix, dst = pairs[i % len(pairs)]
            flow_id = monitor.allocate_forged_flow_id(attack, prefix)
            when = start + self.rng.uniform(0.0, window)
            pkt = IPv4Packet(
                src=SPOOFED_SRC, dst=dst, ttl=1,
                flow_id=flow_id, seq=i, created_at=when,
            )
            self.scheduler.at(when, self.network.inject_external, target, pkt)
        record.detail = f"{packets} TTL=1 packets over {window:g}s"

    # the flood stops: recovered now if it never starved a session to
    # death, else when the sessions it killed are back
    _heal_ttl_flood = _heal_signaling_storm
    _backfill_ttl_flood = _backfill_signaling_storm

    # -- controller faults ---------------------------------------------------
    def _inject_controller_crash(self, record: FaultRecord) -> None:
        if not self.controller.alive:
            record.skip("controller already down")
            return
        self.controller.crash()
        record.detail = (
            "controller down; adopted nodes will hold-timer out"
            if self.controller.config.enabled
            else "controller disabled; crash is bookkeeping only"
        )

    def _heal_controller_crash(self, record: FaultRecord) -> None:
        self.controller.restart()
        record.detail += "; warm restart, resync armed"
        if not self.controller.config.enabled:
            # a dark controller has nothing to resync: the heal is the
            # whole recovery
            self._recovered(record)
        # else finalize() back-fills recovered_at from the readopts

    def _backfill_controller_crash(self, record: FaultRecord) -> None:
        # recovered once every node has been re-adopted after the
        # restart: the time of the last readopt
        if record.healed_at is None:
            return
        times: Dict[str, float] = {}
        for entry in self.controller.readopts:
            if entry["at"] >= record.healed_at:
                times.setdefault(entry["node"], entry["at"])
        if all(n in times for n in self.controller.channels):
            record.recovered_at = max(times.values())

    def _inject_controller_partition(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        if self.controller.channels[name].partitioned:
            record.skip("channel already partitioned")
            return
        self.controller.cut(name)
        record.detail = f"controller channel to {name} cut"

    def _heal_controller_partition(self, record: FaultRecord) -> None:
        name = record.spec.target[0]
        self.controller.restore(name)
        record.detail += "; channel restored, readopt pending"
        if not self.controller.config.enabled:
            self._recovered(record)
        # else finalize() back-fills recovered_at from the readopts

    def _backfill_controller_partition(self, record: FaultRecord) -> None:
        if record.healed_at is None:
            return
        target = record.spec.target[0]
        for entry in self.controller.readopts:
            if entry["node"] == target and entry["at"] >= record.healed_at:
                record.recovered_at = entry["at"]
                return

    # -- timelines ----------------------------------------------------------
    def _mark_link(self, a: str, b: str, up: bool) -> None:
        key = (a, b) if a <= b else (b, a)
        self._link_log.setdefault(key, []).append((self.scheduler.now, up))

    def _mark_node(self, name: str, up: bool) -> None:
        self._node_log.setdefault(name, []).append((self.scheduler.now, up))

    def link_was_up(self, a: str, b: str, t: float) -> bool:
        """Was the adjacency up at simulated time ``t``?  (Links start
        up; the log records every injected transition.)"""
        key = (a, b) if a <= b else (b, a)
        state = True
        for ts, up in self._link_log.get(key, []):
            if ts > t:
                break
            state = up
        return state and self.node_was_up(a, t) and self.node_was_up(b, t)

    def node_was_up(self, name: str, t: float) -> bool:
        state = True
        for ts, up in self._node_log.get(name, []):
            if ts > t:
                break
            state = up
        return state

    # -- wrap-up ------------------------------------------------------------
    def finalize(self) -> None:
        """Back-fill recovery times that are observed, not scheduled --
        an LDP session drop recovers whenever the process's backoff
        machinery re-establishes the session, a controller fault
        whenever the PCE's reconnect loop re-adopts: each unrecovered
        record's ``_backfill_<kind>``, if its kind has one."""
        for record in self.records:
            if record.recovered_at is not None or record.skipped:
                continue
            backfill = self._backfills[record.spec.kind]
            if backfill is not None:
                backfill(self, record)

    @property
    def mttr_values(self) -> List[float]:
        """Every completed inject->recover interval, in seconds."""
        return [r.mttr for r in self.records if r.mttr is not None]
