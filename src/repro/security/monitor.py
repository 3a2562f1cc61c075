"""Adversarial-attack detection and mitigation (the security monitor).

The fault injector can forge traffic and control messages that a random
chaos schedule never produces: spoofed label stacks pushed over the
trust boundary, forged LDP shutdowns, a cross-connected ILM entry
leaking one FEC's traffic into another's LSP, and low-TTL packet storms
aimed at the control plane's exception path.  This module is the layer
those attacks are measured *against*:

* :class:`SecurityConfig` -- the scenario's ``security`` key: one
  ``enabled`` switch that arms every guard, so a scenario can run the
  same seeded attack with and without its mitigation and compare
  blast radii.
* :class:`SecurityMonitor` -- the runtime: owns the edge label-stack
  guard (RFC 4364 trust-boundary semantics: a labelled packet arriving
  from outside the MPLS domain is never trusted), verifies per-session
  LDP auth tokens, cross-checks ILM entries against neighbour label
  announcements for cross-FEC leaks (quarantining hits through the
  transactional table API), and rate-limits TTL-exception punts before
  they reach the bounded control queues.
* :class:`AttackRecord` -- per-attack accounting: time-to-detect,
  time-to-mitigate, blast radius in FECs, and packets
  accepted/rejected/leaked -- the numbers the chaos report's gated
  ``security`` section carries.

Import discipline: this package is imported *by* the control plane and
the fault layer, never the other way around -- attack kinds are plain
strings here and the LDP process is duck-typed, which keeps
``repro.security`` free of cycles with ``repro.control`` and
``repro.faults``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.packet import MPLSPacket
from repro.obs.events import AttackDetected, AttackMitigated

#: Attack kinds, mirroring the ``FaultKind`` values in
#: :mod:`repro.faults.scenario` (kept as strings to avoid the import).
LABEL_SPOOF = "label-spoof"
LDP_HIJACK = "ldp-hijack"
XCONNECT_LEAK = "xconnect-leak"
TTL_FLOOD = "ttl-flood"

#: Forged packets get flow ids from a range real sources never reach,
#: so delivered-forged counts can't collide with legitimate flows.
FORGED_FLOW_BASE = 0x5EC00000


#: TTL-exception punts admitted to the control plane per second, and
#: the exception path's token-bucket burst
EXCEPTION_RATE = 200.0
EXCEPTION_BURST = 20.0

#: What ``enabled`` arms, all together (the report's
#: ``security.guards``): the LER trust-boundary guard on labelled
#: packets, per-session auth tokens on LDP shutdowns, the cross-FEC
#: audit of ILM entries against neighbour announcements, quarantine of
#: the cross-connects it finds, and the exception-path token bucket.
GUARDS = {
    "edge_guard": True,
    "authenticate": True,
    "cross_check": True,
    "quarantine": True,
    "exception_rate": EXCEPTION_RATE,
    "exception_burst": EXCEPTION_BURST,
}


@dataclass(frozen=True)
class SecurityConfig:
    """The scenario's ``security`` key.

    ``enabled`` is the mitigation switch (``repro chaos --mitigation
    on|off`` overrides it): it arms every guard of :data:`GUARDS`.
    With it off the attacks still run and are still accounted, but
    every guard stands down -- the blast-radius baseline the mitigated
    run is compared against.
    """

    enabled: bool = True


@dataclass
class AttackRecord:
    """Accounting for one injected attack fault."""

    kind: str
    target: str
    injected_at: float
    detected_at: Optional[float] = None
    mitigated_at: Optional[float] = None
    #: FECs currently inside the blast: torn down, leaked into, or
    #: carrying accepted forged traffic.  Quarantine *moves* a FEC from
    #: here to ``quarantined_fecs``, so ``blast_radius`` uniformly
    #: means "FECs still damaged at the end of the run".
    blast_fecs: Set[str] = field(default_factory=set)
    quarantined_fecs: Set[str] = field(default_factory=set)
    #: Forged packets/messages the system accepted (guard down or off).
    packets_accepted: int = 0
    #: Forged packets/messages a guard rejected.
    packets_rejected: int = 0
    #: Forged or misdirected packets that reached a host they never
    #: should have (filled in by :meth:`SecurityMonitor.finalize`).
    packets_leaked: int = 0
    detail: str = ""

    @property
    def blast_radius(self) -> int:
        return len(self.blast_fecs)

    @property
    def time_to_detect(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def time_to_mitigate(self) -> Optional[float]:
        if self.mitigated_at is None:
            return None
        return self.mitigated_at - self.injected_at


class ExceptionRateLimiter:
    """Deterministic per-node token bucket for TTL-exception punts.

    Integer admission over float tokens: ``admit`` never admits a
    fraction of a packet, and refill is computed from elapsed simulated
    time, so the same seed always admits the same packets.
    """

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self._state: Dict[str, Tuple[float, float]] = {}

    def admit(self, node: str, now: float, count: int) -> int:
        """Admit up to ``count`` exceptions at ``now``; returns how
        many passed (the rest are the caller's to drop)."""
        tokens, last = self._state.get(node, (self.burst, now))
        tokens = min(self.burst, tokens + max(0.0, now - last) * self.rate)
        admitted = min(count, int(tokens))
        self._state[node] = (tokens - admitted, now)
        return admitted


class SecurityMonitor:
    """The runtime attack ledger and mitigation hooks.

    One monitor serves one chaos run.  It is wired in by
    :func:`repro.faults.chaos.build_run`: the network holds it as
    ``security_monitor`` (TTL-exception punts), edge nodes hold its
    :meth:`guard_external` as their ``external_guard``, the message-LDP
    process holds it as ``security`` (auth tokens), the auditor calls
    :meth:`run_cross_fec_audit` each pass, and the injector calls
    :meth:`begin_attack` / the ``note_*`` hooks as forged inputs land.
    """

    def __init__(
        self,
        network: Any,
        config: SecurityConfig,
        plane: Any,
    ) -> None:
        self.network = network
        self.config = config
        #: the run's control plane (a row of
        #: :data:`~repro.faults.planes.CONTROL_PLANES`): message LDP's
        #: sessions carry the auth tokens, its queues take the exception
        #: punts and its speakers' bindings are the cross-FEC audit's
        self.plane = plane
        self.attacks: List[AttackRecord] = []
        self._active: Dict[Tuple[str, str], AttackRecord] = {}
        #: forged flow id -> (record, fec prefix) for guard attribution
        self._forged: Dict[int, Tuple[AttackRecord, str]] = {}
        self._next_forged = FORGED_FLOW_BASE
        #: (prefix, egress, flow_id) for every legitimate traffic flow,
        #: so finalize can tell a leak from a delivery
        self.flows: List[Tuple[str, str, int]] = []
        #: prefix -> destination address, for forging plausible inners
        self.flow_dsts: Dict[str, Any] = {}
        self.limiter = ExceptionRateLimiter(EXCEPTION_RATE, EXCEPTION_BURST)
        # totals for the report section
        self.guard_rejections = 0
        self.auth_mismatches = 0
        self.exceptions_total = 0
        self.exceptions_forwarded = 0
        self.exceptions_limited = 0
        #: (time, node, label, fec, leaked_to) per quarantined entry
        self.quarantines: List[Tuple[float, str, int, str, str]] = []

    # -- wiring -------------------------------------------------------------
    def arm(self) -> None:
        """Attach to the network, the edge nodes and the control plane."""
        self.network.security_monitor = self
        self.plane.secure(self)
        if self.config.enabled:
            for name in sorted(self.network.nodes):
                node = self.network.nodes[name]
                if getattr(node, "is_edge", False):
                    node.external_guard = self.guard_external

    def _now(self) -> float:
        return self.network.scheduler.now

    # -- attack ledger ------------------------------------------------------
    def begin_attack(self, kind: str, target: str, at: float) -> AttackRecord:
        record = AttackRecord(kind=kind, target=target, injected_at=at)
        self.attacks.append(record)
        self._active[(kind, target)] = record
        return record

    def attack(self, kind: str, target: str) -> Optional[AttackRecord]:
        return self._active.get((kind, target))

    def _attack_on_node(self, kind: str, node: str) -> Optional[AttackRecord]:
        """The active ``kind`` attack whose target names ``node`` (link
        targets are 'a-b' labels, so substring-match the parts)."""
        for (k, target), record in self._active.items():
            if k == kind and node in target.split("-"):
                return record
        return None

    def _detect(
        self, record: AttackRecord, now: float, node: str, detail: str
    ) -> None:
        """First detection of this attack: stamp and announce once."""
        if record.detected_at is not None:
            return
        record.detected_at = now
        tel = self.network.telemetry
        if tel.enabled:
            tel.attacks_detected.labels(record.kind, record.target).inc()
            tel.events.emit(
                AttackDetected(
                    attack=record.kind, node=node, detail=detail
                )
            )

    def _mitigate(
        self,
        record: AttackRecord,
        now: float,
        node: str,
        action: str,
        detail: str,
    ) -> None:
        """First mitigation of this attack: stamp and announce once."""
        if record.mitigated_at is not None:
            return
        record.mitigated_at = now
        tel = self.network.telemetry
        if tel.enabled:
            tel.attacks_mitigated.labels(record.kind, action).inc()
            tel.events.emit(
                AttackMitigated(
                    attack=record.kind,
                    node=node,
                    action=action,
                    detail=detail,
                )
            )

    # -- label spoofing ------------------------------------------------------
    def allocate_forged_flow_id(
        self, record: AttackRecord, fec: str
    ) -> int:
        flow_id = self._next_forged
        self._next_forged += 1
        self._forged[flow_id] = (record, fec)
        return flow_id

    def guard_external(self, node: str, packet: Any) -> bool:
        """The LER trust-boundary guard: True rejects the packet.

        Labelled packets arriving from outside the domain are never
        self-originated, so an armed guard rejects every one of them
        (unlabelled IP is what a layer-2 network legitimately hands an
        ingress LER).
        """
        if not isinstance(packet, MPLSPacket):
            return False
        now = self._now()
        self.guard_rejections += 1
        forged = self._forged.get(packet.inner.flow_id)
        tel = self.network.telemetry
        if tel.enabled:
            tel.spoof_rejections.labels(node).inc()
        if forged is not None:
            record, fec = forged
            record.packets_rejected += 1
            detail = f"forged stack for {fec} rejected at {node}"
            self._detect(record, now, node, detail)
            self._mitigate(record, now, node, "guard-reject", detail)
        return True

    def note_spoof_accepted(self, flow_id: int) -> None:
        """A forged labelled packet entered the network (guard down)."""
        forged = self._forged.get(flow_id)
        if forged is None:
            return
        record, fec = forged
        record.packets_accepted += 1
        record.blast_fecs.add(fec)

    # -- LDP session hijack --------------------------------------------------
    def note_auth_mismatch(self, now: float, node: str, peer: str) -> None:
        """A shutdown carried a wrong session token and was rejected."""
        self.auth_mismatches += 1
        tel = self.network.telemetry
        if tel.enabled:
            tel.auth_mismatches.labels(node, peer).inc()
        record = self._attack_on_node(LDP_HIJACK, node)
        if record is None:
            record = self._attack_on_node(LDP_HIJACK, peer)
        if record is not None:
            record.packets_rejected += 1
            detail = f"bad auth token on shutdown {peer}->{node}"
            self._detect(record, now, node, detail)
            self._mitigate(record, now, node, "auth-reject", detail)

    def note_hijack_teardown(
        self, now: float, node: str, peer: str, affected: List[str]
    ) -> None:
        """A forged shutdown was accepted and tore the session down."""
        record = self._attack_on_node(LDP_HIJACK, node)
        if record is None:
            record = self._attack_on_node(LDP_HIJACK, peer)
        if record is not None:
            record.packets_accepted += 1
            record.blast_fecs.update(affected)

    # -- TTL-expiry flood ----------------------------------------------------
    def ttl_exception(self, node: str, count: int) -> None:
        """``count`` TTL-expired discards at ``node`` punt ICMP-style
        exception work toward the control plane; the rate limiter
        decides how much of it the bounded queues ever see."""
        now = self._now()
        self.exceptions_total += count
        record = self._attack_on_node(TTL_FLOOD, node)
        if self.config.enabled:
            admitted = self.limiter.admit(node, now, count)
        else:
            admitted = count
        limited = count - admitted
        self.exceptions_forwarded += admitted
        self.exceptions_limited += limited
        tel = self.network.telemetry
        if tel.enabled:
            if admitted:
                tel.exception_path.labels(node, "forwarded").inc(admitted)
            if limited:
                tel.exception_path.labels(node, "limited").inc(limited)
        if limited and record is not None:
            detail = f"{limited} exception punt(s) rate-limited at {node}"
            self._detect(record, now, node, detail)
            self._mitigate(record, now, node, "rate-limit", detail)
        self.plane.exception_load(node, admitted)

    def note_hold_expiry_teardown(
        self, now: float, a: str, b: str, affected: List[str]
    ) -> None:
        """A hold timer expired while a flood attack was active: the
        starved session's FECs join the flood's blast radius."""
        for name in (a, b):
            record = self._attack_on_node(TTL_FLOOD, name)
            if record is not None:
                record.blast_fecs.update(affected)
                return

    # -- VPN cross-connect leak ----------------------------------------------
    def note_xconnect_injected(
        self, now: float, node: str, victim: str, imposter: str
    ) -> None:
        record = self._attack_on_node(XCONNECT_LEAK, node)
        if record is not None:
            record.packets_accepted += 1
            record.blast_fecs.add(victim)
            record.detail = f"{victim} leaked into {imposter} at {node}"

    def run_cross_fec_audit(self, now: float) -> int:
        """Cross-FEC reachability check, called from each auditor pass:
        every ILM entry's out-label must be what the next hop announced
        for the *same* FEC.  An out-label that matches the neighbour's
        binding for a different FEC is a cross-connect; quarantine it
        through a table transaction (generation bump included, so flow
        caches drop the poisoned decision).  Returns entries
        quarantined this pass.
        """
        if not self.config.enabled:
            return 0
        speakers = self.plane.speakers
        quarantined = 0
        for name in sorted(speakers):
            speaker = speakers[name]
            node = self.network.nodes[name]
            if node.ilm.in_transaction:
                continue  # mid-reprogram; next pass sees the commit
            for fec_id in sorted(speaker.local_labels):
                if fec_id.startswith("__"):
                    continue  # synthetic storm FECs have no bindings
                label = speaker.local_labels[fec_id]
                nhlfe = node.ilm.get(label)
                if nhlfe is None or nhlfe.next_hop is None:
                    continue  # unprogrammed or egress entry
                peer = speakers.get(nhlfe.next_hop)
                if peer is None or nhlfe.out_label is None:
                    continue
                if nhlfe.out_label == peer.local_labels.get(fec_id):
                    continue  # consistent binding
                leaked_to = next(
                    (
                        other
                        for other in sorted(peer.local_labels)
                        if other != fec_id
                        and peer.local_labels[other] == nhlfe.out_label
                    ),
                    None,
                )
                if leaked_to is None:
                    continue  # stale, not cross-connected; scrub's job
                record = self._attack_on_node(XCONNECT_LEAK, name)
                detail = f"{fec_id} cross-connected into {leaked_to} at {name}"
                if record is not None:
                    self._detect(record, now, name, detail)
                node.ilm.begin()
                node.ilm.remove(label)
                node.ilm.commit()
                self.quarantines.append(
                    (now, name, label, fec_id, leaked_to)
                )
                quarantined += 1
                tel = self.network.telemetry
                if tel.enabled:
                    tel.xconnect_quarantines.labels(name).inc()
                if record is not None:
                    record.blast_fecs.discard(fec_id)
                    record.quarantined_fecs.add(fec_id)
                    self._mitigate(record, now, name, "quarantine", detail)
        return quarantined

    # -- end of run ----------------------------------------------------------
    def finalize(self) -> None:
        """Fill in the delivery-derived numbers once the horizon passed:
        forged packets that reached a host, and victim traffic delivered
        at an egress its FEC never named."""
        network = self.network
        for flow_id, (record, _fec) in self._forged.items():
            record.packets_leaked += network.delivered_count(flow_id)
        xconnect = [
            r for r in self.attacks if r.kind == XCONNECT_LEAK
        ]
        if not xconnect:
            return
        egress_of = {fid: egress for _, egress, fid in self.flows}
        fec_of = {fid: prefix for prefix, _, fid in self.flows}
        leaked_by_fec: Dict[str, int] = {}
        deliveries = network.deliveries
        names = deliveries.names
        for fid, node, count in zip(
            deliveries.flow, deliveries.node, deliveries.count
        ):
            home = egress_of.get(fid)
            if home is not None and names[node] != home:
                fec = fec_of[fid]
                leaked_by_fec[fec] = leaked_by_fec.get(fec, 0) + count
        for record in xconnect:
            record.packets_leaked += sum(
                count
                for fec, count in leaked_by_fec.items()
                if fec in record.blast_fecs or fec in record.quarantined_fecs
            )
