"""MPLS OAM: LSP ping and TTL traceroute.

Operations tooling over the data plane, in the spirit of LSP ping
(RFC 4379) but built from exactly the mechanisms this reproduction
already has:

* **LSP ping** -- inject a probe addressed into the FEC at the ingress
  and confirm it emerges at the expected egress, measuring round-trip
  path latency.  Verifies the *data plane* end to end, which routing
  state alone cannot.
* **LSP traceroute** -- inject probes with MPLS TTL 1, 2, 3, ...; each
  expires one hop further along the LSP and the discarding node reveals
  itself, reconstructing the actual forwarding path hop by hop (the
  paper's TTL semantics -- "The packet is discarded when the TTL
  reaches zero" -- used as a feature).
* **OAM monitor** -- a continuous, event-driven health monitor that
  pings configured FECs on a period *inside* the running simulation,
  publishes up/down + RTT metrics and SLO-breach counters, and emits
  :class:`~repro.obs.events.OAMProbeCompleted` events the span layer
  folds into probe traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.obs.events import OAMProbeCompleted


@dataclass(frozen=True)
class PingResult:
    """One LSP ping."""

    reached: bool
    egress: Optional[str]
    latency: Optional[float]
    sent_at: float


@dataclass(frozen=True)
class TracerouteHop:
    """One TTL step of an LSP traceroute."""

    ttl: int
    node: Optional[str]   # who reported (discarded or delivered)
    reached_egress: bool


@dataclass
class TracerouteResult:
    hops: List[TracerouteHop] = field(default_factory=list)

    @property
    def path(self) -> List[str]:
        """Distinct hops in order.  The egress appears once even though
        it answers two probes (it expires the TTL that just reaches it
        and delivers the next one)."""
        out: List[str] = []
        for hop in self.hops:
            if hop.node is not None and (not out or out[-1] != hop.node):
                out.append(hop.node)
        return out

    @property
    def complete(self) -> bool:
        return bool(self.hops) and self.hops[-1].reached_egress


def lsp_ping(
    network: MPLSNetwork,
    ingress: str,
    destination: str,
    source: str = "192.0.2.1",
    timeout: float = 1.0,
) -> PingResult:
    """Send one probe into the FEC at ``ingress``; did it come out?"""
    sent_at = network.scheduler.now
    before = len(network.deliveries)
    probe = IPv4Packet(
        src=source, dst=destination, protocol=17, created_at=sent_at
    )
    network.inject(ingress, probe)
    network.run(until=sent_at + timeout)
    for delivery in network.deliveries[before:]:
        if delivery.packet.uid == probe.uid:
            return PingResult(
                reached=True,
                egress=delivery.node,
                latency=delivery.time - sent_at,
                sent_at=sent_at,
            )
    return PingResult(
        reached=False, egress=None, latency=None, sent_at=sent_at
    )


def lsp_traceroute(
    network: MPLSNetwork,
    ingress: str,
    destination: str,
    source: str = "192.0.2.1",
    max_ttl: int = 16,
    timeout_per_hop: float = 1.0,
) -> TracerouteResult:
    """Walk the LSP with expiring TTLs.

    Probe k carries IPv4 TTL k+1: the ingress consumes one decrement,
    so the MPLS TTL is k on entry to the core and the probe dies at the
    k-th label switch -- whose discard record names it.  The walk ends
    when a probe survives to the egress.
    """
    result = TracerouteResult()
    for ttl in range(2, max_ttl + 2):
        start = network.scheduler.now
        drops_before = len(network.drops)
        deliveries_before = len(network.deliveries)
        probe = IPv4Packet(
            src=source, dst=destination, ttl=ttl, created_at=start
        )
        network.inject(ingress, probe)
        network.run(until=start + timeout_per_hop)
        delivered = next(
            (
                d
                for d in network.deliveries[deliveries_before:]
                if d.packet.uid == probe.uid
            ),
            None,
        )
        if delivered is not None:
            result.hops.append(
                TracerouteHop(
                    ttl=ttl, node=delivered.node, reached_egress=True
                )
            )
            return result
        new_drops = network.drops[drops_before:]
        expiry = next(
            (d for d in new_drops if "TTL" in d.reason), None
        )
        result.hops.append(
            TracerouteHop(
                ttl=ttl,
                node=expiry.node if expiry is not None else None,
                reached_egress=False,
            )
        )
        if expiry is None and not new_drops:
            break  # probe vanished (e.g. blackhole without a record)
    return result


# -- the continuous health monitor -------------------------------------------

#: Probe flows carry negative ids so traffic accounting and the SLO
#: histograms can tell them from production flows; target i uses
#: ``PROBE_FLOW_BASE - i``.
PROBE_FLOW_BASE = -1000


@dataclass(frozen=True)
class ProbeTarget:
    """One FEC the monitor keeps pinging."""

    fec: str
    ingress: str
    destination: str
    source: str = "192.0.2.199"


@dataclass
class ProbeRecord:
    """One probe's lifecycle, from injection to verdict."""

    fec: str
    uid: int
    sent_at: float
    deadline: float
    checked: bool = False
    reached: bool = False
    rtt: Optional[float] = None
    breach: bool = False


@dataclass
class UpTransition:
    """The monitor's per-FEC verdict flipping at a probe deadline."""

    time: float
    fec: str
    up: bool


class OAMMonitor:
    """Continuous LSP health monitoring inside the running simulation.

    Unlike :func:`lsp_ping` (which drives the scheduler itself and so
    can only run *between* simulations), the monitor is event-driven:
    it injects one probe per configured FEC every ``period`` seconds
    and schedules a verdict check one ``timeout`` later, all as
    ordinary scheduler events that interleave with traffic, faults and
    reconvergence.  Each verdict updates the per-FEC up/down gauge and
    RTT histogram, counts SLO breaches (``rtt > slo_rtt_s``), and emits
    an :class:`~repro.obs.events.OAMProbeCompleted` event, which an
    attached span recorder folds into a probe trace.

    :meth:`localize` runs a post-run traceroute for a FEC that ended
    down, naming the hop where the LSP breaks.
    """

    def __init__(
        self,
        network: MPLSNetwork,
        targets: Sequence[ProbeTarget],
        period: float = 0.1,
        start: float = 0.0,
        stop: Optional[float] = None,
        timeout: Optional[float] = None,
        slo_rtt_s: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.network = network
        self.targets = list(targets)
        self.period = period
        self.start = start
        self.stop = stop
        self.timeout = timeout if timeout is not None else period
        self.slo_rtt_s = slo_rtt_s
        self.records: List[ProbeRecord] = []
        self.transitions: List[UpTransition] = []
        #: fec -> last verdict (None until the first probe concludes)
        self.up: Dict[str, Optional[bool]] = {t.fec: None for t in self.targets}
        self._flow_ids: Dict[str, int] = {
            t.fec: PROBE_FLOW_BASE - i for i, t in enumerate(self.targets)
        }
        self._delivery_scan = 0
        self._delivered_uids: Dict[int, float] = {}
        network.scheduler.at(start, self._fire)

    @property
    def flow_ids(self) -> Dict[str, int]:
        """fec -> the probe flow id it is pinged with."""
        return dict(self._flow_ids)

    def _fire(self) -> None:
        now = self.network.scheduler.now
        for target in self.targets:
            probe = IPv4Packet(
                src=target.source,
                dst=target.destination,
                protocol=17,
                flow_id=self._flow_ids[target.fec],
                created_at=now,
            )
            record = ProbeRecord(
                fec=target.fec,
                uid=probe.uid,
                sent_at=now,
                deadline=now + self.timeout,
            )
            self.records.append(record)
            self.network.inject(target.ingress, probe)
            self.network.scheduler.at(
                record.deadline, lambda r=record, t=target: self._check(r, t)
            )
        next_fire = now + self.period
        if self.stop is None or next_fire <= self.stop:
            self.network.scheduler.at(next_fire, self._fire)

    def _scan_deliveries(self) -> None:
        deliveries = self.network.deliveries
        while self._delivery_scan < len(deliveries):
            d = deliveries[self._delivery_scan]
            self._delivery_scan += 1
            if d.packet.flow_id <= PROBE_FLOW_BASE:
                self._delivered_uids[d.packet.uid] = d.time

    def _check(self, record: ProbeRecord, target: ProbeTarget) -> None:
        self._scan_deliveries()
        record.checked = True
        delivered_at = self._delivered_uids.pop(record.uid, None)
        record.reached = delivered_at is not None
        if record.reached:
            record.rtt = delivered_at - record.sent_at
            record.breach = (
                self.slo_rtt_s is not None and record.rtt > self.slo_rtt_s
            )
        verdict = record.reached and not record.breach
        previous = self.up[record.fec]
        self.up[record.fec] = verdict
        if verdict != previous:
            self.transitions.append(
                UpTransition(
                    time=self.network.scheduler.now,
                    fec=record.fec,
                    up=verdict,
                )
            )
        tel = self.network.telemetry
        if tel.enabled:
            outcome = "ok" if record.reached else "lost"
            if record.breach:
                outcome = "breach"
            tel.oam_probes.labels(record.fec, outcome).inc()
            tel.oam_up.labels(record.fec).set(1.0 if verdict else 0.0)
            if record.rtt is not None:
                tel.oam_rtt.labels(record.fec).observe(record.rtt)
            if record.breach:
                tel.slo_breaches.labels(record.fec).inc()
            tel.events.emit(
                OAMProbeCompleted(
                    fec=record.fec,
                    ingress=target.ingress,
                    uid=record.uid,
                    reached=record.reached,
                    rtt=record.rtt,
                    breach=record.breach,
                )
            )

    # -- post-run queries --------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic per-FEC probe statistics (checked probes only;
        probes whose deadline lies beyond the run horizon are pending)."""
        fecs: List[Dict[str, Any]] = []
        for target in self.targets:
            checked = [
                r for r in self.records if r.fec == target.fec and r.checked
            ]
            rtts = sorted(r.rtt for r in checked if r.rtt is not None)
            entry: Dict[str, Any] = {
                "fec": target.fec,
                "probes": len(checked),
                "reached": sum(1 for r in checked if r.reached),
                "lost": sum(1 for r in checked if not r.reached),
                "breaches": sum(1 for r in checked if r.breach),
                "up_at_end": self.up[target.fec],
                "transitions": [
                    {"time": t.time, "up": t.up}
                    for t in self.transitions
                    if t.fec == target.fec
                ],
            }
            if rtts:
                entry["rtt_min_s"] = rtts[0]
                entry["rtt_max_s"] = rtts[-1]
                entry["rtt_mean_s"] = sum(rtts) / len(rtts)
            fecs.append(entry)
        return {
            "period": self.period,
            "timeout": self.timeout,
            "slo_rtt_s": self.slo_rtt_s,
            "fecs": fecs,
        }

    def localize(self, fec: str) -> TracerouteResult:
        """Traceroute one FEC *after* the run (drives the scheduler;
        never call from inside a scheduler callback)."""
        target = next(t for t in self.targets if t.fec == fec)
        return lsp_traceroute(
            self.network,
            target.ingress,
            target.destination,
            source=target.source,
        )
