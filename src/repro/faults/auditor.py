"""The data-plane consistency auditor and transaction watchdog.

A control plane that programs hardware through a driver can drift from
it: SEUs corrupt pairs in place, a crashed process can leave a
transaction open, a missed sync can leave the mirror stale.  The
:class:`ConsistencyAuditor` runs a periodic audit pass over every
hardware node in the network, cross-checking the control-plane tables
(the node's ILM mirror plus its learned flow cache) against what the
information base actually holds, and repairs any disagreement through
the scrub path -- the same VERIFY_INFO-style walk the bit-flip heal
uses, so repairs carry real control-plane cycle cost.

The watchdog rides along: a shadow-bank transaction is supposed to be
begun and committed within one control-plane action, so a node whose
ILM or FTN is *still* mid-transaction on two consecutive audit passes
indicates a wedged (crashed-while-staging) writer and raises an alarm.

Everything is deterministic: nodes are visited in sorted order and the
audit period is fixed, so chaos reports that include an ``audit``
section stay byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.events import AuditCompleted

#: consecutive audit passes a transaction may stay open before the
#: watchdog calls it wedged
WATCHDOG_THRESHOLD = 2


@dataclass
class AuditRecord:
    """The outcome of one audit pass over the whole network."""

    time: float
    nodes_checked: int = 0
    #: nodes whose info base disagreed with the control plane
    drift_nodes: List[str] = field(default_factory=list)
    #: pairs repaired by the scrub path this pass
    repaired: int = 0
    #: control-plane cycles the repairs cost
    cycles: int = 0
    #: nodes flagged for a transaction open across consecutive passes
    watchdog_alarms: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.drift_nodes and not self.watchdog_alarms


class ConsistencyAuditor:
    """Periodically audits hardware info bases against the tables.

    Parameters
    ----------
    network:
        The :class:`~repro.net.network.MPLSNetwork` whose scheduler
        paces the audits and whose nodes are checked.
    period:
        Seconds between audit passes.
    start:
        When the first pass runs (defaults to one period in).
    stop:
        No pass is scheduled at or beyond this horizon (defaults to
        unbounded -- callers running ``scheduler.run(until=...)`` can
        leave it unset).
    repair:
        When True (the default) drift is repaired through the node's
        scrub path; when False the auditor only detects and reports.
    security:
        The run's :class:`repro.security.SecurityMonitor`, or None.
        With one attached, every pass additionally runs the monitor's
        cross-FEC reachability check (VPN cross-connect detection and
        quarantine); the legacy audit records are untouched, so
        pre-security reports stay byte-identical.
    """

    def __init__(
        self,
        network,
        period: float = 0.1,
        start: Optional[float] = None,
        stop: Optional[float] = None,
        repair: bool = True,
        security=None,
    ) -> None:
        if period <= 0:
            raise ValueError("audit period must be positive")
        self.network = network
        self.period = period
        self.stop = stop
        self.repair = repair
        self.security = security
        self.records: List[AuditRecord] = []
        #: node -> consecutive passes observed mid-transaction
        self._open_streak: Dict[str, int] = {}
        self._armed_at = start if start is not None else period
        network.scheduler.at(self._armed_at, self._run_pass)

    # -- one pass ------------------------------------------------------------
    def _run_pass(self) -> None:
        now = self.network.scheduler.now
        if self.security is not None:
            # the adversarial cross-FEC check rides the audit cadence;
            # its findings live on the security monitor, not in the
            # audit records (which keep their legacy byte-exact shape)
            self.security.run_cross_fec_audit(now)
        record = AuditRecord(time=now)
        for name in sorted(self.network.nodes):
            node = self.network.nodes[name]
            self._watch_transactions(name, node, record)
            if not hasattr(node, "modifier"):
                continue  # software data plane: nothing mirrored
            if name in self.network._down_nodes:
                continue  # crashed: its tables are authoritatively gone
            record.nodes_checked += 1
            if self._audit_node(name, node, record):
                record.drift_nodes.append(name)
        self.records.append(record)
        tel = self.network.telemetry
        if tel.enabled:
            tel.audit_runs.inc()
            for name in record.drift_nodes:
                tel.audit_drift.labels(name).inc()
            for name in record.watchdog_alarms:
                tel.audit_watchdog.labels(name).inc()
            event = AuditCompleted(
                nodes_checked=record.nodes_checked,
                drift_nodes=tuple(record.drift_nodes),
                repaired=record.repaired,
                watchdog_alarms=tuple(record.watchdog_alarms),
            )
            event.time = now
            tel.events.emit(event)
        next_at = now + self.period
        if self.stop is None or next_at < self.stop:
            self.network.scheduler.at(next_at, self._run_pass)

    def _audit_node(self, name: str, node, record: AuditRecord) -> bool:
        """Cross-check one hardware node; returns True on drift."""
        if node.ilm.generation != node._mirrored_ilm_generation:
            # the mirror is lazily stale, not corrupted: the node
            # re-banks it on its next programmed sync.  Auditing the
            # hardware against tables it was never told about would
            # report false drift.
            return False
        drifted = False
        for level in (1, 2, 3):
            expected = sorted(node._expected_pairs(level))
            stored = sorted(node.modifier.ib_pairs(level))
            if stored != expected:
                drifted = True
                break
        if drifted and self.repair:
            reports = node.scrub_info_base()
            record.repaired += sum(r.repaired for r in reports)
            record.cycles += sum(r.cycles for r in reports)
        return drifted

    def _watch_transactions(self, name: str, node, record: AuditRecord) -> None:
        if node.ilm.in_transaction or node.ftn.in_transaction:
            streak = self._open_streak.get(name, 0) + 1
            self._open_streak[name] = streak
            if streak >= WATCHDOG_THRESHOLD:
                record.watchdog_alarms.append(name)
        else:
            self._open_streak.pop(name, None)

    # -- roll-up -------------------------------------------------------------
    def summary(self) -> Tuple[int, int, int, int, int]:
        """(passes, nodes-checked, drift-detections, pairs-repaired,
        watchdog-alarms) across every pass so far."""
        return (
            len(self.records),
            sum(r.nodes_checked for r in self.records),
            sum(len(r.drift_nodes) for r in self.records),
            sum(r.repaired for r in self.records),
            sum(len(r.watchdog_alarms) for r in self.records),
        )

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.records)

    @property
    def repair_cycles(self) -> int:
        return sum(r.cycles for r in self.records)
