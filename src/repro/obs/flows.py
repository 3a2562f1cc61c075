"""IPFIX/NetFlow-style flow accounting and traffic-matrix telemetry.

Where span tracing (PR 4) answers "what happened to one packet", this
layer answers "who is using the network": every node keeps *flow
records* -- per-(node, flow) aggregates keyed by FEC with packet/byte
counts, the label path in use, and first/last timestamps -- and a
periodic collector materializes them into :class:`TrafficMatrix`
snapshots (the ingress->egress demand view a future PCE consumes)
plus per-link utilization.

The hot-path contract matches spans exactly: every accounting hook
rides *inside* an existing ``telemetry.enabled`` guard and adds only a
``tel.flows is not None`` test, so with accounting unattached (the
default) a packet still costs one global lookup and one boolean per
instrumentation site -- ``benchmarks/test_bench_obs_overhead.py``
asserts it.

Flow records follow the IPFIX expiry model:

* **idle expiry** -- a record with no packets for ``idle_timeout``
  seconds is finished with reason ``idle`` (the collector sweeps; a
  new packet for the same key also rotates the stale record first);
* **active expiry** -- a record older than ``active_timeout`` is
  finished with reason ``active-timeout`` and a fresh record started,
  so long-lived flows surface periodically instead of only at the end;
* **eviction** -- the record cache is bounded; at capacity the least
  recently touched record is finished with reason ``evicted``;
* **teardown** -- LSP/FEC teardown in :mod:`repro.control` closes the
  records riding that FEC with reason ``teardown``;
* **final** -- :meth:`FlowAccountant.finalize` closes what remains.

Everything derives from simulated time and the deterministic packet
stream, so exports are byte-stable across runs of the same seeded
scenario -- the property the CI ``views-smoke`` job checks with
``cmp``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
)

from repro.obs.events import JSONL_SCHEMA_VERSION, round9
from repro.obs.telemetry import Telemetry, get_telemetry

#: Flow-record end reasons (the IPFIX taxonomy, plus ours).
END_IDLE = "idle"
END_ACTIVE = "active-timeout"
END_EVICTED = "evicted"
END_TEARDOWN = "teardown"
END_FINAL = "final"


@dataclass
class FlowRecord:
    """One node's accounting aggregate for one flow (IPFIX-style).

    A (node, flow) pair can produce several consecutive records over a
    run -- active/idle expiry rotates them -- so ``seq`` numbers the
    records of one key in order.
    """

    node: str
    flow_id: int
    fec: str
    seq: int = 0
    packets: int = 0
    bytes: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0
    #: The outgoing label stack of the most recent packet -- the label
    #: path this flow is riding at this node (empty for plain IP).
    labels: Tuple[int, ...] = ()
    #: Hardware modifier cycles attributed to this record (0 on
    #: software nodes).
    hw_cycles: int = 0
    end_time: Optional[float] = None
    end_reason: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "flow_id": self.flow_id,
            "fec": self.fec,
            "seq": self.seq,
            "packets": self.packets,
            "bytes": self.bytes,
            "first_seen": round9(self.first_seen),
            "last_seen": round9(self.last_seen),
            "labels": list(self.labels),
            "hw_cycles": self.hw_cycles,
            "end_time": round9(self.end_time),
            "end_reason": self.end_reason,
        }


@dataclass
class TrafficMatrix:
    """One periodic snapshot of demand and link utilization.

    ``demands`` maps (ingress, egress, fec) to the packets/bytes
    delivered in this interval; ``utilization`` maps a directed link
    (src, dst) to its busy fraction over the interval.
    """

    time: float
    interval: float
    demands: Dict[Tuple[str, str, str], Tuple[int, int]] = field(
        default_factory=dict
    )
    utilization: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def rate_bps(self, ingress: str, egress: str, fec: str) -> float:
        _, nbytes = self.demands.get((ingress, egress, fec), (0, 0))
        return nbytes * 8 / self.interval if self.interval > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": round9(self.time),
            "interval": round9(self.interval),
            "demands": [
                {
                    "ingress": ingress,
                    "egress": egress,
                    "fec": fec,
                    "packets": packets,
                    "bytes": nbytes,
                    "rate_bps": round9(self.rate_bps(ingress, egress, fec)),
                }
                for (ingress, egress, fec), (packets, nbytes) in sorted(
                    self.demands.items()
                )
            ],
            "link_utilization": [
                {"src": src, "dst": dst, "utilization": round9(util)}
                for (src, dst), util in sorted(self.utilization.items())
            ],
        }


class FlowAccountant:
    """Per-node flow records behind the ``telemetry.flows`` slot.

    Constructing an accountant enables telemetry (restored by
    :meth:`detach`) and publishes itself at ``telemetry.flows``, where
    the data-plane hooks find it.  All hooks are O(1) dictionary work.

    Parameters
    ----------
    active_timeout:
        Seconds after which a still-active record is exported and
        restarted (IPFIX active timeout).
    idle_timeout:
        Seconds without traffic after which a record is finished.
    capacity:
        Bound on concurrently active records across all nodes; at
        capacity the least recently touched record is evicted.
    flow_fecs:
        flow id -> FEC name for record labelling; unmapped flows fall
        back to ``flow-<id>``.
    flow_ids:
        runtime flow id -> stable export id (the scenario flow index).
        Runtime ids come from a process-global counter, so exports of
        mapped flows stay byte-identical even across runs sharing one
        process; unmapped flows keep their runtime id.
    """

    def __init__(
        self,
        active_timeout: float = 1.0,
        idle_timeout: float = 0.25,
        capacity: int = 4096,
        flow_fecs: Optional[Mapping[int, str]] = None,
        flow_ids: Optional[Mapping[int, int]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if active_timeout <= 0 or idle_timeout <= 0:
            raise ValueError("flow timeouts must be positive")
        if capacity < 1:
            raise ValueError(f"flow cache capacity must be >= 1: {capacity}")
        self.active_timeout = active_timeout
        self.idle_timeout = idle_timeout
        self.capacity = capacity
        self.flow_fecs = dict(flow_fecs or {})
        self.flow_ids = dict(flow_ids or {})
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        #: (node, flow_id) -> active record, in least-recently-touched
        #: order (the eviction order).
        self._active: "OrderedDict[Tuple[str, int], FlowRecord]" = OrderedDict()
        #: next record seq per key (rotation counter)
        self._seqs: Dict[Tuple[str, int], int] = {}
        #: finished records in completion order
        self.finished: List[FlowRecord] = []
        #: flow id -> first node that accounted it (ingress attribution)
        self._flow_ingress: Dict[int, str] = {}
        #: interval accumulators drained by the matrix collector
        self._demands: Dict[Tuple[str, str, str], List[int]] = {}
        self._link_bytes: Dict[Tuple[str, str], int] = {}
        #: hardware cycles observed before the packet's record existed
        #: (hwnode publishes its cycle delta ahead of the observe hook)
        self._pending_hw: Dict[Tuple[str, int], int] = {}
        #: LSP lifecycle notes from repro.control ((time, name, event))
        self.lsp_log: List[Tuple[float, str, str]] = []
        self.records_opened = 0
        self.evictions = 0
        self._was_enabled = self.telemetry.enabled
        self.telemetry.enable()
        self.telemetry.flows = self

    # -- clock ---------------------------------------------------------------
    def _now(self) -> float:
        clock = self.telemetry.events.clock
        return clock() if clock is not None else 0.0

    def fec_of(self, flow_id: int) -> str:
        return self.flow_fecs.get(flow_id, f"flow-{flow_id}")

    # -- hot-path hooks ------------------------------------------------------
    def record_packet(
        self,
        node: str,
        flow_id: int,
        size: int,
        labels: Tuple[int, ...] = (),
        count: int = 1,
    ) -> None:
        """Account ``count`` packets of ``size`` bytes each processed
        at ``node`` (any outcome that moves bytes: forward, deliver, or
        ingress push).

        A train (``count > 1``) is ``count`` calls sharing one
        timestamp: the timeout checks run once (the first call of a
        same-instant train is the only one that can rotate the record),
        then the whole train lands on one record.
        """
        if count <= 0:
            return
        now = self._now()
        key = (node, flow_id)
        record = self._active.get(key)
        if record is not None:
            if now - record.last_seen > self.idle_timeout:
                self._finish(record, END_IDLE, at=record.last_seen)
                record = None
            elif now - record.first_seen > self.active_timeout:
                self._finish(record, END_ACTIVE, at=now)
                record = None
        if record is None:
            record = self._open(node, flow_id, now)
        nbytes = size * count
        record.packets += count
        record.bytes += nbytes
        record.last_seen = now
        if labels != record.labels:
            record.labels = labels
        pending = self._pending_hw.pop(key, 0)
        if pending:
            record.hw_cycles += pending
        self._active.move_to_end(key)
        tel = self.telemetry
        tel.flow_packets.labels(node, record.fec).inc(count)
        tel.flow_bytes.labels(node, record.fec).inc(nbytes)

    def record_delivery(
        self, node: str, flow_id: int, size: int, count: int = 1
    ) -> None:
        """Account ``count`` delivered packets of ``size`` bytes each
        for the demand matrix (the ingress->egress FEC view).  Probe
        flows (negative ids) belong to the OAM monitor, not the
        matrix."""
        if flow_id < 0 or count <= 0:
            return
        ingress = self._flow_ingress.get(flow_id, node)
        key = (ingress, node, self.fec_of(flow_id))
        cell = self._demands.get(key)
        if cell is None:
            cell = self._demands[key] = [0, 0]
        cell[0] += count
        cell[1] += size * count

    def record_link_tx(self, src: str, dst: str, size: int) -> None:
        """Account bytes transmitted on a directed link (feeds the
        utilization side of the matrix snapshot)."""
        key = (src, dst)
        self._link_bytes[key] = self._link_bytes.get(key, 0) + size

    def record_hw_cycles(self, node: str, flow_id: int, delta: int) -> None:
        """Attribute hardware modifier cycles to a flow's record at
        ``node``.  The hardware node publishes its cycle delta before
        the observe hook opens the packet's record, so cycles that
        arrive early are parked and folded in by the next
        :meth:`record_packet`."""
        key = (node, flow_id)
        record = self._active.get(key)
        if record is not None:
            record.hw_cycles += delta
        else:
            self._pending_hw[key] = self._pending_hw.get(key, 0) + delta

    def note_lsp(self, name: str, event: str, detail: str = "") -> None:
        """Record one LSP lifecycle event from the control plane."""
        self.lsp_log.append((self._now(), name, event))

    # -- record lifecycle ----------------------------------------------------
    def _open(self, node: str, flow_id: int, now: float) -> FlowRecord:
        if len(self._active) >= self.capacity:
            _, victim = self._active.popitem(last=False)
            self._close(victim, END_EVICTED, at=victim.last_seen)
            self.evictions += 1
        key = (node, flow_id)
        seq = self._seqs.get(key, 0)
        self._seqs[key] = seq + 1
        record = FlowRecord(
            node=node,
            flow_id=self.flow_ids.get(flow_id, flow_id),
            fec=self.fec_of(flow_id),
            seq=seq,
            first_seen=now,
            last_seen=now,
        )
        # the cache key uses the runtime flow id; the record itself
        # carries the stable export id
        record._key = key
        self._active[key] = record
        self._flow_ingress.setdefault(flow_id, node)
        self.records_opened += 1
        tel = self.telemetry
        tel.flow_opened.labels(node).inc()
        tel.flow_active.labels(node).set(
            sum(1 for r in self._active.values() if r.node == node)
        )
        return record

    def _finish(self, record: FlowRecord, reason: str, at: float) -> None:
        """Finish a record that is still in the active cache."""
        self._active.pop(record._key, None)
        self._close(record, reason, at)

    def _close(self, record: FlowRecord, reason: str, at: float) -> None:
        record.end_time = at
        record.end_reason = reason
        self.finished.append(record)
        tel = self.telemetry
        tel.flow_expired.labels(record.node, reason).inc()
        tel.flow_active.labels(record.node).set(
            sum(1 for r in self._active.values() if r.node == record.node)
        )

    def expire_idle(self, now: Optional[float] = None) -> int:
        """Sweep idle records (the collector's periodic pass)."""
        at = now if now is not None else self._now()
        stale = [
            record
            for record in self._active.values()
            if at - record.last_seen > self.idle_timeout
        ]
        for record in stale:
            self._finish(record, END_IDLE, at=record.last_seen)
        return len(stale)

    def close_fec(self, fec: str) -> int:
        """Close every active record riding ``fec`` (LSP teardown)."""
        now = self._now()
        doomed = [r for r in self._active.values() if r.fec == fec]
        for record in doomed:
            self._finish(record, END_TEARDOWN, at=now)
        return len(doomed)

    def finalize(self) -> None:
        """Close all remaining active records with reason ``final``.
        Idempotent."""
        now = self._now()
        while self._active:
            _, record = self._active.popitem(last=False)
            self._close(record, END_FINAL, at=min(now, record.last_seen + self.idle_timeout))

    def detach(self) -> None:
        """Clear ``telemetry.flows`` and restore the enable switch."""
        if self.telemetry.flows is self:
            self.telemetry.flows = None
        if not self._was_enabled:
            self.telemetry.disable()

    # -- collector interface -------------------------------------------------
    def drain_demands(self) -> Dict[Tuple[str, str, str], Tuple[int, int]]:
        out = {k: (v[0], v[1]) for k, v in self._demands.items()}
        self._demands.clear()
        return out

    def drain_link_bytes(self) -> Dict[Tuple[str, str], int]:
        out = dict(self._link_bytes)
        self._link_bytes.clear()
        return out

    # -- queries -------------------------------------------------------------
    def active_records(self) -> List[FlowRecord]:
        return sorted(
            self._active.values(), key=lambda r: (r.node, r.flow_id, r.seq)
        )

    def all_records(self) -> List[FlowRecord]:
        """Finished then active records in a stable export order."""
        return sorted(
            [*self.finished, *self._active.values()],
            key=lambda r: (r.node, r.flow_id, r.seq),
        )

    def top_talkers(self, n: int = 10) -> List[Dict[str, Any]]:
        """The heaviest (node, flow) pairs by bytes, records merged."""
        totals: Dict[Tuple[str, int], Dict[str, Any]] = {}
        for record in self.all_records():
            key = (record.node, record.flow_id)
            entry = totals.get(key)
            if entry is None:
                entry = totals[key] = {
                    "node": record.node,
                    "flow_id": record.flow_id,
                    "fec": record.fec,
                    "packets": 0,
                    "bytes": 0,
                    "records": 0,
                    "labels": list(record.labels),
                }
            entry["packets"] += record.packets
            entry["bytes"] += record.bytes
            entry["records"] += 1
            if record.labels:
                entry["labels"] = list(record.labels)
        ranked = sorted(
            totals.values(),
            key=lambda e: (-e["bytes"], e["node"], e["flow_id"]),
        )
        return ranked[:n]

    def summary(self) -> Dict[str, Any]:
        by_reason: Dict[str, int] = {}
        for record in self.finished:
            reason = record.end_reason or "unknown"
            by_reason[reason] = by_reason.get(reason, 0) + 1
        return {
            "records_opened": self.records_opened,
            "active_at_end": len(self._active),
            "finished": len(self.finished),
            "finished_by_reason": dict(sorted(by_reason.items())),
            "evictions": self.evictions,
            "lsp_events": len(self.lsp_log),
        }


class MatrixCollector:
    """Periodically materializes :class:`TrafficMatrix` snapshots.

    Each tick drains the accountant's interval accumulators, computes
    per-link utilization against the supplied bandwidths, sweeps idle
    flow records, publishes the utilization gauges, and (when an
    alert engine is attached) evaluates the alert rules against the
    fresh snapshot.

    Parameters
    ----------
    accountant:
        The :class:`FlowAccountant` feeding the snapshots.
    scheduler:
        The network's event scheduler (paces the ticks).
    bandwidths:
        Directed link (src, dst) -> capacity in bit/s, for utilization.
    period:
        Seconds between snapshots; the first tick is one period in.
    stop:
        No tick is scheduled at or beyond this horizon.
    alerts:
        An optional :class:`repro.obs.alerts.AlertEngine` evaluated on
        every tick.
    """

    def __init__(
        self,
        accountant: FlowAccountant,
        scheduler,
        bandwidths: Optional[Mapping[Tuple[str, str], float]] = None,
        period: float = 0.1,
        stop: Optional[float] = None,
        alerts=None,
    ) -> None:
        if period <= 0:
            raise ValueError("matrix period must be positive")
        self.accountant = accountant
        self.scheduler = scheduler
        self.bandwidths = dict(bandwidths or {})
        self.period = period
        self.stop = stop
        self.alerts = alerts
        self.matrices: List[TrafficMatrix] = []
        self._last_tick = 0.0
        scheduler.at(period, self._tick)

    def _tick(self) -> None:
        now = self.scheduler.now
        interval = now - self._last_tick
        self._last_tick = now
        demands = self.accountant.drain_demands()
        link_bytes = self.accountant.drain_link_bytes()
        utilization: Dict[Tuple[str, str], float] = {}
        for key, nbytes in link_bytes.items():
            bandwidth = self.bandwidths.get(key)
            if bandwidth and interval > 0:
                utilization[key] = min(
                    1.0, nbytes * 8 / (bandwidth * interval)
                )
        matrix = TrafficMatrix(
            time=now,
            interval=interval,
            demands=demands,
            utilization=utilization,
        )
        self.matrices.append(matrix)
        self.accountant.expire_idle(now)
        tel = self.accountant.telemetry
        tel.matrix_snapshots.inc()
        for (src, dst), util in utilization.items():
            tel.link_utilization.labels(src, dst).set(util)
        if tel.topo is not None:
            # mirror the gauges into the topology observer's view so
            # time-travel queries see per-link utilization too
            tel.topo.record_utilization(now, utilization)
        if self.alerts is not None:
            self.alerts.evaluate(now, matrix=matrix)
        next_at = now + self.period
        if self.stop is None or next_at <= self.stop:
            self.scheduler.at(next_at, self._tick)

    @property
    def latest(self) -> Optional[TrafficMatrix]:
        return self.matrices[-1] if self.matrices else None

    def peak_utilization(self) -> Dict[Tuple[str, str], float]:
        """Per-link maximum utilization across all snapshots."""
        peaks: Dict[Tuple[str, str], float] = {}
        for matrix in self.matrices:
            for key, util in matrix.utilization.items():
                if util > peaks.get(key, 0.0):
                    peaks[key] = util
        return peaks


# -- exporters ---------------------------------------------------------------
def flows_to_jsonl(
    records: Iterable[FlowRecord],
    stream: TextIO,
    matrices: Iterable[TrafficMatrix] = (),
    alerts: Iterable[Mapping[str, Any]] = (),
) -> int:
    """Write flow records (and optionally matrix snapshots and alert
    history entries) as JSON Lines, byte-stably.  Returns the number
    of lines written."""
    written = 0
    for record in records:
        line = record.as_dict()
        line["v"] = JSONL_SCHEMA_VERSION
        line["type"] = "flow"
        stream.write(json.dumps(line, sort_keys=True))
        stream.write("\n")
        written += 1
    for matrix in matrices:
        line = matrix.as_dict()
        line["v"] = JSONL_SCHEMA_VERSION
        line["type"] = "matrix"
        stream.write(json.dumps(line, sort_keys=True))
        stream.write("\n")
        written += 1
    for entry in alerts:
        line = dict(entry)
        line["v"] = JSONL_SCHEMA_VERSION
        line["type"] = "alert"
        stream.write(json.dumps(line, sort_keys=True))
        stream.write("\n")
        written += 1
    return written


def matrices_to_json(matrices: Iterable[TrafficMatrix]) -> str:
    """All snapshots as one stable JSON document (the CI artifact)."""
    doc = {"v": JSONL_SCHEMA_VERSION, "matrices": [m.as_dict() for m in matrices]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_flow_summary(
    accountant: FlowAccountant,
    collector: Optional[MatrixCollector] = None,
    top: int = 10,
) -> str:
    """The ``repro flows`` summary: totals, top talkers, and the most
    recent traffic matrix."""
    info = accountant.summary()
    lines = ["flow accounting summary", "-----------------------"]
    reasons = ", ".join(
        f"{reason}={count}"
        for reason, count in info["finished_by_reason"].items()
    )
    lines.append(
        f"  records: {info['records_opened']} opened, "
        f"{info['finished']} finished ({reasons or 'none'}), "
        f"{info['active_at_end']} active at end"
    )
    talkers = accountant.top_talkers(top)
    if talkers:
        lines.append(f"  top {len(talkers)} talkers (bytes, all records):")
        for entry in talkers:
            labels = (
                "/".join(str(label) for label in entry["labels"])
                if entry["labels"]
                else "-"
            )
            lines.append(
                f"    {entry['node']:<10s} flow={entry['flow_id']:<6d} "
                f"fec={entry['fec']:<18s} {entry['bytes']:>10d} B "
                f"{entry['packets']:>6d} pkts  labels={labels}"
            )
    if collector is not None and collector.latest is not None:
        matrix = collector.latest
        lines.append(
            f"  traffic matrix @ t={matrix.time:g} "
            f"(interval {matrix.interval:g}s):"
        )
        for entry in matrix.as_dict()["demands"]:
            rate = entry["rate_bps"] or 0.0
            lines.append(
                f"    {entry['ingress']} -> {entry['egress']}  "
                f"fec={entry['fec']:<18s} {rate / 1e6:7.3f} Mbps "
                f"({entry['packets']} pkts)"
            )
        peaks = collector.peak_utilization()
        if peaks:
            lines.append("  peak link utilization:")
            for (src, dst), util in sorted(peaks.items()):
                lines.append(f"    {src} -> {dst}  {util:6.1%}")
    return "\n".join(lines)
