"""Flow aggregates: bulk traffic as (rate, count, bytes) summaries.

The per-packet data plane materializes one Python object chain per
packet per hop -- three scheduler events per link, one engine decision per
node.  At the 100k-concurrent-flow scale ROADMAP targets, that is the
simulation's whole cost.  A :class:`FlowAggregate` represents a train
of ``count`` identical-shape packets of one flow as a single unit: one
*template* packet carries the wire shape (addresses, DSCP, TTL, label
stack as it evolves hop by hop) and the aggregate rides the event
fabric as one object -- one decision per node (via the per-node flow
cache), one transmission event per link.

Semantics, and their documented limits:

* packet ``i`` of the aggregate was created at
  ``template.created_at + i * interval`` (the CBR spacing); delivery
  latencies are derived analytically from the aggregate's arrival
  time, so latency statistics remain per-packet,
* metrics and flow accounting advance by exact packet/byte totals
  (``tests/net/test_aggregates.py`` cross-checks against per-packet
  runs),
* the aggregate is the granularity of loss: a link-down flush, queue
  overflow or wire-loss draw takes the whole train (a burst is lost
  together), and per-packet telemetry *events* are not emitted for
  bulk packets -- a packet that must be individually observable
  travels as a real packet alongside the aggregate.

A train crosses the same data-plane routines as a packet: its template
is the packet, the aggregate rides along as their ``train`` argument,
and each node's flow cache supplies the per-packet deltas a train
scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from repro.net.events import EventScheduler
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.traffic import CBRSource


_new = object.__new__


@dataclass(frozen=True, slots=True)
class FlowAggregate:
    """``count`` identical-shape packets of one flow, as one unit.

    ``template`` is the representative wire shape at the current hop:
    an :class:`IPv4Packet` at the edge, an :class:`MPLSPacket` once
    labelled.  Per-packet identity (uid, seq) is carried by the
    template only; bulk packets are never materialized.
    """

    template: Union[IPv4Packet, MPLSPacket]
    count: int
    #: creation spacing between consecutive packets (seconds)
    interval: float = 0.0

    #: class marker so the link layer can account without an import
    is_aggregate = True

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"aggregate count must be >= 0: {self.count}")
        if self.interval < 0:
            raise ValueError(f"negative aggregate interval {self.interval}")

    def with_template(
        self, template: Union[IPv4Packet, MPLSPacket]
    ) -> "FlowAggregate":
        copy = _new(FlowAggregate)
        _set_template(copy, template)
        _set_count(copy, self.count)
        _set_interval(copy, self.interval)
        return copy


_set_template, _set_count, _set_interval = (
    getattr(FlowAggregate, name).__set__ for name in FlowAggregate.__slots__
)


@dataclass(frozen=True)
class AggregateDelivery:
    """A view of a whole aggregate that reached its attached host (built
    by :meth:`repro.net.network.DeliveryLog.views` from the train's
    row)."""

    time: float
    node: str
    flow_id: int
    count: int
    first_created_at: float
    interval: float

    def latencies(self) -> List[float]:
        """Analytic per-packet latencies: every packet of the train
        arrives with the aggregate, packet ``i`` was created
        ``i * interval`` after the first."""
        return [
            self.time - (self.first_created_at + i * self.interval)
            for i in range(self.count)
        ]


class AggregateCBRSource(CBRSource):
    """A CBR flow of 500-byte best-effort packets, emitted as aggregates.

    Emits one :class:`FlowAggregate` of up to ``batch`` packets per
    batch window instead of ``batch`` individual packets.

    Everything else is :class:`repro.net.traffic.CBRSource`: flow-id
    allocation, the ``(packet_size + 20) * 8 / rate_bps`` spacing, and
    the ``sent`` / ``sent_bytes`` accounting.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[FlowAggregate], None],
        src: str,
        dst: str,
        rate_bps: float = 1e6,
        batch: int = 100,
        stop: Optional[float] = None,
    ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        super().__init__(scheduler, sink, src, dst, rate_bps=rate_bps, stop=stop)
        self.batch = batch

    def _emit(self) -> None:
        now = self.scheduler.now
        if self.stop is not None and now >= self.stop:
            self._running = False
            return
        n = self.batch
        if self.stop is not None:
            # don't emit packets whose creation time falls at/past stop
            # (the scalar CBR source stops strictly before it)
            room = math.ceil((self.stop - now) / self.interval)
            n = min(n, max(1, room))
        template = self._packet(self.packet_size, self.sent, now)
        self.sent += n
        self.sent_bytes += n * template.length
        self.sink(
            FlowAggregate(template=template, count=n, interval=self.interval)
        )
        self.scheduler.after(n * self.interval, self._emit)
