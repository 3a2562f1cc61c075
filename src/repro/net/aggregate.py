"""Flow aggregates: bulk traffic as (rate, count, bytes) summaries.

The scalar data plane materializes one Python object chain per packet
per hop -- three scheduler events per link, one engine decision per
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
  (``tests/net/test_aggregates.py`` cross-checks against scalar runs),
* the aggregate is the granularity of loss: a link-down flush, queue
  overflow or wire-loss draw takes the whole train (a burst is lost
  together), and per-packet telemetry *events* are not emitted for
  bulk packets -- packets that must be individually observable (span
  sampling) are materialized by the source instead and travel as real
  packets alongside the aggregate.

A train crosses the same data-plane routines as a packet: its template
is the packet, the aggregate rides along as their ``train`` argument.
Aggregates only exist in batched mode
(:meth:`repro.net.network.MPLSNetwork.enable_batching`), where the
per-node caches supply the per-packet deltas a train scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from repro.net.events import EventScheduler
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.traffic import DSCP_BE, CBRSource


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

    @property
    def inner(self) -> IPv4Packet:
        template = self.template
        return template.inner if isinstance(template, MPLSPacket) else template

    @property
    def flow_id(self) -> int:
        return self.inner.flow_id

    @property
    def first_created_at(self) -> float:
        return self.inner.created_at

    @property
    def length(self) -> int:
        """Total bytes across the whole train at the current shape."""
        return self.template.length * self.count

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
    """A whole aggregate that reached its attached host."""

    time: float
    node: str
    flow_id: int
    count: int
    bytes: int
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
    """A CBR flow emitted as aggregates, with sampled materialization.

    Emits one :class:`FlowAggregate` of up to ``batch`` packets per
    batch window instead of ``batch`` individual packets.  When
    ``sample_every`` is set, every ``sample_every``-th packet of the
    flow is materialized as a real :class:`IPv4Packet` and injected at
    its exact creation time through ``sample_sink`` (default: the same
    sink), so span tracing and per-packet telemetry observe it as a
    real packet; the aggregate's count excludes materialized packets,
    keeping packet/byte totals exact.

    Everything else is :class:`repro.net.traffic.CBRSource`: flow-id
    allocation, the ``(packet_size + 20) * 8 / rate_bps`` spacing, and
    the ``sent`` / ``sent_bytes`` accounting (both bulk and sampled
    packets count).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[FlowAggregate], None],
        src: str,
        dst: str,
        rate_bps: float = 1e6,
        packet_size: int = 500,
        batch: int = 100,
        dscp: int = DSCP_BE,
        start: float = 0.0,
        stop: Optional[float] = None,
        ttl: int = 64,
        sample_every: Optional[int] = None,
        sample_sink: Optional[Callable[[IPv4Packet], None]] = None,
    ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if sample_every is not None and sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        super().__init__(
            scheduler,
            sink,
            src,
            dst,
            rate_bps=rate_bps,
            packet_size=packet_size,
            dscp=dscp,
            start=start,
            stop=stop,
        )
        self.batch = batch
        self.ttl = ttl
        self.sample_every = sample_every
        self.sample_sink = sample_sink
        self.sampled = 0

    def _make_packet(self, seq: int, created_at: float) -> IPv4Packet:
        return IPv4Packet(
            src=self.src,
            dst=self.dst,
            ttl=self.ttl,
            dscp=self.dscp,
            payload=bytes(self.packet_size),
            flow_id=self.flow_id,
            seq=seq,
            created_at=created_at,
        )

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
        bulk = n
        if self.sample_every is not None:
            # materialize every sample_every-th packet of the flow (by
            # absolute sequence number) at its exact creation time
            sample_sink = (
                self.sample_sink if self.sample_sink is not None else self.sink
            )
            for i in range(n):
                seq = self.sent + i
                if seq % self.sample_every == 0:
                    packet = self._make_packet(seq, now + i * self.interval)
                    self.scheduler.at(
                        packet.created_at, lambda p=packet: sample_sink(p)
                    )
                    self.sampled += 1
                    bulk -= 1
        template = self._make_packet(self.sent, now)
        self.sent += n
        self.sent_bytes += n * template.length
        if bulk > 0:
            self.sink(
                FlowAggregate(
                    template=template, count=bulk, interval=self.interval
                )
            )
        self.scheduler.after(n * self.interval, self._emit)
