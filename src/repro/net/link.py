"""Point-to-point links with bandwidth, delay and output queuing.

A :class:`Link` is full-duplex: each direction is an independent
:class:`SimplexChannel` with its own transmitter and output queue.  The
channel model is the standard store-and-forward one: a packet waits in
the output queue, occupies the transmitter for ``bits / bandwidth``
seconds, then arrives at the far end after the propagation ``delay``.

Queues are pluggable through a tiny protocol (``enqueue`` / ``dequeue``
/ ``__len__``) so the QoS subpackage's priority and WFQ schedulers can
replace the default drop-tail FIFO -- that substitution is exactly the
experiment behind the paper's QoS motivation.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from repro.net.events import EventScheduler
from repro.obs.telemetry import get_telemetry


class DropTailQueue:
    """A bounded FIFO; the baseline best-effort queue."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: Deque[Any] = deque()
        self.dropped = 0

    def enqueue(self, packet: Any, cos: int = 0) -> bool:
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(packet)
        return True

    def dequeue(self) -> Optional[Any]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


@dataclass(frozen=True)
class Interface:
    """A (node, interface-name) attachment point."""

    node: str
    name: str

    def __str__(self) -> str:
        return f"{self.node}:{self.name}"


def _units(packet: Any) -> int:
    """Packets represented by one queued/transmitted unit: 1 for a
    scalar packet, the train length for a flow aggregate (batched
    mode).  Keeps per-packet counters exact without the link layer
    importing the aggregate type."""
    if getattr(packet, "is_aggregate", False):
        return packet.count
    return 1


class SimplexChannel:
    """One direction of a link."""

    def __init__(
        self,
        scheduler: EventScheduler,
        src: Interface,
        dst: Interface,
        bandwidth_bps: float,
        delay_s: float,
        queue: Optional[Any] = None,
        loss_seed: int = 0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay_s < 0:
            raise ValueError(f"negative propagation delay {delay_s}")
        self.scheduler = scheduler
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None else DropTailQueue()
        #: wire loss probability (:meth:`Link.set_loss`)
        self.loss_rate = 0.0
        self._loss_rng = random.Random(loss_seed)
        self.on_deliver: Optional[Callable[[Interface, Any], None]] = None
        self._busy = False
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        self.lost = 0
        #: Fault state: a down channel drops everything (queued,
        #: transmitting, and propagating packets all count as lost).
        self.up = True
        #: Generation counter bumped on every down transition, so
        #: callbacks scheduled before a failure are invalidated even if
        #: the channel comes back up before they fire.
        self._epoch = 0
        #: Deterministic corruption: each transmitted packet is passed
        #: through ``corruptor`` with probability ``corrupt_rate``.
        #: Without a corruptor the packet is counted as lost instead.
        self.corrupt_rate = 0.0
        self._corrupt_rng = random.Random(loss_seed ^ 0x5EED)
        self.corruptor: Optional[Callable[[Any], Any]] = None
        self.corrupted = 0
        self.telemetry = get_telemetry()

    # -- fault state --------------------------------------------------------
    def set_down(self) -> None:
        """Fail the channel: flush the queue and lose in-flight packets."""
        if not self.up:
            return
        self.up = False
        self._epoch += 1
        tel = self.telemetry
        while True:
            item = self.queue.dequeue()
            if item is None:
                break
            count = _units(item[0])
            self.lost += count
            if tel.enabled:
                tel.link_drops.labels(
                    self.src.node, self.dst.node, "link-down"
                ).inc(count)
        self._busy = False

    def set_up(self) -> None:
        self.up = True

    def send(self, packet: Any, size_bytes: int, cos: int = 0) -> bool:
        """Queue a packet for transmission.  Returns False on drop."""
        tel = self.telemetry
        if not self.up:
            self.dropped += _units(packet)
            if tel.enabled:
                tel.link_drops.labels(
                    self.src.node, self.dst.node, "link-down"
                ).inc(_units(packet))
            return False
        if not self.queue.enqueue((packet, size_bytes), cos):
            self.dropped += _units(packet)
            if tel.enabled:
                tel.link_drops.labels(
                    self.src.node, self.dst.node, "queue-overflow"
                ).inc(_units(packet))
            return False
        if tel.enabled:
            tel.queue_depth.labels(self.src.node, self.dst.node).set(
                len(self.queue)
            )
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        item = self.queue.dequeue()
        if item is None:
            self._busy = False
            return
        packet, size_bytes = item
        tel = self.telemetry
        if tel.enabled:
            tel.queue_depth.labels(self.src.node, self.dst.node).set(
                len(self.queue)
            )
        self._busy = True
        self.scheduler.after(
            size_bytes * 8 / self.bandwidth_bps,
            self._tx_done, packet, size_bytes, self._epoch,
        )

    def _tx_done(self, packet: Any, size_bytes: int, epoch: int) -> None:
        if epoch != self._epoch:
            return  # the channel went down while transmitting
        count = _units(packet)
        self.tx_packets += count
        self.tx_bytes += size_bytes
        tel = self.telemetry
        if tel.enabled:
            tel.link_tx_packets.labels(self.src.node, self.dst.node).inc(
                count
            )
            tel.link_tx_bytes.labels(self.src.node, self.dst.node).inc(
                size_bytes
            )
            # per-interval utilization accounting for the traffic-matrix
            # collector; rides the existing guard
            if tel.flows is not None:
                tel.flows.record_link_tx(
                    self.src.node, self.dst.node, size_bytes
                )
        if self.loss_rate and self._loss_rng.random() < self.loss_rate:
            # lost on the wire: transmitted but never arrives (for an
            # aggregate the whole train is the loss unit -- one RNG
            # draw, so the scalar path's draw sequence is untouched)
            self.lost += count
            if tel.enabled:
                tel.link_drops.labels(
                    self.src.node, self.dst.node, "wire-loss"
                ).inc(count)
        else:
            if self.corrupt_rate and (
                self._corrupt_rng.random() < self.corrupt_rate
            ):
                self.corrupted += count
                if tel.enabled:
                    tel.link_drops.labels(
                        self.src.node, self.dst.node, "corrupted"
                    ).inc(count)
                if self.corruptor is None:
                    # no corruptor: an unrecoverable frame, i.e. a loss
                    self.lost += count
                    self._start_next()
                    return
                if getattr(packet, "is_aggregate", False):
                    packet = packet.with_template(
                        self.corruptor(packet.template)
                    )
                else:
                    packet = self.corruptor(packet)
            self.scheduler.after(self.delay_s, self._arrive, packet, epoch)
        self._start_next()

    def _arrive(self, packet: Any, epoch: int) -> None:
        if epoch != self._epoch:
            return  # the channel went down while the packet propagated
        if self.on_deliver is not None:
            self.on_deliver(self.dst, packet)


class Link:
    """A full-duplex point-to-point link between two interfaces.

    Parameters
    ----------
    scheduler:
        Shared event scheduler.
    a, b:
        The two endpoints.
    bandwidth_bps:
        Capacity of each direction.
    delay_s:
        One-way propagation delay.
    queue_factory:
        Callable producing a fresh queue per direction (so the two
        directions never share queue state).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        a: Interface,
        b: Interface,
        bandwidth_bps: float = 100e6,
        delay_s: float = 1e-3,
        queue_factory: Callable[[], Any] = DropTailQueue,
    ) -> None:
        self.a = a
        self.b = b
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        # each direction draws its own loss (and corruption) sequence
        self.forward = SimplexChannel(
            scheduler, a, b, bandwidth_bps, delay_s, queue_factory(),
            loss_seed=0,
        )
        self.reverse = SimplexChannel(
            scheduler, b, a, bandwidth_bps, delay_s, queue_factory(),
            loss_seed=1,
        )

    # -- fault state --------------------------------------------------------
    def fail(self) -> None:
        """Take both directions down; queued and in-flight packets are
        lost."""
        self.forward.set_down()
        self.reverse.set_down()

    def heal(self) -> None:
        self.forward.set_up()
        self.reverse.set_up()

    def set_loss(self, rate: float) -> None:
        """Set the wire loss probability on both directions."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.forward.loss_rate = rate
        self.reverse.loss_rate = rate

    def set_corruption(
        self, rate: float, corruptor: Optional[Callable[[Any], Any]] = None
    ) -> None:
        """Corrupt each transmitted packet with probability ``rate``.

        With a ``corruptor`` the mangled packet still arrives (and the
        receiver must cope); without one corruption is counted as loss.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corrupt rate must be in [0, 1], got {rate}")
        for channel in (self.forward, self.reverse):
            channel.corrupt_rate = rate
            channel.corruptor = corruptor

    def channel_from(self, node: str) -> SimplexChannel:
        """The outbound channel as seen from ``node``."""
        if node == self.a.node:
            return self.forward
        if node == self.b.node:
            return self.reverse
        raise KeyError(f"{node} is not an endpoint of {self}")

    def __repr__(self) -> str:
        return f"<Link {self.a} <-> {self.b} {self.bandwidth_bps/1e6:g}Mbps>"
