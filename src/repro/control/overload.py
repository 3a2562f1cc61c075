"""Control-plane overload protection: bounded queues, shedding, hysteresis.

The paper's split puts routing and signalling in software -- the part
that melts first when "heavy traffic from millions of users" turns into
a signalling storm.  This module supplies the three defences the
control plane needs to degrade *gracefully* instead of collapsing:

1. :class:`PriorityControlQueue` -- a bounded, class-prioritized
   per-node control-message queue.  Liveness traffic (HELLO / INIT /
   KEEPALIVE) outranks teardown traffic (LABEL_WITHDRAW), which
   outranks setup traffic (LABEL_MAPPING / PATH), so a mapping flood
   cannot starve the keepalives that hold LDP sessions up.  Watermarks
   add early shedding: past the high watermark the queue sheds arriving
   setup-class messages until it drains below the low watermark.

2. :class:`IngressShedder` -- deterministic ingress load shedding.
   Under sustained control-queue pressure the ingress LERs stop
   admitting traffic for the lowest-CoS FECs first, and restore them
   (highest-CoS-first of the shed set) only after the pressure has
   stayed low for :data:`SHED_HYSTERESIS` observation periods --
   hysteresis, so the shedder does not flap with the queue.

3. :class:`OverloadConfig` -- the ``overload`` scenario key: one
   ``enabled`` switch.  The queue sizes, the LDP liveness timers and
   the shedder's thresholds are the module constants below.

Everything here is deterministic: shedding decisions follow queue
depths and fixed thresholds only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple

from collections import deque

from repro.config import build
from repro.mpls.fec import PrefixFEC
from repro.net.events import EventScheduler
from repro.net.packet import IPv4Packet
from repro.obs.telemetry import get_telemetry


class MessageClass(IntEnum):
    """Control-message priority classes, best (lowest) first."""

    LIVENESS = 0  #: hello / init / keepalive -- keeps sessions up
    TEARDOWN = 1  #: withdraw / release -- frees state, must not queue-starve
    SETUP = 2  #: mapping / PATH -- the bulk that floods under storms


CLASS_NAMES: Dict[MessageClass, str] = {
    MessageClass.LIVENESS: "liveness",
    MessageClass.TEARDOWN: "teardown",
    MessageClass.SETUP: "setup",
}

_KIND_TO_CLASS: Dict[str, MessageClass] = {
    "hello": MessageClass.LIVENESS,
    "init": MessageClass.LIVENESS,
    "keepalive": MessageClass.LIVENESS,
    "label-withdraw": MessageClass.TEARDOWN,
    "label-release": MessageClass.TEARDOWN,
    # a shutdown frees session state: teardown priority, like withdraw
    "shutdown": MessageClass.TEARDOWN,
    "label-mapping": MessageClass.SETUP,
    "path": MessageClass.SETUP,
    # TTL-exception punts are sheddable bulk by design: a flood of them
    # must never outrank the keepalives it is trying to starve
    "ttl-exception": MessageClass.SETUP,
    # the PCE controller channel rides the same bounded queues: its
    # keepalives are liveness, its read-backs and table writes are
    # sheddable setup work
    "ctrl-keepalive": MessageClass.LIVENESS,
    "ctrl-read": MessageClass.SETUP,
    "ctrl-write": MessageClass.SETUP,
}


def classify_message(kind: Any) -> MessageClass:
    """Map a message kind (enum or its string value) to its class.

    Unknown kinds classify as SETUP: anything unrecognized is treated
    as sheddable bulk, never as liveness.
    """
    value = getattr(kind, "value", kind)
    return _KIND_TO_CLASS.get(value, MessageClass.SETUP)


#: each node's bounded control queue: its capacity and the watermarks
#: past which it sheds setup-class arrivals (the controller's channel
#: queues use the same three)
QUEUE_CAPACITY = 32
HIGH_WATERMARK = 24
LOW_WATERMARK = 8
#: CPU time to process one control message
SERVICE_TIME_S = 1e-3
#: LDP liveness: keepalive interval and the hold time after which a
#: silent session is dropped
KEEPALIVE_INTERVAL = 0.05
HOLD_TIME = 0.2
#: the ingress shedder's observation period and first observation
SHED_PERIOD = 0.02
SHED_START = 0.0
#: pressure (worst queue fill fraction) at/above which one more FEC
#: sheds, and at/below which a calm tick counts towards a restore
SHED_HIGH = 0.5
SHED_LOW = 0.25
#: consecutive calm ticks before one shed FEC is restored
SHED_HYSTERESIS = 3
#: never shed more than this fraction of the FECs -- the graceful-
#: degradation floor (0.5 keeps at least half the FECs up)
MAX_SHED_FRACTION = 0.5


@dataclass
class OverloadConfig:
    """The scenario's ``overload`` key."""

    #: master switch: False builds the same bounded queues *without*
    #: prioritization or shedding (plain FIFO tail-drop), the baseline a
    #: protected run is compared against
    enabled: bool = True
    #: periodic timers re-arm only while now + period <= horizon; unset
    #: (None) leaves the timers unarmed so unit tests can drive manually
    horizon: Optional[float] = None

    @classmethod
    def from_dict(
        cls, raw: Mapping[str, Any], horizon: Optional[float] = None
    ) -> "OverloadConfig":
        return build(cls, "overload", raw, horizon=horizon)


class PriorityControlQueue:
    """Bounded control-message queue with class priority and watermarks.

    ``prioritized=False`` degrades it to a plain bounded FIFO with tail
    drop -- the unprotected baseline.  Either way the queue keeps
    per-class accounting so a report can show *what* was lost.
    """

    def __init__(
        self,
        capacity: int,
        high_watermark: int,
        low_watermark: int,
        prioritized: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not (0 <= low_watermark < high_watermark <= capacity):
            raise ValueError(
                "need 0 <= low_watermark < high_watermark <= capacity"
            )
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.prioritized = prioritized
        self._queues: Tuple[Deque, Deque, Deque] = (
            deque(),
            deque(),
            deque(),
        )
        self._depth = 0  #: messages held across the three class queues
        #: True while the queue is between watermarks on the way down
        self.shedding = False
        self.enqueued = 0
        self.serviced = 0
        self.max_depth = 0
        self.dropped_by_class: Dict[MessageClass, int] = {
            c: 0 for c in MessageClass
        }
        self.shed_by_class: Dict[MessageClass, int] = {
            c: 0 for c in MessageClass
        }

    def __len__(self) -> int:
        return self._depth

    @property
    def fill_fraction(self) -> float:
        return self._depth / self.capacity

    def offer(
        self, item: Any, cls: MessageClass
    ) -> Tuple[bool, List[Tuple[Any, MessageClass, str]]]:
        """Try to enqueue ``item``; returns (accepted, dropped).

        ``dropped`` lists every message lost by this offer -- the
        arrival itself (watermark shed or queue full) or a worse-class
        victim evicted to make room for a better-class arrival.
        """
        depth = self._depth
        if self.prioritized:
            if self.shedding and depth <= self.low_watermark:
                self.shedding = False
            if not self.shedding and depth >= self.high_watermark:
                self.shedding = True
            if self.shedding and cls is MessageClass.SETUP:
                self.shed_by_class[cls] += 1
                return False, [(item, cls, "watermark-shed")]
        dropped: List[Tuple[Any, MessageClass, str]] = []
        if depth >= self.capacity:
            victim_cls = None
            if self.prioritized:
                for candidate in (MessageClass.SETUP, MessageClass.TEARDOWN):
                    if candidate > cls and self._queues[candidate]:
                        victim_cls = candidate
                        break
            if victim_cls is None:
                self.dropped_by_class[cls] += 1
                return False, [(item, cls, "queue-full")]
            victim, vcls = self._queues[victim_cls].pop()  # newest first
            self.dropped_by_class[vcls] += 1
            dropped.append((victim, vcls, "evicted"))
            depth -= 1
        bucket = cls if self.prioritized else MessageClass.LIVENESS
        self._queues[bucket].append((item, cls))
        self.enqueued += 1
        depth += 1
        self._depth = depth
        if depth > self.max_depth:
            self.max_depth = depth
        return True, dropped

    def pop(self) -> Optional[Tuple[Any, MessageClass]]:
        """Dequeue the best-class head (plain FIFO when unprioritized)."""
        for queue in self._queues:
            if queue:
                self._depth -= 1
                self.serviced += 1
                return queue.popleft()
        return None


@dataclass
class ShedEntry:
    """One ingress FEC the shedder may degrade."""

    prefix: str
    cos: int
    ingress: str
    matcher: PrefixFEC = field(init=False, repr=False)
    shed: bool = False

    def __post_init__(self) -> None:
        self.matcher = PrefixFEC(self.prefix)


class IngressShedder:
    """Deterministic, hysteretic ingress load shedding.

    Observes a pressure signal (the worst control-queue fill fraction)
    every :data:`SHED_PERIOD`; at/above :data:`SHED_HIGH` it sheds one
    more FEC -- strictly lowest CoS first -- up to the
    :data:`MAX_SHED_FRACTION` floor.  After :data:`SHED_HYSTERESIS`
    consecutive observations at/below :data:`SHED_LOW` it restores one
    FEC (reverse order).  ``guard`` plugs into
    :attr:`repro.net.network.MPLSNetwork.ingress_guard` to drop packets
    of shed FECs at their ingress LER.
    """

    def __init__(
        self,
        entries: List[ShedEntry],
        pressure: Callable[[], float],
        config: OverloadConfig,
        scheduler: EventScheduler,
    ) -> None:
        self.entries = sorted(entries, key=lambda e: (e.cos, e.prefix))
        self.pressure = pressure
        self.config = config
        self.scheduler = scheduler
        self.max_shed = int(len(self.entries) * MAX_SHED_FRACTION)
        self._calm_ticks = 0
        #: (time, prefix, cos) per transition, in occurrence order
        self.shed_events: List[Tuple[float, str, int]] = []
        self.restore_events: List[Tuple[float, str, int]] = []
        self.packets_shed = 0
        self._first_shed_at: Optional[float] = None
        self._last_restore_at: Optional[float] = None
        self.telemetry = get_telemetry()

    # -- state ------------------------------------------------------------
    @property
    def shed_count(self) -> int:
        return sum(1 for e in self.entries if e.shed)

    @property
    def recovery_time_s(self) -> Optional[float]:
        """First-shed to last-restore, once everything is restored."""
        if (
            self._first_shed_at is None
            or self._last_restore_at is None
            or self.shed_count
        ):
            return None
        return self._last_restore_at - self._first_shed_at

    # -- control loop ------------------------------------------------------
    def arm(self) -> None:
        """Schedule the observation loop (needs ``config.horizon``)."""
        if self.config.horizon is None:
            raise ValueError("cannot arm the shedder without a horizon")
        self.scheduler.at(SHED_START, self.observe)

    def observe(self) -> None:
        now = self.scheduler.now
        p = self.pressure()
        if p >= SHED_HIGH:
            self._calm_ticks = 0
            self._shed_one(now)
        elif p <= SHED_LOW:
            self._calm_ticks += 1
            if self._calm_ticks >= SHED_HYSTERESIS:
                self._restore_one(now)
        else:
            self._calm_ticks = 0
        horizon = self.config.horizon
        if horizon is not None and now + SHED_PERIOD <= horizon:
            self.scheduler.after(SHED_PERIOD, self.observe)

    def _shed_one(self, now: float) -> None:
        if self.shed_count >= self.max_shed:
            return
        for entry in self.entries:  # lowest CoS first
            if not entry.shed:
                entry.shed = True
                self.shed_events.append((now, entry.prefix, entry.cos))
                if self._first_shed_at is None:
                    self._first_shed_at = now
                self._note(entry, "shed")
                return

    def _restore_one(self, now: float) -> None:
        for entry in reversed(self.entries):  # highest CoS back first
            if entry.shed:
                entry.shed = False
                self._calm_ticks = 0
                self.restore_events.append((now, entry.prefix, entry.cos))
                self._last_restore_at = now
                self._note(entry, "restored")
                return

    def _note(self, entry: ShedEntry, state: str) -> None:
        from repro.obs.events import FECShed

        tel = self.telemetry
        if not tel.enabled:
            return
        count_here = sum(
            1
            for e in self.entries
            if e.shed and e.ingress == entry.ingress
        )
        tel.fecs_shed.labels(entry.ingress).set(count_here)
        event = FECShed(
            node=entry.ingress,
            fec=entry.prefix,
            cos=entry.cos,
            state=state,
        )
        event.time = self.scheduler.now
        tel.events.emit(event)

    # -- data-plane hook ---------------------------------------------------
    def guard(self, node: str, packet: IPv4Packet, count: int = 1) -> bool:
        """True when ``packet`` arriving at ingress ``node`` must shed;
        ``count`` is the number of packets it stands for (a train's
        template is offered once for the whole train)."""
        for entry in self.entries:
            if (
                entry.shed
                and entry.ingress == node
                and entry.matcher.matches(packet)
            ):
                self.packets_shed += count
                return True
        return False
