"""Discrete event simulation kernel.

A binary heap (:mod:`heapq`) of ``(time, seq, fn, args)`` tuples: a
timestamp, a deterministic tiebreak sequence number (so equal-time
events fire in schedule order -- vital for reproducible network
simulations), and a callback with the arguments it is called with -- an
event carries its arguments, so the per-packet callers hand over a bound
method instead of building a closure.  ``seq`` is unique per scheduler,
so the heap orders entries by ``(time, seq)`` with C tuple comparison
and never compares two callbacks.  The network layer (:mod:`repro.net.link`,
:mod:`repro.net.network`) schedules packet arrivals, transmission
completions and protocol timers on one shared scheduler.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, NamedTuple, Optional, Tuple


class Event(NamedTuple):
    """A scheduled callback, as :meth:`EventScheduler.at` and
    :meth:`EventScheduler.after` return it."""

    time: float
    seq: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()


_new_event = tuple.__new__  # skips the generated ``Event.__new__`` frame

#: the events one :meth:`EventScheduler.run` may process by default: a
#: guard against runaway self-rescheduling sources, and the bound a
#: scenario reader holds a run's timers and flows to
EVENT_BUDGET = 10_000_000


class EventScheduler:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self.processed = 0

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute ``time``."""
        if not time >= self.now:  # also a NaN, which would unorder the heap
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        event = _new_event(Event, (time, next(self._seq), fn, args))
        heapq.heappush(self._heap, event)
        return event

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after a relative ``delay``."""
        if not delay >= 0:  # NaN too
            raise ValueError(f"negative delay {delay}")
        event = _new_event(
            Event, (self.now + delay, next(self._seq), fn, args)
        )
        heapq.heappush(self._heap, event)
        return event

    def run(self, until: Optional[float] = None) -> int:
        """Run events in order until the queue drains or ``until``.

        Returns the number of events processed.  :data:`EVENT_BUDGET`
        guards against runaway self-rescheduling sources: spending it
        with an event still due raises.
        """
        max_events = EVENT_BUDGET
        heap = self._heap
        count = 0
        while heap:
            time, _, fn, args = heap[0]
            if until is not None and time > until:
                break
            if count >= max_events:
                raise RuntimeError(
                    f"event budget of {max_events} exhausted at t={self.now}"
                )
            heapq.heappop(heap)
            self.now = time
            fn(*args)
            count += 1
            self.processed += 1
        if until is not None and until > self.now:
            self.now = until
        return count

    def step(self) -> bool:
        """Run exactly one event; returns False if the queue is empty."""
        if not self._heap:
            return False
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        fn(*args)
        self.processed += 1
        return True
