"""Differential tests for the control queue's depth counter.

:class:`SummingQueue` is the queue as it was while its depth was the
sum of its three class deques, taken afresh by every ``len()``.  It is
the oracle; it exists only here.  Both queues take the same random
sequence of offers and pops -- small capacities, so watermark sheds,
tail drops and evictions all happen -- and must agree after every step
on what was accepted, dropped and dequeued, and on ``len``,
``max_depth``, ``shedding`` and the per-class ledgers.
"""

from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.overload import MessageClass, PriorityControlQueue


class SummingQueue(PriorityControlQueue):
    """Depth by summation; ``offer`` and ``pop`` never keep a count."""

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def fill_fraction(self) -> float:
        return len(self) / self.capacity

    def offer(
        self, item: Any, cls: MessageClass
    ) -> Tuple[bool, List[Tuple[Any, MessageClass, str]]]:
        depth = len(self)
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
            victim, vcls = self._queues[victim_cls].pop()
            self.dropped_by_class[vcls] += 1
            dropped.append((victim, vcls, "evicted"))
        bucket = cls if self.prioritized else MessageClass.LIVENESS
        self._queues[bucket].append((item, cls))
        self.enqueued += 1
        self.max_depth = max(self.max_depth, len(self))
        return True, dropped

    def pop(self) -> Optional[Tuple[Any, MessageClass]]:
        for queue in self._queues:
            if queue:
                item, cls = queue.popleft()
                self.serviced += 1
                return item, cls
        return None


def observe(queue: PriorityControlQueue) -> Tuple[object, ...]:
    return (
        len(queue),
        queue.fill_fraction,
        queue.max_depth,
        queue.shedding,
        queue.enqueued,
        queue.serviced,
        queue.dropped_by_class,
        queue.shed_by_class,
        [list(q) for q in queue._queues],
    )


shapes = st.sampled_from([(1, 1, 0), (4, 3, 1), (6, 4, 2)])
steps = st.lists(
    st.one_of(st.sampled_from(MessageClass), st.just("pop")), max_size=60
)


@settings(max_examples=300, deadline=None)
@given(shape=shapes, prioritized=st.booleans(), steps=steps)
def test_counted_depth_matches_summed_depth(shape, prioritized, steps):
    new = PriorityControlQueue(*shape, prioritized=prioritized)
    old = SummingQueue(*shape, prioritized=prioritized)
    for item, step in enumerate(steps):
        if step == "pop":
            assert new.pop() == old.pop()
        else:
            assert new.offer(item, step) == old.offer(item, step)
        assert observe(new) == observe(old)
        assert len(new) == sum(len(q) for q in new._queues)
