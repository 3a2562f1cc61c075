"""Schedulers keyed on the 3-bit CoS field.

These implement the "scheduling ... algorithms" the paper says the CoS
bits select.  Both expose the link-queue protocol (``enqueue(item,
cos)`` / ``dequeue()`` / ``__len__``) so a
:class:`~repro.net.link.SimplexChannel` can use them directly:

* :class:`PriorityScheduler` -- strict priority: higher CoS always
  transmits first.  Gives voice hard protection but can starve lower
  classes.
* :class:`WFQScheduler` -- weighted fair queueing via deficit round
  robin: each class gets bandwidth proportional to its weight, so no
  class starves.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional


class PriorityScheduler:
    """Strict-priority over 8 CoS classes (7 = highest)."""

    def __init__(self, capacity_per_class: int = 64) -> None:
        if capacity_per_class < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity_per_class = capacity_per_class
        self._queues: List[Deque[Any]] = [deque() for _ in range(8)]
        self.dropped_by_cos: Dict[int, int] = {}
        self.enqueued = 0

    def enqueue(self, item: Any, cos: int = 0) -> bool:
        cos = max(0, min(7, cos))
        queue = self._queues[cos]
        if len(queue) >= self.capacity_per_class:
            self.dropped_by_cos[cos] = self.dropped_by_cos.get(cos, 0) + 1
            return False
        queue.append(item)
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[Any]:
        for cos in range(7, -1, -1):
            if self._queues[cos]:
                return self._queues[cos].popleft()
        return None

    def __len__(self) -> int:
        """Items queued over all classes (the link's queue-depth gauge)."""
        return sum(map(len, self._queues))


#: bytes a weight-1 class may send per round (one Ethernet MTU)
QUANTUM_UNIT = 1500


class WFQScheduler:
    """Deficit-round-robin approximation of weighted fair queueing.

    ``weights[cos]`` sets each class's share; classes absent from the
    mapping get weight 1.  The quantum is ``weight * QUANTUM_UNIT``
    bytes per round.  Items enqueued by the links are ``(packet,
    size_bytes)`` tuples, which is where the byte costs come from; a
    bare item counts as one quantum unit.
    """

    def __init__(
        self,
        weights: Optional[Dict[int, float]] = None,
        capacity_per_class: int = 64,
    ) -> None:
        if capacity_per_class < 1:
            raise ValueError("capacity must be >= 1")
        self.weights = {cos: 1.0 for cos in range(8)}
        if weights:
            for cos, weight in weights.items():
                if not 0 <= cos <= 7:
                    raise ValueError(f"CoS {cos} out of range")
                if weight <= 0:
                    raise ValueError(f"weight for CoS {cos} must be positive")
                self.weights[cos] = float(weight)
        self.capacity_per_class = capacity_per_class
        self._queues: List[Deque[Any]] = [deque() for _ in range(8)]
        self._deficit: List[float] = [0.0] * 8
        self._active: Deque[int] = deque()
        self.dropped_by_cos: Dict[int, int] = {}
        self.enqueued = 0

    @staticmethod
    def _size_of(item: Any) -> int:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int):
            return item[1]
        return 1500

    def enqueue(self, item: Any, cos: int = 0) -> bool:
        cos = max(0, min(7, cos))
        queue = self._queues[cos]
        if len(queue) >= self.capacity_per_class:
            self.dropped_by_cos[cos] = self.dropped_by_cos.get(cos, 0) + 1
            return False
        if not queue and cos not in self._active:
            self._active.append(cos)
            self._deficit[cos] = 0.0
        queue.append(item)
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[Any]:
        # Each full rotation adds weight*quantum to every active class's
        # deficit, so an item is released within
        # ceil(max_size / (min_weight * quantum)) rotations; 10k
        # iterations is far beyond any sane configuration and guards
        # against a mis-set quantum looping forever.
        for _ in range(10_000):
            if not self._active:
                return None
            cos = self._active[0]
            queue = self._queues[cos]
            if not queue:
                self._active.popleft()
                continue
            head_size = self._size_of(queue[0])
            if self._deficit[cos] >= head_size:
                self._deficit[cos] -= head_size
                item = queue.popleft()
                if not queue:
                    self._active.popleft()
                return item
            # grant this class its quantum and move it to the back
            self._deficit[cos] += self.weights[cos] * QUANTUM_UNIT
            self._active.rotate(-1)
        raise RuntimeError(
            "WFQ failed to release an item in 10k rotations; "
            "check weights/quantum configuration"
        )

    def __len__(self) -> int:
        """Items queued over all classes (the link's queue-depth gauge)."""
        return sum(map(len, self._queues))
