"""Per-node label allocation.

Every LSR manages its own (platform-wide) label space: labels it hands
out to upstream neighbours and later installs in its ILM.  Reserved
labels 0-15 are never allocated; freed labels are recycled
lowest-first so long-running control planes do not creep through the
20-bit space.
"""

from __future__ import annotations

import heapq
from typing import List, Set

from repro.mpls.label import LABEL_MAX, RESERVED_LABEL_MAX


class LabelSpaceExhausted(Exception):
    """No labels left to allocate (2^20 - 16 of them are gone)."""


class LabelAllocator:
    """Allocates labels from ``first`` upward, recycling freed ones."""

    def __init__(self, first: int = RESERVED_LABEL_MAX + 1) -> None:
        if first <= RESERVED_LABEL_MAX:
            raise ValueError(
                f"allocation must start above the reserved range, got {first}"
            )
        self._next = first
        self._free: List[int] = []
        self._allocated: Set[int] = set()

    def allocate(self) -> int:
        if self._free:
            label = heapq.heappop(self._free)
        else:
            if self._next > LABEL_MAX:
                raise LabelSpaceExhausted("20-bit label space exhausted")
            label = self._next
            self._next += 1
        self._allocated.add(label)
        return label

    def release(self, label: int) -> None:
        if label not in self._allocated:
            raise KeyError(f"label {label} was not allocated here")
        self._allocated.discard(label)
        heapq.heappush(self._free, label)
