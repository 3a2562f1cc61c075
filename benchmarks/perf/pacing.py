"""A reference kernel interleaved with the workload: the machine's speed.

The shared box this benchmark runs on changes speed by 30-60 % on every
time scale from a tenth of a second to minutes (a busy sibling
hyperthread, not preemption: CPU time moves with wall time), so raw
seconds of the same work spread 15-30 % between runs.  The
:class:`Pacer` runs one slice of a fixed, interpreter-bound kernel about
every 15 ms *inside* the timed region, so the kernel meets the same
machine the workload meets.  A repetition's speed factor is the measured
time per slice over :data:`SLICE_REF_S`; dividing the workload's own
time (kernel time excluded) by it gives seconds at reference speed,
which repeat to about 3 %.

The kernel is harness code doing dictionary, heap, attribute and call
work like the simulator's; no change under ``src/`` can move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter, process_time
from typing import List

#: one slice takes this long at reference speed (this box when quiet)
SLICE_REF_S = 1.0e-3
#: host time between slices
INTERVAL_S = 15e-3


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _bump(cell: _Cell, amount: int) -> int:
    cell.value = (cell.value + amount) & 0xFFFF
    return cell.value


_CELLS = [_Cell(i) for i in range(64)]


def kernel_slice(n: int = 1500) -> int:
    table: dict = {}
    heap: List[tuple] = []
    total = 0
    cells = _CELLS
    for i in range(n):
        total += _bump(cells[i & 63], i)
        table[i & 255] = total
        total ^= table.get((i * 7) & 255, 0)
        heapq.heappush(heap, (total & 0xFFF, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class Pacer:
    """Call :meth:`tick` often; it runs a slice when one is due and keeps
    the kernel's own wall and CPU time apart from the workload's."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.slices = 0
        self._due = 0.0  # the first tick always runs a slice

    def tick(self, force: bool = False) -> None:
        start = perf_counter()
        if start < self._due and not force:
            return
        cpu_start = process_time()
        kernel_slice()
        cpu_end = process_time()
        end = perf_counter()
        self.wall += end - start
        self.cpu += cpu_end - cpu_start
        self.slices += 1
        self._due = end + INTERVAL_S

    @property
    def speed(self) -> float:
        """Measured wall time per slice over the reference: > 1 is a
        slower machine."""
        return self.wall / self.slices / SLICE_REF_S

    @property
    def speed_cpu(self) -> float:
        return self.cpu / self.slices / SLICE_REF_S
