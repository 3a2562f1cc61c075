"""Measure Table 6 on the live RTL.

Runs each operation of the paper's Table 6 on a fresh
:class:`~repro.hw.driver.ModifierDriver` and reports measured cycles
next to the paper's formula -- the agreement is asserted by the
Table 6 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hw.driver import ModifierDriver
from repro.hw.model import search_cycles, SWAP_TAIL_CYCLES
from repro.mpls.label import LabelEntry, LabelOp


@dataclass(frozen=True)
class CycleMeasurement:
    """One row of the measured Table 6."""

    operation: str
    formula: str
    expected: int
    measured: int

    @property
    def matches(self) -> bool:
        return self.expected == self.measured


#: the search rows' level occupancies
SEARCH_SIZES = (1, 10, 100)


def measure_table6(
    driver: Optional[ModifierDriver] = None,
) -> List[CycleMeasurement]:
    """Measure every Table 6 row on the RTL (searches at each of
    :data:`SEARCH_SIZES` entries).

    Pass a ``driver`` to reuse an existing simulator instance -- e.g.
    one with a :class:`~repro.obs.profiling.CycleProfiler` attached, so
    the measurement doubles as a per-operation cycle profile
    (``python -m repro stats`` does exactly that).
    """
    rows: List[CycleMeasurement] = []
    drv = driver if driver is not None else ModifierDriver()

    rows.append(
        CycleMeasurement("Reset", "3", 3, drv.reset())
    )
    rows.append(
        CycleMeasurement(
            "Push entry from the user",
            "3",
            3,
            drv.user_push(LabelEntry(label=600, ttl=9)),
        )
    )
    rows.append(
        CycleMeasurement(
            "Pop entry from the user", "3", 3, drv.user_pop()[1]
        )
    )
    rows.append(
        CycleMeasurement(
            "Write label pair",
            "3",
            3,
            drv.write_pair(2, 16, 500, LabelOp.SWAP),
        )
    )

    for n in SEARCH_SIZES:
        drv.reset()
        for i in range(n):
            drv.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
        result = drv.search(2, 0xFFFFF)  # guaranteed miss: full scan
        rows.append(
            CycleMeasurement(
                f"Search information base (n={n})",
                "3n + 5",
                search_cycles(n, None),
                result.cycles,
            )
        )

    # swap from the information base: measured as the update's cost
    # beyond its (first-hit) search
    drv.reset()
    drv.write_pair(1, 100, 200, LabelOp.SWAP)
    drv.user_push(LabelEntry(label=100, ttl=9, s=1))
    update = drv.update()
    swap_tail = update.cycles - search_cycles(1, 0)
    rows.append(
        CycleMeasurement(
            "Swap from the information base",
            "6",
            SWAP_TAIL_CYCLES,
            swap_tail,
        )
    )
    return rows
