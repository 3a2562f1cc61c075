"""A content-addressable (CAM) information base: the design alternative.

The paper's information base finds a label pair by *walking* a RAM with
a counter -- 3 cycles per entry, hence Table 6's ``3n + 5``.  Real
wire-speed MPLS hardware instead used CAMs: one comparator per stored
entry, all matching in parallel, so a lookup costs a constant number of
cycles regardless of occupancy.

This module provides that alternative as RTL
(:class:`CAMInfoBaseLevel`) plus its cost model, so the search-scaling
ablation can show both sides of the trade the paper made:

* **cycles**: CAM lookup = 2 cycles (present key / registered match)
  vs ``3n + 5``;
* **area**: a CAM burns one ``width``-bit comparator per entry in
  *logic*, while the paper's design stores everything in block RAM.
  :func:`cam_logic_elements` estimates the LE cost so the device model
  can show why a 2005-era FPGA design would choose the RAM walk for a
  1K-entry table.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.device import STRATIX_EP1S40
from repro.hdl.simulator import Component, Simulator
from repro.hw.info_base import LABEL_WIDTH, OP_WIDTH

#: Cycles for a CAM lookup: key presented in one cycle, the match
#: (priority-encoded over all parallel comparators) registered at the
#: next edge.
CAM_SEARCH_CYCLES = 2

#: Rough logic cost of one CAM entry: a w-bit equality comparator plus
#: the valid bit and priority-encode contribution, in 4-input LEs.
#: (A w-bit comparator needs about w/2 LEs; overhead for the encoder
#: roughly doubles it.)
LES_PER_CAM_BIT = 1.0


class CAMInfoBaseLevel(Component):
    """One information-base level with parallel match.

    Write port (appends like the RAM level): ``wr_en`` / ``wr_index``
    / ``wr_label`` / ``wr_op``.

    Search port: drive ``search_en`` + ``search_key`` for one cycle;
    after the next edge ``match_valid`` / ``match_label`` / ``match_op``
    hold the (first-match) result and ``done`` pulses.

    The parallel comparator array is modelled by matching the whole
    store during the settle phase -- combinationally, exactly what the
    hardware's per-entry comparators do -- with the result registered
    at the edge.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        index_width: int,
        depth: int = 1024,
    ) -> None:
        super().__init__(sim, name)
        self.depth = depth
        self.index_width = index_width
        self.wr_en = self.wire("wr_en", 1)
        self.wr_index = self.wire("wr_index", index_width)
        self.wr_label = self.wire("wr_label", LABEL_WIDTH)
        self.wr_op = self.wire("wr_op", OP_WIDTH)
        self.search_en = self.wire("search_en", 1)
        self.search_key = self.wire("search_key", index_width)
        self.match_valid = self.reg("match_valid", 1)
        self.match_label = self.reg("match_label", LABEL_WIDTH)
        self.match_op = self.reg("match_op", OP_WIDTH)
        self.done = self.reg("done", 1)
        self.overflow = self.reg("overflow", 1)
        self._entries: List[Tuple[int, int, int]] = []
        # the store only changes at the edge, where an append wakes the
        # match
        self.reads = (self.search_en, self.search_key)

    @property
    def count(self) -> int:
        return len(self._entries)

    def settle(self) -> None:
        # the parallel match happens combinationally; the result is
        # staged for registration at the edge (1 cycle of latency)
        if self.search_en.value:
            key = self.search_key.value
            hit: Optional[Tuple[int, int, int]] = None
            for entry in self._entries:  # models N comparators at once
                if entry[0] == key:
                    hit = entry
                    break  # priority encoder: lowest index wins
            if hit is None:
                self.match_valid.stage(0)
            else:
                self.match_valid.stage(1)
                self.match_label.stage(hit[1])
                self.match_op.stage(hit[2])
            self.done.stage(1)
        else:
            self.done.stage(0)

    def tick(self) -> None:
        if self.wr_en.value:
            if len(self._entries) >= self.depth:
                self.overflow.stage(1)
                self.overflow.commit()
            else:
                self._entries.append(
                    (
                        self.wr_index.value,
                        self.wr_label.value,
                        self.wr_op.value,
                    )
                )
                self.wake()

    def reset(self) -> None:
        self._entries.clear()

    def dump_pairs(self) -> List[Tuple[int, int, int]]:
        return list(self._entries)


#: bits of each CAM row's match key (a 20-bit label)
INDEX_WIDTH = 20
#: how much of the device's fabric the lookup structure may monopolize;
#: the rest is needed for the control unit, datapath, packet processing
#: and I/O
BUDGET_FRACTION = 0.4


def cam_logic_elements(entries: int) -> int:
    """Estimated logic-element cost of a CAM with ``entries`` rows."""
    return int(entries * INDEX_WIDTH * LES_PER_CAM_BIT)


def cam_fits(entries: int) -> bool:
    """Would the CAM fit in :data:`BUDGET_FRACTION` of the paper
    device's logic?"""
    return cam_logic_elements(entries) <= (
        STRATIX_EP1S40.logic_elements * BUDGET_FRACTION
    )
