"""The information base (paper Figures 12 and 13).

Label pairs are stored per stack level.  Each level owns three memory
components (Figure 13):

* an **index** component -- the lookup key.  Level 1 is keyed by the
  32-bit packet identifier; levels 2 and 3 are keyed by a 20-bit label
  ("the packet identifier is 32 bits while a label is 20 bits so the
  memory for level 1 must have different index memory than levels 2
  and 3"),
* a **label** component (20 bits) -- the new label value,
* an **operation** component (2 bits) -- push / pop / swap / no-op.

Each component holds 1 K entries ("Each memory component supports 1 KB
of label pairs").  Counters address the memories: the write counter
doubles as the count of stored pairs (the paper's ``w_index``), and the
read counter steps through entries during a search (``r_index``).

Writes append at ``w_index``; a write to a full level is dropped and a
sticky ``overflow`` flag is raised.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hdl.counter import Counter
from repro.hdl.memory import SyncMemory
from repro.hdl.simulator import Component, Simulator

#: Entries per level ("1 KB long" in Figure 13).
LEVEL_DEPTH = 1024

#: Index widths per level (packet identifier vs label).
LEVEL1_INDEX_WIDTH = 32
LABEL_INDEX_WIDTH = 20

LABEL_WIDTH = 20
OP_WIDTH = 2


class InfoBaseLevel(Component):
    """One level of the information base: index + label + op memories
    and the read/write address counters."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        index_width: int,
        depth: int = LEVEL_DEPTH,
    ) -> None:
        super().__init__(sim, name)
        self.depth = depth
        self.index_width = index_width
        self.index_mem = SyncMemory(sim, f"{name}.index", depth, index_width)
        self.label_mem = SyncMemory(sim, f"{name}.label", depth, LABEL_WIDTH)
        self.op_mem = SyncMemory(sim, f"{name}.op", depth, OP_WIDTH)
        # Write counter: the paper's w_index.  Width +1 so the count can
        # reach the full depth.
        self.write_counter = Counter(
            sim, f"{name}.w_index", width=depth.bit_length()
        )
        # Read counter: the paper's r_index.
        self.read_counter = Counter(
            sim, f"{name}.r_index", width=depth.bit_length()
        )
        # Inputs, driven by the control unit.
        self.wr_en = self.wire("wr_en", 1)
        self.wr_index = self.wire("wr_index", index_width)
        self.wr_label = self.wire("wr_label", LABEL_WIDTH)
        self.wr_op = self.wire("wr_op", OP_WIDTH)
        # Management extensions ("Entries can be added, modified, or
        # removed from the information base"): when ``wr_addr_override``
        # is high the write lands at ``wr_addr_ext`` instead of
        # appending at w_index, and the write counter does not
        # increment (an in-place modify).  ``count_dec`` decrements the
        # write counter (entry removal).
        self.wr_addr_override = self.wire("wr_addr_override", 1)
        self.wr_addr_ext = self.wire("wr_addr_ext", depth.bit_length())
        self.count_dec = self.wire("count_dec", 1)
        # Direct read path ("a search index when the user wants to read
        # the contents of the information base directly"): overrides
        # the read counter as the read address.
        self.rd_addr_override = self.wire("rd_addr_override", 1)
        self.rd_addr_ext = self.wire("rd_addr_ext", depth.bit_length())
        # Sticky overflow flag.
        self.overflow = self.reg("overflow", 1)
        #: the registers a reader of this level sees: the read data of
        #: the three memories, r_index and w_index
        self.outputs = (
            self.index_mem.rd_data, self.label_mem.rd_data, self.op_mem.rd_data,
            self.read_counter.count, self.write_counter.count,
        )
        self.reads = (
            self.wr_en, self.wr_index, self.wr_label, self.wr_op,
            self.wr_addr_override, self.wr_addr_ext, self.count_dec,
            self.rd_addr_override, self.rd_addr_ext,
            self.read_counter.count, self.write_counter.count,
        )

    @property
    def count(self) -> int:
        """Number of stored pairs (the write counter's value)."""
        return self.write_counter.count.value

    def settle(self) -> None:
        # each signal is read once
        index_mem, label_mem, op_mem = self.index_mem, self.label_mem, self.op_mem
        depth, last = self.depth, self.depth - 1
        wr_en = self.wr_en.value
        override = self.wr_addr_override.value
        count = self.write_counter.count.value
        appending = bool(wr_en) and not override
        if appending and count >= depth:
            self.overflow.stage(1)
            appending = False
        writing = 1 if appending or (wr_en and override) else 0
        # Route the write to all three memory components: appends land
        # at w_index, in-place modifications at the external address.
        index_mem.wr_en.drive(writing)
        label_mem.wr_en.drive(writing)
        op_mem.wr_en.drive(writing)
        if writing:
            addr = min(self.wr_addr_ext.value, last) if override else count
            index_mem.wr_addr.drive(addr)
            index_mem.wr_data.drive(self.wr_index.value)
            label_mem.wr_addr.drive(addr)
            label_mem.wr_data.drive(self.wr_label.value)
            op_mem.wr_addr.drive(addr)
            op_mem.wr_data.drive(self.wr_op.value)
        # The write counter increments alongside a successful append
        # and decrements on removal; modify leaves it unchanged.
        if self.count_dec.value and count > 0:
            self.write_counter.en.drive(1)
            self.write_counter.down.drive(1)
        else:
            self.write_counter.en.drive(1 if appending else 0)
        # The read counter (r_index) is the shared read address of the
        # three components, as in Figure 13 -- unless the management
        # path overrides it for a direct read.
        if self.rd_addr_override.value:
            addr = min(self.rd_addr_ext.value, last)
        else:
            addr = min(self.read_counter.count.value, last)
        index_mem.rd_addr.drive(addr)
        label_mem.rd_addr.drive(addr)
        op_mem.rd_addr.drive(addr)

    # -- registered read outputs (1-cycle latency) ----------------------------
    @property
    def rd_index(self) -> int:
        return self.index_mem.rd_data.value

    @property
    def rd_label(self) -> int:
        return self.label_mem.rd_data.value

    @property
    def rd_op(self) -> int:
        return self.op_mem.rd_data.value

    def load_pairs(self, pairs: List[Tuple[int, int, int]]) -> None:
        """Bulk-load the level with (index, label, op) triples.

        The double-buffered bank-swap path: the driver assembled the
        pairs in a shadow bank and flips them in wholesale -- memories
        are written through the backdoor port and the write counter is
        parallel-loaded, all within the single swap cycle.  Loading
        beyond the memory depth truncates and raises the sticky
        overflow flag, as an append past the end would.
        """
        if len(pairs) > self.depth:
            pairs = pairs[: self.depth]
            self.overflow.force(1)
        for address, (index, label, op) in enumerate(pairs):
            self.index_mem.poke(address, index)
            self.label_mem.poke(address, label)
            self.op_mem.poke(address, op)
        self.write_counter.count.force(len(pairs))

    # -- test/debug backdoor ------------------------------------------------
    def dump_pairs(self) -> List[Tuple[int, int, int]]:
        """(index, label, op) triples for the stored pairs."""
        return [
            (
                self.index_mem.peek(i),
                self.label_mem.peek(i),
                self.op_mem.peek(i),
            )
            for i in range(self.count)
        ]


class InfoBase(Component):
    """The three-level information base.

    Level selection (the paper's ``level`` signal, values 1-3) routes
    writes and read addresses; read data is taken from the selected
    level by the control unit.
    """

    def __init__(self, sim: Simulator, name: str, depth: int = LEVEL_DEPTH) -> None:
        super().__init__(sim, name)
        self.depth = depth
        self.levels = (
            InfoBaseLevel(sim, f"{name}.l1", LEVEL1_INDEX_WIDTH, depth),
            InfoBaseLevel(sim, f"{name}.l2", LABEL_INDEX_WIDTH, depth),
            InfoBaseLevel(sim, f"{name}.l3", LABEL_INDEX_WIDTH, depth),
        )
        #: every level's :attr:`InfoBaseLevel.outputs`
        self.outputs = tuple(r for level in self.levels for r in level.outputs)

    def level(self, number: int) -> InfoBaseLevel:
        """Level by its paper-facing number (1, 2 or 3)."""
        if number not in (1, 2, 3):
            raise ValueError(f"{self.name}: level must be 1..3, got {number}")
        return self.levels[number - 1]

    def counts(self) -> Tuple[int, int, int]:
        return tuple(level.count for level in self.levels)  # type: ignore[return-value]
