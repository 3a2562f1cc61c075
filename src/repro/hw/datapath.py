"""The label stack modifier's datapath (Figure 12).

Holds every storage and arithmetic element of the design:

* the label :class:`~repro.hw.stack.HardwareStack`,
* the three-level :class:`~repro.hw.info_base.InfoBase`,
* the **entry register** holding the label entry currently being
  modified ("label stack entries can be stored from ... a register that
  holds the label entry currently being modified"),
* the **TTL counter** that decrements the entry's TTL,
* the three equality comparators (32-bit packet-identifier compare,
  20-bit label compare, 10-bit index compare),
* the **input latches** that capture the user's command operands when
  the main FSM accepts an operation (the paper's "Data in / Data type /
  Packet identifier / Stack level" inputs).

Source-selection multiplexers of Figure 12 (CoS-bits source, TTL
source, new-entry label source, index source) are realized in the
control FSMs' drive logic; each is documented at its point of use.
"""

from __future__ import annotations

from repro.hdl.comparator import EqualityComparator
from repro.hdl.counter import Counter
from repro.hdl.register import Register
from repro.hdl.simulator import Component, Simulator
from repro.hw.info_base import LEVEL_DEPTH, InfoBase
from repro.hw.stack import ENTRY_WIDTH, HardwareStack
from repro.mpls import label as labelmod

#: Width of the external data input: a 40-bit label pair (two 20-bit
#: labels); narrower payloads use the least significant bits.
DATA_IN_WIDTH = 40


def entry_fields(word: int) -> tuple:
    """Split a 32-bit stack entry word into (label, cos, s, ttl)."""
    return (
        (word >> 12) & labelmod.LABEL_MAX,
        (word >> 9) & 0x7,
        (word >> 8) & 0x1,
        word & 0xFF,
    )


def make_entry(label: int, cos: int, s: int, ttl: int) -> int:
    """Assemble a 32-bit stack entry word."""
    return ((label & labelmod.LABEL_MAX) << 12) | ((cos & 7) << 9) | ((s & 1) << 8) | (ttl & 0xFF)


class Datapath(Component):
    """All storage and arithmetic of the label stack modifier."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "dp",
        ib_depth: int = LEVEL_DEPTH,
    ) -> None:
        super().__init__(sim, name)
        self.stack = HardwareStack(sim, f"{name}.stack")
        self.info_base = InfoBase(sim, f"{name}.ib", depth=ib_depth)
        # The register holding the entry being modified.
        self.entry_reg = Register(sim, f"{name}.entry", width=ENTRY_WIDTH)
        # The TTL decrement counter ("COUNTER TTL" in Figure 12).
        self.ttl_counter = Counter(sim, f"{name}.ttl", width=8)
        # The three comparators of Figure 12.
        self.cmp32 = EqualityComparator(sim, f"{name}.cmp32", width=32)
        self.cmp20 = EqualityComparator(sim, f"{name}.cmp20", width=20)
        self.cmp10 = EqualityComparator(
            sim, f"{name}.cmp10", width=max(10, ib_depth.bit_length())
        )

        # -- raw user inputs (sampled into latches when a command is
        # accepted; the driver only needs to hold them for one cycle).
        self.operation = self.wire("operation", 4)        # extoperation
        self.data_in = self.wire("data_in", DATA_IN_WIDTH)
        self.packet_id = self.wire("packet_id", 32)       # packetid
        self.label_lookup = self.wire("label_lookup", 20)
        self.op_in = self.wire("op_in", 2)                # operation_in
        self.level_in = self.wire("level_in", 2)          # level
        self.ttl_in = self.wire("ttl_in", 8)
        self.cos_in = self.wire("cos_in", 3)
        # Router type is configuration, not per-command data (Table 3:
        # "logic low is interpreted as LER ... logic high as LSR").
        self.rtrtype = self.wire("rtrtype", 1)

        # -- command latches (committed at the accept edge).
        self.lat_op = self.reg("lat_op", 4)
        self.lat_data = self.reg("lat_data", DATA_IN_WIDTH)
        self.lat_packet_id = self.reg("lat_packet_id", 32)
        self.lat_label_lookup = self.reg("lat_label_lookup", 20)
        self.lat_op_in = self.reg("lat_op_in", 2)
        self.lat_level = self.reg("lat_level", 2)
        self.lat_ttl = self.reg("lat_ttl", 8)
        self.lat_cos = self.reg("lat_cos", 3)

        #: Driven by the main FSM while it is idle and a command is
        #: pending; tells this component to capture the inputs.
        self.capture = self.wire("capture", 1)
        self.reads = (
            self.capture, self.operation, self.data_in, self.packet_id,
            self.label_lookup, self.op_in, self.level_in, self.ttl_in,
            self.cos_in,
        )

    def settle(self) -> None:
        if self.capture.value:
            self.lat_op.stage(self.operation.value)
            self.lat_data.stage(self.data_in.value)
            self.lat_packet_id.stage(self.packet_id.value)
            self.lat_label_lookup.stage(self.label_lookup.value)
            self.lat_op_in.stage(self.op_in.value)
            self.lat_level.stage(self.level_in.value)
            self.lat_ttl.stage(self.ttl_in.value)
            self.lat_cos.stage(self.cos_in.value)

    # -- convenient views of the latched label pair --------------------------
    @property
    def lat_pair_index(self) -> int:
        """The index half of the latched 40-bit label pair (bits 39:20)."""
        return (self.lat_data.value >> 20) & labelmod.LABEL_MAX

    @property
    def lat_pair_label(self) -> int:
        """The label half of the latched pair (bits 19:0)."""
        return self.lat_data.value & labelmod.LABEL_MAX

    @property
    def lat_entry_word(self) -> int:
        """The low 32 bits of the latched data: a stack entry word."""
        return self.lat_data.value & 0xFFFFFFFF
