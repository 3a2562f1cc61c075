"""The information-base interface state machine (paper Figure 10),
extended with the management operations the paper names.

Enabled by the main FSM for everything that touches the information
base directly:

* ``WRITE PAIR`` -- append a label pair ("Writing a label pair to the
  information base is done through direct manipulation of the data
  path"),
* ``SEARCH ENABLE`` -- delegate a lookup to the search machine,
* ``MODIFY_PAIR`` -- search for an index, then rewrite its label and
  operation in place,
* ``REMOVE_PAIR`` -- search for an index, then delete the pair by
  copying the last stored pair into the hole and decrementing the
  write counter (constant work after the search, preserving the dense
  array the linear search depends on),
* ``READ_ENTRY`` -- read the pair at a caller-supplied address
  directly (the paper's "search index when the user wants to read the
  contents of the information base directly").

Measured cycle costs beyond the paper's Table 6 (asserted in tests):
modify = search + 2, remove = search + 4, miss on either = full scan
+ 1, direct read = 5 fixed.
"""

from __future__ import annotations

from repro.hdl.fsm import FSM
from repro.hdl.simulator import Simulator
from repro.hw.datapath import Datapath
from repro.hw.opcodes import UserOp, address_bits
from repro.hw.search_fsm import SearchFSM

STATES = [
    "IDLE",
    "WRITE_PAIR",
    "SEARCH",
    "SEARCH_MODIFY",
    "MOD_WRITE",
    "SEARCH_REMOVE",
    "RM_READ_LAST",
    "RM_WAIT",
    "RM_WRITE",
    "READ_ADDR",
    "READ_WAIT",
    "MGMT_DONE",
]


class InfoBaseInterfaceFSM(FSM):
    """Figure 10 plus the add/modify/remove/read management path."""

    def __init__(
        self,
        sim: Simulator,
        dp: Datapath,
        search: SearchFSM,
        name: str = "ib_iface",
    ) -> None:
        super().__init__(sim, name, STATES)
        self.dp = dp
        self.search = search
        #: Driven by the main FSM (the paper's ``enableibint``).
        self.enable = self.wire("enable", 1)
        #: Moore/Mealy "last active cycle" indication (``ibready``).
        self.finishing = self.wire("finishing", 1)
        #: Registered done pulse (``dnibupdate``).
        self.done = self.reg("done", 1)
        # -- management results ------------------------------------------
        #: The found/valid flag of the last management operation.
        self.mgmt_found = self.reg("mgmt_found", 1)
        #: Address the search hit (captured for the write-back).
        self.mgmt_addr = self.reg(
            "mgmt_addr", max(11, dp.info_base.depth.bit_length())
        )
        #: Direct-read outputs.
        self.rd_out_index = self.reg("rd_out_index", 32)
        self.rd_out_label = self.reg("rd_out_label", 20)
        self.rd_out_op = self.reg("rd_out_op", 2)
        #: the direct-read address bus: the low bits of the data input
        self._address_mask = (1 << address_bits(dp.info_base.depth)) - 1
        self.reads = (self.enable, search.finishing)

    # -- helpers --------------------------------------------------------
    def _level(self):
        num = self.dp.lat_level.value
        return self.dp.info_base.level(num if num in (1, 2, 3) else 1)

    def _search_key(self) -> int:
        if self.dp.lat_level.value == 1:
            return self.dp.lat_packet_id.value
        return self.dp.lat_label_lookup.value

    def _drive_search(self) -> None:
        self.search.req.drive(1)
        self.search.req_level.drive(self.dp.lat_level.value)
        self.search.req_key.drive(self._search_key())

    def _read_addr(self) -> int:
        """The direct-read address: low bits of the data input."""
        level = self._level()
        return min(self.dp.lat_data.value & self._address_mask, level.depth - 1)

    def _drive_write(self, level) -> None:
        """The pair on the write port: the index from the packet
        identifier (level 1 is keyed by it) or from the index half of
        the 40-bit pair (levels 2-3)."""
        dp = self.dp
        if dp.lat_level.value == 1:
            level.wr_index.drive(dp.lat_packet_id.value)
        else:
            level.wr_index.drive(dp.lat_pair_index)
        level.wr_label.drive(dp.lat_pair_label)
        level.wr_op.drive(dp.lat_op_in.value)

    def _search_then(self, hit: str, here: str) -> str:
        """SEARCH_MODIFY / SEARCH_REMOVE: run the search, capture the
        address it hit for the write-back."""
        self._drive_search()
        if not self.search.finishing.value:
            return here
        if self.search.found.value:
            self.mgmt_found.stage(1)
            self.mgmt_addr.stage(self._level().read_counter.count.value)
            return hit
        self.mgmt_found.stage(0)
        return "MGMT_DONE"

    def _present_last(self) -> None:
        """The last stored pair's address; its registered read is valid
        from RM_WAIT onward."""
        level = self._level()
        level.rd_addr_override.drive(1)
        level.rd_addr_ext.drive(max(0, level.count - 1))

    # -- one handler per state: its drives, its stages, the next state ----
    def on_IDLE(self) -> str:
        self.finishing.drive(0)
        self.done.stage(0)
        if self.enable.value:
            op = self.dp.lat_op.value
            if op == UserOp.WRITE_PAIR:
                return "WRITE_PAIR"
            if op == UserOp.SEARCH:
                return "SEARCH"
            if op == UserOp.MODIFY_PAIR:
                return "SEARCH_MODIFY"
            if op == UserOp.REMOVE_PAIR:
                return "SEARCH_REMOVE"
            if op == UserOp.READ_ENTRY:
                return "READ_ADDR"
        return "IDLE"

    def on_WRITE_PAIR(self) -> str:
        self.finishing.drive(1)
        level = self._level()
        level.wr_en.drive(1)
        self._drive_write(level)
        self.done.stage(1)
        return "IDLE"

    def on_SEARCH(self) -> str:
        # retire on the same edge the search machine does: its done
        # pulse is the transaction's done
        finishing = self.search.finishing.value
        self.finishing.drive(finishing)
        self._drive_search()
        return "IDLE" if finishing else "SEARCH"

    def on_SEARCH_MODIFY(self) -> str:
        self.finishing.drive(0)
        return self._search_then("MOD_WRITE", "SEARCH_MODIFY")

    def on_MOD_WRITE(self) -> str:
        self.finishing.drive(0)
        level = self._level()
        level.wr_en.drive(1)
        level.wr_addr_override.drive(1)
        level.wr_addr_ext.drive(self.mgmt_addr.value)
        self._drive_write(level)
        return "MGMT_DONE"

    def on_SEARCH_REMOVE(self) -> str:
        self.finishing.drive(0)
        return self._search_then("RM_READ_LAST", "SEARCH_REMOVE")

    def on_RM_READ_LAST(self) -> str:
        self.finishing.drive(0)
        self._present_last()
        return "RM_WAIT"

    def on_RM_WAIT(self) -> str:
        self.finishing.drive(0)
        self._present_last()
        return "RM_WRITE"

    def on_RM_WRITE(self) -> str:
        self.finishing.drive(0)
        # copy the last pair into the hole and shrink the count
        level = self._level()
        level.wr_en.drive(1)
        level.wr_addr_override.drive(1)
        level.wr_addr_ext.drive(self.mgmt_addr.value)
        level.wr_index.drive(level.rd_index)
        level.wr_label.drive(level.rd_label)
        level.wr_op.drive(level.rd_op)
        level.count_dec.drive(1)
        return "MGMT_DONE"

    def on_READ_ADDR(self) -> str:
        self.finishing.drive(0)
        level = self._level()
        level.rd_addr_override.drive(1)
        address = self._read_addr()
        level.rd_addr_ext.drive(address)
        self.mgmt_found.stage(1 if address < level.count else 0)
        return "READ_WAIT"

    def on_READ_WAIT(self) -> str:
        self.finishing.drive(0)
        level = self._level()
        level.rd_addr_override.drive(1)
        level.rd_addr_ext.drive(self._read_addr())
        self.rd_out_index.stage(level.rd_index)
        self.rd_out_label.stage(level.rd_label)
        self.rd_out_op.stage(level.rd_op)
        return "MGMT_DONE"

    def on_MGMT_DONE(self) -> str:
        self.finishing.drive(1)
        self.done.stage(1)
        return "IDLE"
