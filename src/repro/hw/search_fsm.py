"""The search state machine (paper Figure 11).

Iterates the read counter of the selected information-base level
through the stored label pairs, comparing each index against the search
key with the datapath comparators.  The search costs exactly three
cycles per entry examined (present address / wait for the registered
read / compare), plus fixed overhead -- giving the ``3n + 5`` worst
case of Table 6 once the enable handshake is included.

Interface:

* request inputs (held by the enabling state machine until the search
  finishes): ``req``, ``req_level`` (1-3), ``req_key`` (32 bits; only
  the low 20 matter for levels 2-3);
* registered outputs: ``found``, ``label_out``, ``op_out`` (valid once
  ``done`` pulses and until the next search), ``done`` (the paper's
  ``lookup_done`` / ``searchdone`` one-cycle pulse), ``miss`` (pulse
  aligned with ``done`` when nothing matched -- feeding the
  ``packetdiscard`` output of Figure 16);
* the Moore output ``finishing`` (the last active cycle), which lets
  the enabling FSM retire on the same edge.
"""

from __future__ import annotations

from repro.hdl.fsm import FSM
from repro.hdl.simulator import Simulator
from repro.hw.datapath import Datapath

STATES = [
    "IDLE",
    "BEGIN",       # clear r_index, latch the key and level
    "READ",        # present the read address ("READ INFO BASE")
    "WAIT",        # registered read completes ("WAIT FOR READ VALUE")
    "COMPARE",     # compare index against the key ("COMPARE VALUES")
    "FOUND",       # delay so the values can appear ("WAIT FOR INFO")
    "MISS",        # exhausted without a match
]


class SearchFSM(FSM):
    """Figure 11, with the 3-cycles-per-entry read loop."""

    def __init__(self, sim: Simulator, dp: Datapath, name: str = "search") -> None:
        super().__init__(sim, name, STATES)
        self.dp = dp
        # request interface
        self.req = self.wire("req", 1)
        self.req_level = self.wire("req_level", 2)
        self.req_key = self.wire("req_key", 32)
        # latched request
        self.key = self.reg("key", 32)
        self.level_num = self.reg("level_num", 2, default=1)
        # outputs
        self.found = self.reg("found", 1)
        self.label_out = self.reg("label_out", 20)
        self.op_out = self.reg("op_out", 2)
        self.done = self.reg("done", 1)
        self.miss = self.reg("miss", 1)
        self.finishing = self.wire("finishing", 1)
        self.reads = (
            self.req, self.req_level, self.req_key,
            dp.cmp32.eq, dp.cmp20.eq, dp.cmp10.eq,
            self.key, self.level_num, *dp.info_base.outputs,
        )

    # -- helpers --------------------------------------------------------
    def _level(self):
        num = self.level_num.value
        return self.dp.info_base.level(num if num in (1, 2, 3) else 1)

    # -- one handler per state: its drives, its stages, the next state ----
    def on_IDLE(self) -> str:
        self.finishing.drive(0)
        if self.req.value:
            self.key.stage(self.req_key.value)
            self.level_num.stage(
                self.req_level.value if self.req_level.value in (1, 2, 3) else 1
            )
            self.done.stage(0)
            self.miss.stage(0)
            self.found.stage(0)
            return "BEGIN"
        self.done.stage(0)
        self.miss.stage(0)
        return "IDLE"

    def on_BEGIN(self) -> str:
        self.finishing.drive(0)
        # models the index-source mux selecting the search key and
        # the read counter's synchronous clear
        level = self._level()
        level.read_counter.clear.drive(1)
        return "MISS" if level.count == 0 else "READ"

    def on_READ(self) -> str:
        # the level presents r_index to its memories every cycle;
        # nothing to drive beyond waiting for the registered read
        self.finishing.drive(0)
        return "WAIT"

    def on_WAIT(self) -> str:
        self.finishing.drive(0)
        return "COMPARE"

    def on_COMPARE(self) -> str:
        self.finishing.drive(0)
        dp = self.dp
        level = self._level()
        # key comparison through the datapath comparators: the
        # 32-bit comparator for packet identifiers (level 1), the
        # 20-bit comparator for labels (levels 2-3)
        if self.level_num.value == 1:
            cmp = dp.cmp32
            cmp.a.drive(self.key.value)
        else:
            cmp = dp.cmp20
            cmp.a.drive(self.key.value & 0xFFFFF)
        cmp.b.drive(level.rd_index)
        # exhaustion test on the 10-bit index comparator:
        # r_index == w_index - 1 means this was the last stored pair
        dp.cmp10.a.drive(level.read_counter.count.value)
        dp.cmp10.b.drive(max(0, level.count - 1))
        if cmp.eq.value:
            self.found.stage(1)
            self.label_out.stage(level.rd_label)
            self.op_out.stage(level.rd_op)
            return "FOUND"
        if dp.cmp10.eq.value:
            self.found.stage(0)
            return "MISS"
        level.read_counter.en.drive(1)
        return "READ"

    def on_FOUND(self) -> str:
        self.finishing.drive(1)
        self.done.stage(1)
        return "IDLE"

    def on_MISS(self) -> str:
        self.finishing.drive(1)
        self.done.stage(1)
        self.miss.stage(1)
        return "IDLE"
