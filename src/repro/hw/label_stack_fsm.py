"""The label-stack interface state machine (paper Figure 9).

Owns every mutation of the label stack:

* direct pushes and pops commanded by the user (``USER PUSH`` /
  ``USER POP``),
* the full *update* flow: enable the search machine over the
  information base, then -- on success -- remove the top entry, update
  the TTL, verify the stored operation for consistency, and perform the
  stored push / swap / pop; on any failure (no pair found, expired TTL,
  inconsistent operation) discard the packet by resetting the stack,
  exactly as the paper describes ("The packet is discarded (i.e. the
  label stack is reset)").

State-to-paper mapping: SEARCH_ENABLE is Figure 9's "SEARCH ENABLE",
GET_RESULT the result-capture cycle, REMOVE_TOP / UPDATE_TTL /
VERIFY_INFO / UPDATE_TOP / PUSH_OLD / PUSH_NEW carry the paper's state
names, DISCARD is "DISCARD PACKET", and DONE is the completion
handshake back to the main FSM.

Cycle costs by construction: user push/pop complete in 3 cycles; the
information-base-driven swap and pop cost 6 cycles beyond the search;
the push costs 7 (it visits both PUSH_OLD and PUSH_NEW); a discard
after verification costs 5.
"""

from __future__ import annotations

from repro.hdl.fsm import FSM
from repro.hdl.simulator import Simulator
from repro.hw.datapath import Datapath, entry_fields, make_entry
from repro.hw.opcodes import StackOp, UserOp
from repro.hw.search_fsm import SearchFSM
from repro.mpls.label import LabelOp

STATES = [
    "IDLE",
    "USER_PUSH",
    "USER_POP",
    "SEARCH_ENABLE",
    "GET_RESULT",
    "REMOVE_TOP",
    "UPDATE_TTL",
    "VERIFY_INFO",
    "UPDATE_TOP",   # pop: rewrite the newly exposed top's TTL
    "PUSH_OLD",     # push: restore the old top under the new entry
    "PUSH_NEW",     # push/swap: insert the new entry
    "DISCARD",
    "DONE",
]

#: Maximum nested LSP levels the architecture supports (three
#: information-base levels -> three stack entries).
MAX_LEVELS = 3


class LabelStackInterfaceFSM(FSM):
    """Figure 9, plus the result/handshake cycles that give the Table 6
    cycle counts."""

    def __init__(
        self,
        sim: Simulator,
        dp: Datapath,
        search: SearchFSM,
        name: str = "lbl_iface",
    ) -> None:
        super().__init__(sim, name, STATES)
        self.dp = dp
        self.search = search
        #: Driven by the main FSM (``enablelblint``).
        self.enable = self.wire("enable", 1)
        #: "Last active cycle" indication (``lblstckready``).
        self.finishing = self.wire("finishing", 1)
        #: Registered done pulse (``donelblupdt``).
        self.done = self.reg("done", 1)
        #: Registered discard pulse (``pktdcrd``).
        self.discard = self.reg("discard", 1)
        #: Whether the stack was empty when the update began (the LER
        #: ingress case, where the packet identifier keys level 1).
        self.was_empty = self.reg("was_empty", 1)
        #: Stack depth at the start of the update (for overflow checks).
        self.orig_size = self.reg("orig_size", 4)
        #: The operation the update actually performed (a LabelOp code),
        #: plus a validity flag.
        self.performed = self.reg("performed", 2)
        self.performed_valid = self.reg("performed_valid", 1)
        self.reads = (
            self.enable, search.finishing, dp.rtrtype,
            search.found, search.label_out, search.op_out,
            self.was_empty, self.orig_size,
            dp.lat_op, dp.lat_data, dp.lat_packet_id, dp.lat_ttl, dp.lat_cos,
            dp.stack.top, dp.stack.size, dp.entry_reg.q, dp.ttl_counter.count,
        )

    # -- search request (the update path's key/level selection) -----------
    def _drive_search_request(self) -> None:
        """Level and key come from the stack when it is non-empty (an
        LSR or a nested LER level), or from the packet identifier at
        level 1 when it is empty (LER ingress) -- the paper's
        ``level_source`` / ``indexsource`` muxes."""
        self.search.req.drive(1)
        size = self.dp.stack.size.value
        if size == 0:
            self.search.req_level.drive(1)
            self.search.req_key.drive(self.dp.lat_packet_id.value)
        else:
            label, _cos, _s, _ttl = entry_fields(self.dp.stack.top.value)
            self.search.req_level.drive(min(size, MAX_LEVELS))
            self.search.req_key.drive(label)

    # -- verification -------------------------------------------------------
    def _verify_fails(self) -> bool:
        """The VERIFY INFO checks: expired TTL or an inconsistent
        stored operation discard the packet."""
        dp = self.dp
        _label, _cos, _s, old_ttl = entry_fields(dp.entry_reg.q.value)
        op = self.search.op_out.value
        if old_ttl == 0 or dp.ttl_counter.count.value == 0:
            return True  # TTL expired
        if op == LabelOp.NOOP:
            return True  # no stored operation: inconsistent
        if self.was_empty.value and op != LabelOp.PUSH:
            return True  # only a push can act on an empty stack
        if self.was_empty.value and dp.rtrtype.value == 1:
            return True  # a core LSR must never see an empty stack
        if op == LabelOp.PUSH and self.orig_size.value >= MAX_LEVELS:
            return True  # deeper than the supported levels
        return False

    # -- one handler per state: its drives, its stages, the next state ----
    def on_IDLE(self) -> str:
        self.finishing.drive(0)
        self.done.stage(0)
        self.discard.stage(0)
        if self.enable.value:
            op = self.dp.lat_op.value
            if op == UserOp.USER_PUSH:
                return "USER_PUSH"
            if op == UserOp.USER_POP:
                return "USER_POP"
            if op == UserOp.UPDATE:
                self.performed_valid.stage(0)
                return "SEARCH_ENABLE"
        return "IDLE"

    def on_USER_PUSH(self) -> str:
        dp = self.dp
        self.finishing.drive(1)
        dp.stack.op.drive(StackOp.PUSH)
        dp.stack.data_in.drive(dp.lat_entry_word)
        self.done.stage(1)
        return "IDLE"

    def on_USER_POP(self) -> str:
        self.finishing.drive(1)
        self.dp.stack.op.drive(StackOp.POP)
        self.done.stage(1)
        return "IDLE"

    def on_SEARCH_ENABLE(self) -> str:
        self.finishing.drive(0)
        self._drive_search_request()
        return "GET_RESULT" if self.search.finishing.value else "SEARCH_ENABLE"

    def on_GET_RESULT(self) -> str:
        self.finishing.drive(0)
        size = self.dp.stack.size.value
        self.was_empty.stage(1 if size == 0 else 0)
        self.orig_size.stage(size)
        return "REMOVE_TOP" if self.search.found.value else "DISCARD"

    def on_REMOVE_TOP(self) -> str:
        dp = self.dp
        self.finishing.drive(0)
        if dp.stack.size.value > 0:
            # pop the entry being modified into the entry register
            # and load its TTL into the TTL counter (``ttlsource`` =
            # stack entry)
            dp.stack.op.drive(StackOp.POP)
            dp.entry_reg.en.drive(1)
            dp.entry_reg.d.drive(dp.stack.top.value)
            _label, _cos, _s, ttl = entry_fields(dp.stack.top.value)
            dp.ttl_counter.load.drive(1)
            dp.ttl_counter.load_value.drive(ttl)
        else:
            # LER ingress: no entry to remove; the TTL and CoS come
            # from the control path (``ttlsource``/``cosbitssrc`` =
            # control path)
            dp.entry_reg.en.drive(1)
            dp.entry_reg.d.drive(
                make_entry(0, dp.lat_cos.value, 0, dp.lat_ttl.value)
            )
            dp.ttl_counter.load.drive(1)
            dp.ttl_counter.load_value.drive(dp.lat_ttl.value)
        return "UPDATE_TTL"

    def on_UPDATE_TTL(self) -> str:
        self.finishing.drive(0)
        self.dp.ttl_counter.en.drive(1)
        self.dp.ttl_counter.down.drive(1)
        return "VERIFY_INFO"

    def on_VERIFY_INFO(self) -> str:
        self.finishing.drive(0)
        if self._verify_fails():
            return "DISCARD"
        op = self.search.op_out.value
        self.performed.stage(op)
        self.performed_valid.stage(1)
        if op == LabelOp.POP:
            return "UPDATE_TOP"
        if op == LabelOp.PUSH and not self.was_empty.value:
            return "PUSH_OLD"
        return "PUSH_NEW"  # swap, or push onto empty stack

    def on_UPDATE_TOP(self) -> str:
        dp = self.dp
        self.finishing.drive(0)
        if dp.stack.size.value > 0:
            # rewrite the newly exposed top with the decremented TTL
            word = dp.stack.top.value
            dp.stack.op.drive(StackOp.WRITE_TOP)
            dp.stack.data_in.drive((word & ~0xFF) | dp.ttl_counter.count.value)
        return "DONE"

    def on_PUSH_OLD(self) -> str:
        dp = self.dp
        self.finishing.drive(0)
        # restore the old entry beneath the new one, TTL updated
        word = dp.entry_reg.q.value
        dp.stack.op.drive(StackOp.PUSH)
        dp.stack.data_in.drive((word & ~0xFF) | dp.ttl_counter.count.value)
        return "PUSH_NEW"

    def on_PUSH_NEW(self) -> str:
        dp = self.dp
        self.finishing.drive(0)
        # the new entry: label from the information base
        # (``newlblsrc`` = memory), CoS preserved from the entry
        # register, TTL from the counter, S bit computed from the
        # current stack occupancy
        _label, cos, _s, _ttl = entry_fields(dp.entry_reg.q.value)
        s_bit = 1 if dp.stack.size.value == 0 else 0
        dp.stack.op.drive(StackOp.PUSH)
        dp.stack.data_in.drive(
            make_entry(
                self.search.label_out.value,
                cos,
                s_bit,
                dp.ttl_counter.count.value,
            )
        )
        return "DONE"

    def on_DISCARD(self) -> str:
        self.finishing.drive(1)
        # "the label stack is reset"
        self.dp.stack.op.drive(StackOp.CLEAR)
        self.done.stage(1)
        self.discard.stage(1)
        return "IDLE"

    def on_DONE(self) -> str:
        self.finishing.drive(1)
        self.done.stage(1)
        return "IDLE"
