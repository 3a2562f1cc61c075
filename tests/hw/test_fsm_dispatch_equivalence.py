"""Differential tests for the per-state dispatch of the four control FSMs.

The oracle is the machines as they were before a state became a method:
``output()`` and ``transition()`` walking an ``if state == "..."`` chain,
settled by the ``FSM.settle`` of that commit.  The bodies below are those
of the parent commit, verbatim; they exist only in this file.  The
label-stack modifier is built twice, once on each set of machines, and
driven by the same transaction sequence; every observable must agree:

* per settle pass, every ``Wire.drive`` and ``Reg.stage`` *call* -- the
  signal, the value, the order -- so a handler makes exactly the drives
  its state's ``output()`` made, every default drive included (a dropped
  ``finishing.drive(0)`` changes no value today: the wire sits at its
  default; it is the next override that would let an earlier pass's
  value stand, which is why the calls themselves are compared);
* per cycle, every machine's ``state_name``, every signal of the design
  (so the VCD bytes) and the number of settle passes;
* per transaction, the cycle count and the result.
"""

import filecmp
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hdl.fsm import State
from repro.hdl.signal import Reg, Wire
from repro.hdl.simulator import Component
from repro.hdl.waveform import WaveformRecorder, dump_vcd
from repro.hw.driver import ModifierDriver
from repro.hw.datapath import entry_fields, make_entry
from repro.hw.info_base_fsm import InfoBaseInterfaceFSM
from repro.hw.label_stack_fsm import LabelStackInterfaceFSM
from repro.hw.main_fsm import _IB_OPS, _LBL_OPS, MainFSM
from repro.hw.opcodes import StackOp, UserOp
from repro.hw.search_fsm import SearchFSM
from repro.mpls.label import LabelEntry, LabelOp
from tests.strategies.hw import apply_op, op_step


# -- the oracle: the machines before a state was a method ----------------------
class IfChain:
    """``FSM.settle`` of the parent commit: the machine's own handlers
    are never consulted."""

    def settle(self) -> None:
        self.output()
        nxt = self.transition()
        if not isinstance(nxt, State):
            raise TypeError(
                f"{self.name}.transition() must return a State, got {nxt!r}"
            )
        if nxt.code != self._state_reg.value:
            self._state_reg.stage(nxt.code)


class IfChainMainFSM(IfChain, MainFSM):
    def output(self) -> None:
        state = self.state_name
        if state == "IDLE":
            # capture the operands the moment a command appears
            if self.dp.operation.value != UserOp.NONE:
                self.dp.capture.drive(1)
        elif state == "LBL_ACTIVE":
            self.lbl_iface.enable.drive(1)
        elif state == "IB_ACTIVE":
            self.ib_iface.enable.drive(1)

    def transition(self) -> State:
        state = self.state_name
        if state == "IDLE":
            op = self.dp.operation.value
            if op in _LBL_OPS:
                return self.s("LBL_ACTIVE")
            if op in _IB_OPS:
                return self.s("IB_ACTIVE")
            return self.s("IDLE")
        if state == "LBL_ACTIVE":
            # retire on the same edge as the interface machine
            if self.lbl_iface.finishing.value:
                return self.s("IDLE")
            return self.s("LBL_ACTIVE")
        # IB_ACTIVE
        if self.ib_iface.finishing.value:
            return self.s("IDLE")
        return self.s("IB_ACTIVE")


class IfChainSearchFSM(IfChain, SearchFSM):
    def output(self) -> None:
        self.finishing.drive(
            1 if self.in_state("FOUND") or self.in_state("MISS") else 0
        )
        state = self.state_name
        if state == "BEGIN":
            # models the index-source mux selecting the search key and
            # the read counter's synchronous clear
            self._level().read_counter.clear.drive(1)
        elif state == "COMPARE":
            level = self._level()
            # key comparison through the datapath comparators: the
            # 32-bit comparator for packet identifiers (level 1), the
            # 20-bit comparator for labels (levels 2-3)
            if self.level_num.value == 1:
                self.dp.cmp32.a.drive(self.key.value)
                self.dp.cmp32.b.drive(level.rd_index)
            else:
                self.dp.cmp20.a.drive(self.key.value & 0xFFFFF)
                self.dp.cmp20.b.drive(level.rd_index)
            # exhaustion test on the 10-bit index comparator:
            # r_index == w_index - 1 means this was the last stored pair
            self.dp.cmp10.a.drive(level.read_counter.count.value)
            self.dp.cmp10.b.drive(max(0, level.count - 1))

    def transition(self) -> State:
        state = self.state_name
        if state == "IDLE":
            if self.req.value:
                self.key.stage(self.req_key.value)
                self.level_num.stage(
                    self.req_level.value if self.req_level.value in (1, 2, 3) else 1
                )
                self.done.stage(0)
                self.miss.stage(0)
                self.found.stage(0)
                return self.s("BEGIN")
            self.done.stage(0)
            self.miss.stage(0)
            return self.s("IDLE")

        if state == "BEGIN":
            if self._level().count == 0:
                return self.s("MISS")
            return self.s("READ")

        if state == "READ":
            # the level presents r_index to its memories every cycle;
            # nothing to drive beyond waiting for the registered read
            return self.s("WAIT")

        if state == "WAIT":
            return self.s("COMPARE")

        if state == "COMPARE":
            level = self._level()
            matched = (
                self.dp.cmp32.eq.value
                if self.level_num.value == 1
                else self.dp.cmp20.eq.value
            )
            if matched:
                self.found.stage(1)
                self.label_out.stage(level.rd_label)
                self.op_out.stage(level.rd_op)
                return self.s("FOUND")
            if self.dp.cmp10.eq.value:
                self.found.stage(0)
                return self.s("MISS")
            level.read_counter.en.drive(1)
            return self.s("READ")

        if state == "FOUND":
            self.done.stage(1)
            return self.s("IDLE")

        # MISS
        self.done.stage(1)
        self.miss.stage(1)
        return self.s("IDLE")


class IfChainLabelStackInterfaceFSM(IfChain, LabelStackInterfaceFSM):
    # -- outputs per state ------------------------------------------------
    def output(self) -> None:
        state = self.state_name
        dp = self.dp
        self.finishing.drive(
            1
            if state in ("USER_PUSH", "USER_POP", "DONE", "DISCARD")
            else 0
        )
        if state == "USER_PUSH":
            dp.stack.op.drive(StackOp.PUSH)
            dp.stack.data_in.drive(dp.lat_entry_word)
        elif state == "USER_POP":
            dp.stack.op.drive(StackOp.POP)
        elif state == "SEARCH_ENABLE":
            self._drive_search_request()
        elif state == "REMOVE_TOP":
            size = dp.stack.size.value
            if size > 0:
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
        elif state == "UPDATE_TTL":
            dp.ttl_counter.en.drive(1)
            dp.ttl_counter.down.drive(1)
        elif state == "UPDATE_TOP":
            if dp.stack.size.value > 0:
                # rewrite the newly exposed top with the decremented TTL
                word = dp.stack.top.value
                dp.stack.op.drive(StackOp.WRITE_TOP)
                dp.stack.data_in.drive(
                    (word & ~0xFF) | dp.ttl_counter.count.value
                )
        elif state == "PUSH_OLD":
            # restore the old entry beneath the new one, TTL updated
            word = dp.entry_reg.q.value
            dp.stack.op.drive(StackOp.PUSH)
            dp.stack.data_in.drive(
                (word & ~0xFF) | dp.ttl_counter.count.value
            )
        elif state == "PUSH_NEW":
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
        elif state == "DISCARD":
            # "the label stack is reset"
            dp.stack.op.drive(StackOp.CLEAR)

    # -- transitions -------------------------------------------------------
    def transition(self) -> State:
        state = self.state_name
        if state == "IDLE":
            self.done.stage(0)
            self.discard.stage(0)
            if self.enable.value:
                op = self.dp.lat_op.value
                if op == UserOp.USER_PUSH:
                    return self.s("USER_PUSH")
                if op == UserOp.USER_POP:
                    return self.s("USER_POP")
                if op == UserOp.UPDATE:
                    self.performed_valid.stage(0)
                    return self.s("SEARCH_ENABLE")
            return self.s("IDLE")

        if state in ("USER_PUSH", "USER_POP"):
            self.done.stage(1)
            return self.s("IDLE")

        if state == "SEARCH_ENABLE":
            if self.search.finishing.value:
                return self.s("GET_RESULT")
            return self.s("SEARCH_ENABLE")

        if state == "GET_RESULT":
            self.was_empty.stage(1 if self.dp.stack.size.value == 0 else 0)
            self.orig_size.stage(self.dp.stack.size.value)
            if self.search.found.value:
                return self.s("REMOVE_TOP")
            return self.s("DISCARD")

        if state == "REMOVE_TOP":
            return self.s("UPDATE_TTL")

        if state == "UPDATE_TTL":
            return self.s("VERIFY_INFO")

        if state == "VERIFY_INFO":
            if self._verify_fails():
                return self.s("DISCARD")
            op = self.search.op_out.value
            self.performed.stage(op)
            self.performed_valid.stage(1)
            if op == LabelOp.POP:
                return self.s("UPDATE_TOP")
            if op == LabelOp.PUSH and not self.was_empty.value:
                return self.s("PUSH_OLD")
            return self.s("PUSH_NEW")  # swap, or push onto empty stack

        if state == "UPDATE_TOP":
            return self.s("DONE")

        if state == "PUSH_OLD":
            return self.s("PUSH_NEW")

        if state == "PUSH_NEW":
            return self.s("DONE")

        if state == "DISCARD":
            self.done.stage(1)
            self.discard.stage(1)
            return self.s("IDLE")

        # DONE
        self.done.stage(1)
        return self.s("IDLE")


class IfChainInfoBaseInterfaceFSM(IfChain, InfoBaseInterfaceFSM):
    def output(self) -> None:
        state = self.state_name
        dp = self.dp
        if state in ("WRITE_PAIR", "MGMT_DONE"):
            self.finishing.drive(1)
        elif state == "SEARCH":
            # retire on the same edge the search machine does
            self.finishing.drive(self.search.finishing.value)
        else:
            self.finishing.drive(0)
        if state == "WRITE_PAIR":
            level_num = dp.lat_level.value
            level = self._level()
            level.wr_en.drive(1)
            if level_num == 1:
                # level 1 is keyed by the 32-bit packet identifier
                level.wr_index.drive(dp.lat_packet_id.value)
            else:
                # levels 2-3 take the index half of the 40-bit pair
                level.wr_index.drive(dp.lat_pair_index)
            level.wr_label.drive(dp.lat_pair_label)
            level.wr_op.drive(dp.lat_op_in.value)
        elif state == "SEARCH":
            self._drive_search()
        elif state in ("SEARCH_MODIFY", "SEARCH_REMOVE"):
            self._drive_search()
        elif state == "MOD_WRITE":
            level = self._level()
            level.wr_en.drive(1)
            level.wr_addr_override.drive(1)
            level.wr_addr_ext.drive(self.mgmt_addr.value)
            if dp.lat_level.value == 1:
                level.wr_index.drive(dp.lat_packet_id.value)
            else:
                level.wr_index.drive(dp.lat_pair_index)
            level.wr_label.drive(dp.lat_pair_label)
            level.wr_op.drive(dp.lat_op_in.value)
        elif state in ("RM_READ_LAST", "RM_WAIT"):
            # present the last stored pair's address; its registered
            # read is valid from RM_WAIT onward
            level = self._level()
            level.rd_addr_override.drive(1)
            level.rd_addr_ext.drive(max(0, level.count - 1))
        elif state == "RM_WRITE":
            # copy the last pair into the hole and shrink the count
            level = self._level()
            level.wr_en.drive(1)
            level.wr_addr_override.drive(1)
            level.wr_addr_ext.drive(self.mgmt_addr.value)
            level.wr_index.drive(level.rd_index)
            level.wr_label.drive(level.rd_label)
            level.wr_op.drive(level.rd_op)
            level.count_dec.drive(1)
        elif state in ("READ_ADDR", "READ_WAIT"):
            level = self._level()
            level.rd_addr_override.drive(1)
            level.rd_addr_ext.drive(self._read_addr())

    def transition(self) -> State:
        state = self.state_name
        if state == "IDLE":
            self.done.stage(0)
            if self.enable.value:
                op = self.dp.lat_op.value
                if op == UserOp.WRITE_PAIR:
                    return self.s("WRITE_PAIR")
                if op == UserOp.SEARCH:
                    return self.s("SEARCH")
                if op == UserOp.MODIFY_PAIR:
                    return self.s("SEARCH_MODIFY")
                if op == UserOp.REMOVE_PAIR:
                    return self.s("SEARCH_REMOVE")
                if op == UserOp.READ_ENTRY:
                    return self.s("READ_ADDR")
            return self.s("IDLE")

        if state == "WRITE_PAIR":
            self.done.stage(1)
            return self.s("IDLE")

        if state == "SEARCH":
            # the search machine's done pulse is the transaction's done
            if self.search.finishing.value:
                return self.s("IDLE")
            return self.s("SEARCH")

        if state == "SEARCH_MODIFY":
            if self.search.finishing.value:
                if self.search.found.value:
                    self.mgmt_found.stage(1)
                    self.mgmt_addr.stage(
                        self._level().read_counter.count.value
                    )
                    return self.s("MOD_WRITE")
                self.mgmt_found.stage(0)
                return self.s("MGMT_DONE")
            return self.s("SEARCH_MODIFY")

        if state == "MOD_WRITE":
            return self.s("MGMT_DONE")

        if state == "SEARCH_REMOVE":
            if self.search.finishing.value:
                if self.search.found.value:
                    self.mgmt_found.stage(1)
                    self.mgmt_addr.stage(
                        self._level().read_counter.count.value
                    )
                    return self.s("RM_READ_LAST")
                self.mgmt_found.stage(0)
                return self.s("MGMT_DONE")
            return self.s("SEARCH_REMOVE")

        if state == "RM_READ_LAST":
            return self.s("RM_WAIT")
        if state == "RM_WAIT":
            return self.s("RM_WRITE")
        if state == "RM_WRITE":
            return self.s("MGMT_DONE")

        if state == "READ_ADDR":
            self.mgmt_found.stage(
                1 if self._read_addr() < self._level().count else 0
            )
            return self.s("READ_WAIT")
        if state == "READ_WAIT":
            level = self._level()
            self.rd_out_index.stage(level.rd_index)
            self.rd_out_label.stage(level.rd_label)
            self.rd_out_op.stage(level.rd_op)
            return self.s("MGMT_DONE")

        # MGMT_DONE
        self.done.stage(1)
        return self.s("IDLE")


#: a set of machines: what ``LabelStackModifier`` instantiates
NEW = dict(
    MainFSM=MainFSM,
    SearchFSM=SearchFSM,
    LabelStackInterfaceFSM=LabelStackInterfaceFSM,
    InfoBaseInterfaceFSM=InfoBaseInterfaceFSM,
)
OLD = dict(
    MainFSM=IfChainMainFSM,
    SearchFSM=IfChainSearchFSM,
    LabelStackInterfaceFSM=IfChainLabelStackInterfaceFSM,
    InfoBaseInterfaceFSM=IfChainInfoBaseInterfaceFSM,
)


# -- seeded mutants: what the suite must be able to tell apart ----------------
class DropsADefaultDrive(SearchFSM):
    """WAIT without its ``finishing.drive(0)``: every value is the same
    today, the call is what is missing."""

    def on_WAIT(self) -> str:
        return "COMPARE"


class WrongNextState(LabelStackInterfaceFSM):
    """A nested push that forgets the new entry."""

    def on_PUSH_OLD(self) -> str:
        super().on_PUSH_OLD()
        return "DONE"


MUTANTS = {
    "a handler drops its default drive": dict(NEW, SearchFSM=DropsADefaultDrive),
    "a handler returns the wrong next state": dict(
        NEW, LabelStackInterfaceFSM=WrongNextState
    ),
}


# -- running one transaction sequence on one set of machines -------------------
#: small enough that a level fills and a search scans all of it
DEPTH = 4


class _PassMarker(Component):
    """Registered last: closes each settle pass in the call log."""

    def __init__(self, sim, calls) -> None:
        super().__init__(sim, "pass_marker")
        self.calls, self.passes = calls, 0

    def settle(self) -> None:
        self.calls.append("pass")
        self.passes += 1


class Bench:
    """The modifier on one set of machines, everything observable kept."""

    def __init__(self, kit) -> None:
        #: every drive and stage call, in order, with pass boundaries
        self.calls = calls = []

        class LoggedWire(Wire):
            __slots__ = ()

            def drive(self, value: int) -> bool:
                calls.append((self.name, value))
                return super().drive(value)

        class LoggedReg(Reg):
            __slots__ = ()

            def stage(self, value: int) -> None:
                calls.append((self.name, value))
                super().stage(value)

        with mock.patch.multiple(
            "repro.hdl.simulator", Wire=LoggedWire, Reg=LoggedReg
        ), mock.patch.multiple("repro.hw.modifier", **kit):
            self.driver = ModifierDriver(ib_depth=DEPTH)
        sim, modifier = self.driver.sim, self.driver.modifier
        self.machines = (
            modifier.main, modifier.lbl_iface, modifier.ib_iface, modifier.search
        )
        self.marker = _PassMarker(sim, calls)
        self.recorder = WaveformRecorder(sim)
        #: per edge: the cycle, each machine's state, the passes it took
        self.edges = []
        sim.on_tick(self._on_tick)
        #: per transaction: what it returned or raised
        self.results = []

    def _on_tick(self, cycle: int) -> None:
        states = tuple(machine.state_name for machine in self.machines)
        self.edges.append((cycle, states, self.marker.passes))
        self.marker.passes = 0

    def run(self, steps) -> "Bench":
        for step in steps:
            try:
                self.results.append(apply(self.driver, step))
            except (RuntimeError, TimeoutError) as exc:  # a mutant's hang
                self.results.append((type(exc), str(exc)))
        return self

    def vcd(self, directory: str, name: str) -> str:
        path = os.path.join(directory, name)
        dump_vcd(self.recorder, path)
        return path


def apply(driver, step):
    kind, arg = step
    if kind == "reset":
        return ("reset", driver.reset())
    if kind == "rtrtype":
        driver.set_router_type(arg)
        return ("rtrtype", arg)
    return apply_op(driver, step)


def assert_same(steps, kit=NEW) -> Bench:
    got, want = Bench(kit).run(steps), Bench(OLD).run(steps)
    assert got.results == want.results
    assert got.edges == want.edges
    assert got.recorder.trace == want.recorder.trace
    assert got.calls == want.calls
    with tempfile.TemporaryDirectory() as tmp:
        assert filecmp.cmp(
            got.vcd(tmp, "got.vcd"), want.vcd(tmp, "want.vcd"), shallow=False
        )
    return got


# -- a scripted tour: every state of every machine -----------------------------
def E(label: int, ttl: int = 64, s: int = 0) -> LabelEntry:
    return LabelEntry(label=label, ttl=ttl, s=s)


PUSH, SWAP, POP, NOOP = LabelOp.PUSH, LabelOp.SWAP, LabelOp.POP, LabelOp.NOOP
TOUR = [
    ("reset", None),
    # empty levels: every search exhausts at once
    ("search", (1, 16)), ("update", (16, 64)), ("modify", (2, 16, 17, SWAP)),
    ("remove", (3, 16)), ("read", (1, 0)), ("pop", None),
    # level 1 filled to its depth, and one write past it
    ("write", (1, 16, 17, PUSH)), ("write", (1, 17, 18, SWAP)),
    ("write", (1, 18, 19, POP)), ("write", (1, 19, 20, NOOP)),
    ("write", (1, 20, 21, PUSH)),
    # hit at the first entry, at the last, at none
    ("search", (1, 16)), ("search", (1, 19)), ("search", (1, 23)),
    # LER ingress push, swap, pop down to an empty stack
    ("update", (16, 64)), ("update", (0, 64)), ("update", (0, 64)),
    # VERIFY_INFO discards: no stored operation, TTL expiry (1 and 0),
    # a swap for an empty stack, an LSR that sees an empty stack
    ("push", E(19, s=1)), ("update", (0, 64)),
    ("push", E(17, ttl=1, s=1)), ("update", (0, 64)),
    ("push", E(17, ttl=0, s=1)), ("update", (0, 64)),
    ("update", (17, 64)), ("update", (16, 0)),
    ("rtrtype", True), ("update", (16, 64)), ("rtrtype", False),
    # nested levels: a push under two entries, then one past three levels
    ("write", (2, 21, 22, PUSH)), ("write", (2, 22, 0, POP)),
    ("write", (3, 22, 23, PUSH)), ("write", (3, 24, 25, SWAP)),
    ("push", E(20, s=1)), ("push", E(21)), ("update", (0, 64)),
    ("update", (0, 64)),
    ("push", E(20, s=1)), ("push", E(21)), ("push", E(24)), ("update", (0, 64)),
    ("pop", None), ("update", (0, 64)), ("update", (0, 64)),
    # a pop that exposes an entry whose TTL is rewritten
    ("pop", None), ("push", E(20, s=1)), ("push", E(22, ttl=9)), ("update", (0, 64)),
    # management: modify and remove at a hit and at a miss, direct reads
    ("modify", (1, 19, 30, SWAP)), ("modify", (1, 23, 30, SWAP)),
    ("remove", (1, 16)), ("remove", (1, 19)), ("remove", (1, 23)),
    ("read", (1, 0)), ("read", (1, 1)), ("read", (1, 3)), ("read", (2, 12)),
    ("search", (2, 22)), ("search", (3, 24)),
    # reset in the middle, then the machines start from nothing again
    ("reset", None), ("search", (1, 17)), ("write", (1, 17, 18, SWAP)),
    ("push", E(17, s=1)), ("update", (0, 64)),
    # the stack pushed past its capacity
    *[("push", E(16 + i)) for i in range(9)],
]


class TestTour:
    def test_the_tour_agrees_and_visits_every_state(self):
        bench = assert_same(TOUR)
        visited = {
            (machine.name, state)
            for _cycle, states, _passes in bench.edges
            for machine, state in zip(bench.machines, states)
        }
        assert visited == {
            (machine.name, state)
            for machine in bench.machines
            for state in machine._names
        }
        performed = {result[1] for result in bench.results if result[0] == "update"}
        assert performed == {PUSH, SWAP, POP, None}
        assert not any(isinstance(result[0], type) for result in bench.results)

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_a_seeded_mutant_is_caught(self, mutant):
        with pytest.raises(AssertionError):
            assert_same(TOUR, MUTANTS[mutant])


# -- random transaction sequences -----------------------------------------------
step = st.one_of(
    op_step,
    st.tuples(st.just("reset"), st.none()),
    st.tuples(st.just("rtrtype"), st.booleans()),
)


class TestRandomSequences:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(step, max_size=30))
    def test_handlers_match_the_if_chains(self, steps):
        assert_same([("reset", None)] + steps)
