"""Differential tests for the no-op exits of ``Wire.drive`` / ``Reg.stage``.

``tests/hdl/test_settle_equivalence.py`` cannot see them -- its
reference loop calls the same ``drive`` -- so the oracle here is the
primitives as they were before a request that changes nothing stopped
being a request: a ``drive`` that always marks the wire driven, a
``stage`` that always stages, and ``Counter`` / ``Register`` / ``FSM`` /
``SyncMemory`` that stage their own holds.  They exist only in this
file.  Every design is built twice, once on each set, and stepped by the
same ``Simulator.step``.

Values evolve identically until something raises, and a drive the
kernel refuses the oracle refuses too, so:

* where the oracle raises no ``SignalError`` everything is equal -- what
  each settle pass saw (so the pass counts), the committed registers,
  the final wires, a combinational-loop error and its cycle -- and in
  particular the kernel raises no ``SignalError`` the oracle does not;
* where the oracle does raise one, the kernel saw exactly the oracle's
  passes up to there.  It raises in the same pass unless one of the
  fighting drivers re-drove the held value first; then a persistent
  fight is raised by the next pass of the same cycle, with the same
  message, and a transient one not at all.  Both are pinned below: that
  is not a property of a random design, whose later passes may differ.
"""

import ast
import pathlib
from typing import NamedTuple, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import repro
from repro.hdl.counter import Counter
from repro.hdl.fsm import FSM, State
from repro.hdl.memory import SyncMemory
from repro.hdl.register import Register
from repro.hdl.signal import Reg, SignalError, Wire
from repro.hdl.simulator import CombinationalLoopError, Component, Simulator
from tests.hdl.test_settle_equivalence import (
    MASK,
    R,
    W,
    _Spy,
    build,
    build_chain,
    designs,
)


# -- the oracle: the primitives before the no-op exits ------------------------
class OldWire(Wire):
    __slots__ = ()

    def drive(self, value: int) -> bool:
        if type(value) is not int or value < 0 or value > self._max:
            value = self._check(value)
        driven, changed = self._driven, self.value != value
        if changed:
            if driven == 2:
                raise SignalError(
                    f"wire {self.name} driven to conflicting values "
                    f"{self.value} and {value} in one settle pass"
                )
            self.value = value
            self._log_changed(self)
        if not driven:
            self._log_driven(self)
        self._driven = 2
        return changed


class OldReg(Reg):
    __slots__ = ()

    def stage(self, value: int) -> None:
        if type(value) is not int or value < 0 or value > self._max:
            value = self._check(value)
        self._next = value
        if not self._staged:
            self._log_staged(self)
        self._staged = 2


class OldCounter(Counter):
    def settle(self) -> None:
        if self.clear.value:
            self.count.stage(0)
        elif self.load.value:
            self.count.stage(self.load_value.value)
        elif self.en.value:
            delta = -1 if self.down.value else 1
            self.count.stage((self.count.value + delta) % self._modulus)
        else:
            self.count.stage(self.count.value)


class OldRegister(Register):
    def settle(self) -> None:
        if self.clear.value:
            self.q.stage(0)
        elif self.en.value:
            self.q.stage(self.d.value)
        else:
            self.q.stage(self.q.value)


class OldSyncMemory(SyncMemory):
    def tick(self) -> None:
        if self.wr_en.value:
            self._array[self.wr_addr.value] = self.wr_data.value
        self.rd_data.stage(self._array[self.rd_addr.value])
        self.rd_data.commit()


class OldFSM(FSM):
    def settle(self) -> None:
        self.output()
        self._state_reg.stage(self.transition().code)


#: a set of primitives: the signal classes the simulator constructs, and
#: the components a design is assembled from
NEW = dict(Wire=Wire, Reg=Reg, Counter=Counter, Register=Register,
           SyncMemory=SyncMemory, FSM=FSM)
OLD = dict(Wire=OldWire, Reg=OldReg, Counter=OldCounter, Register=OldRegister,
           SyncMemory=OldSyncMemory, FSM=OldFSM)


# -- seeded mutants: what the suite must be able to tell apart ----------------
class DefaultExitWire(OldWire):
    """The ruled-out "skip default drives": wrong because a wire driven
    earlier in the cycle keeps that value until something re-drives it."""

    __slots__ = ()

    def drive(self, value: int) -> bool:
        if value == self.default:
            return False
        return super().drive(value)


class HoldDropsStageReg(OldReg):
    """A hold that exits even when it should override an earlier stage
    of the same pass: the last stage no longer wins."""

    __slots__ = ()

    def stage(self, value: int) -> None:
        if value == self.value:
            return
        super().stage(value)


MUTANTS = {
    "exit on == default": dict(OLD, Wire=DefaultExitWire),
    "stage exit ignores an earlier stage": dict(OLD, Reg=HoldDropsStageReg),
}


# -- running one design on one set of primitives ------------------------------
class Outcome(NamedTuple):
    error: Optional[Tuple[type, str]]
    seen: list  # every signal, as each settle pass of each cycle began
    final: dict
    cycle: int


def run(kit, builder, cycles: int, *args) -> Outcome:
    """``builder(*args) -> (sim, spy)`` with the simulator constructing
    the kit's signal classes, stepped ``cycles`` edges."""
    with mock.patch.multiple("repro.hdl.simulator", Wire=kit["Wire"], Reg=kit["Reg"]):
        sim, spy = builder(*args)
    error = None
    try:
        for _ in range(cycles):
            sim.step()
    except (SignalError, CombinationalLoopError) as exc:
        error = (type(exc), str(exc))
    final = {name: s.value for name, s in sim.signals.items()}
    return Outcome(error, spy.seen, final, sim.cycle)


def assert_equivalent(kit, builder, cycles: int, *args) -> Outcome:
    got, want = run(kit, builder, cycles, *args), run(OLD, builder, cycles, *args)
    if want.error is not None and want.error[0] is SignalError:
        assert got.seen[: len(want.seen)] == want.seen
    else:
        assert got == want
    return got


@st.composite
def designs_with_second_stagers(draw):
    """The settle suite's designs (conflicts, loops, conditional drivers
    and stagers), sometimes with a second process staging a register
    that already has one, before or after it: a change then a hold, a
    hold then a change."""
    defaults, ops = draw(designs())
    regs = [i for i, (is_reg, _) in enumerate(defaults) if is_reg]
    if regs and draw(st.booleans()):
        dst = draw(st.sampled_from(regs))
        any_signal = st.integers(0, len(defaults) - 1)
        # follow with a == dst and incr with a low are holds
        kind = draw(st.sampled_from(["follow", "incr", "when", "unless"]))
        a = dst if kind == "follow" and draw(st.booleans()) else draw(any_signal)
        ops = list(ops)
        ops.insert(
            draw(st.integers(0, len(ops))),
            (kind, dst, a, draw(any_signal), draw(st.integers(0, MASK))),
        )
    return defaults, ops


class TestRandomDesigns:
    @settings(max_examples=400, deadline=None)
    @given(designs_with_second_stagers(), st.integers(1, 6))
    def test_kernel_matches_the_always_drive_always_stage_oracle(self, spec, cycles):
        assert_equivalent(NEW, build, cycles, spec)

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_a_seeded_mutant_is_caught(self, mutant):
        def caught(example) -> bool:
            spec, cycles = example
            try:
                assert_equivalent(MUTANTS[mutant], build, cycles, spec)
            except AssertionError:
                return True
            return False

        # raises NoSuchExample if 400 designs cannot tell the mutant apart
        find(
            st.tuples(designs_with_second_stagers(), st.integers(1, 6)),
            caught,
            settings=settings(
                max_examples=400, database=None, derandomize=True,
                phases=[Phase.generate],  # any counterexample: no shrinking
            ),
        )


# -- the hdl primitives that own the register they hold -----------------------
class _Stimulus(Component):
    """Drives the machine's control wires from a per-cycle schedule."""

    def __init__(self, sim: Simulator, schedule, wires) -> None:
        super().__init__(sim, "stimulus")
        self.schedule, self.wires = schedule, wires

    def settle(self) -> None:
        for wire, value in zip(self.wires, self.schedule[self.sim.cycle]):
            wire.drive(value)


class _Glue(Component):
    """The counter addresses the memory, whose read data feeds the
    register."""

    def __init__(self, sim: Simulator, ctr, mem, reg) -> None:
        super().__init__(sim, "glue")
        self.ctr, self.mem, self.reg = ctr, mem, reg

    def settle(self) -> None:
        self.mem.rd_addr.drive(self.ctr.count.value)
        self.mem.wr_addr.drive(self.ctr.count.value)
        self.reg.d.drive(self.mem.rd_data.value)


def build_machine(kit, schedule):
    """Counter + memory + register + a three-state FSM gating the
    register's enable, under scheduled controls.  The glue is registered
    last, so every cycle needs more than one settle pass."""
    sim = Simulator()
    spy = _Spy(sim)
    ctr = kit["Counter"](sim, "ctr", 3)
    mem = kit["SyncMemory"](sim, "mem", 8, 4)
    reg = kit["Register"](sim, "reg", 4)

    class Walker(kit["FSM"]):
        def __init__(self) -> None:
            super().__init__(sim, "fsm", ["IDLE", "RUN", "DONE"])
            self.go = self.wire("go", 1)

        def output(self) -> None:
            reg.en.drive(1 if self.state_name == "RUN" else 0)

        def transition(self) -> State:
            if self.state_name == "IDLE":
                return self.s("RUN" if self.go.value else "IDLE")
            if self.state_name == "RUN":
                return self.s("DONE" if ctr.count.value & 1 else "RUN")
            return self.s("IDLE")

    fsm = Walker()
    _Stimulus(sim, schedule, [
        ctr.en, ctr.down, ctr.load, ctr.load_value, ctr.clear,
        reg.clear, mem.wr_en, mem.wr_data, fsm.go,
    ])
    _Glue(sim, ctr, mem, reg)
    return sim, spy


BIT = st.integers(0, 1)
RARELY = st.integers(0, 7).map(lambda v: int(v == 0))
#: per cycle: ctr.en, ctr.down, ctr.load, ctr.load_value, ctr.clear,
#: reg.clear, mem.wr_en, mem.wr_data, fsm.go
CONTROLS = (BIT, BIT, RARELY, st.integers(0, 7), RARELY,
            RARELY, BIT, st.integers(0, 15), BIT)


class TestPrimitives:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*CONTROLS), min_size=1, max_size=40))
    def test_counter_register_memory_fsm_machine(self, schedule):
        outcomes = [
            run(kit, build_machine, len(schedule), kit, schedule)
            for kit in (NEW, OLD)
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].error is None and outcomes[0].cycle == len(schedule)

    @settings(max_examples=40, deadline=None)
    @given(
        st.permutations(["counter", "cmp"]),
        st.integers(0, MASK),
        st.booleans(),
        st.integers(1, 40),
    )
    def test_counter_comparator_mux_chain(self, order, limit, late, cycles):
        def chain(kit):
            with mock.patch(
                "tests.hdl.test_settle_equivalence.Counter", kit["Counter"]
            ):
                return build_chain(order, limit, late)

        new, old = (run(kit, chain, cycles, kit) for kit in (NEW, OLD))
        assert new == old
        assert new.final["ctr.count"] == cycles % (limit + 1)

    def test_a_hold_is_not_a_stage(self):
        sim = Simulator()
        ctr, reg = Counter(sim, "ctr", 4), Register(sim, "reg", 4)
        mem = SyncMemory(sim, "mem", 4, 4)
        sim.step(3)
        assert sim._staged == [] and sim._driven == []
        assert not ctr.count.staged and not reg.q.staged and not mem.rd_data.staged


# -- the semantics, one by one ------------------------------------------------
class TestPinnedSemantics:
    @pytest.mark.parametrize(
        "ops, message, passes",
        [
            # the default's driver first: its drive is a no-op in pass 0,
            # so the fight is raised by pass 1, where both drive
            ([("const", 0, 0, 0, 0), ("const", 0, 0, 0, 5)], "0 and 5", 2),
            ([("const", 0, 0, 0, 5), ("const", 0, 0, 0, 0)], "5 and 0", 1),
        ],
        ids=["default first", "default second"],
    )
    def test_default_against_value_is_the_same_error_in_the_same_cycle(
        self, ops, message, passes
    ):
        spec = ([(W, 0)], ops)
        got, want = run(NEW, build, 3, spec), run(OLD, build, 3, spec)
        assert got.error == want.error == (
            SignalError,
            f"wire s0 driven to conflicting values {message} in one settle pass",
        )
        assert got.cycle == want.cycle == 0
        assert (len(got.seen), len(want.seen)) == (passes, 1)

    def test_a_transient_disagreement_is_no_longer_an_error(self):
        # s1's second driver disagrees with the first (which re-drives
        # the default) only while s0 still reads 0, in pass 0
        spec = (
            [(W, 0), (W, 0)],
            [("const", 1, 0, 0, 0), ("unless", 1, 0, 0, 5), ("const", 0, 0, 0, 1)],
        )
        got, want = run(NEW, build, 2, spec), run(OLD, build, 2, spec)
        assert want.error[0] is SignalError and want.cycle == 0
        assert got.error is None and got.final == {"s0": 1, "s1": 0}
        assert got.seen == [(0, 0), (1, 5), (1, 0)] * 2

    def test_comparison_is_with_the_value_held_not_the_default(self):
        # s1 follows s0 (default 3, driven to 0 last): 3 in pass 0, then
        # its own default 0 in pass 1 -- a real drive, the wire holds 3
        spec = ([(W, 3), (W, 0)], [("follow", 1, 0, 0, 0), ("const", 0, 0, 0, 0)])
        got = assert_equivalent(NEW, build, 2, spec)
        assert got.error is None and got.final == {"s0": 0, "s1": 0}
        assert got.seen == [(3, 0), (0, 3), (0, 0)] * 2
        caught = run(MUTANTS["exit on == default"], build, 2, spec)
        assert caught.final == {"s0": 0, "s1": 3}

    @pytest.mark.parametrize("hold_first", [True, False])
    def test_last_stage_wins_when_one_of_them_is_a_hold(self, hold_first):
        ops = [("follow", 0, 0, 0, 0), ("when", 0, 1, 0, 9)]  # a hold, a change
        spec = ([(R, 4), (W, 1)], ops if hold_first else ops[::-1])
        got = assert_equivalent(NEW, build, 1, spec)
        assert got.final["s0"] == (9 if hold_first else 4)

    def test_a_hold_reads_as_not_staged(self):
        reg = Reg("r", 4, 3)
        reg.stage(3)
        assert not reg.staged and reg.next_value == 3
        reg.stage(5)
        reg.stage(3)  # overrides the 5
        assert reg.staged and reg.next_value == 3
        assert not reg.commit() and reg.value == 3

    def test_a_coerced_value_that_equals_the_held_one_is_a_no_op(self):
        wire = Wire("w", 4, 1)
        assert wire.drive(2) and not wire.drive(2.0) and not wire.drive("2")
        assert wire.value == 2


# -- value is a slot: read-only by convention, so the convention is linted -----
#: ``self.value = ...`` there is a metric child's, not a signal's
NOT_SIGNALS = {"obs/metrics.py"}
KERNEL = {"hdl/signal.py", "hdl/simulator.py"}


def test_nothing_outside_the_kernel_assigns_a_signal_value():
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root).as_posix()}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in KERNEL | NOT_SIGNALS
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr == "value"
        and not isinstance(node.ctx, ast.Load)
    ]
    assert offenders == []


# -- a state is a method: the control machines index, they do not compare ------
def test_no_control_fsm_asks_which_state_it_is_in():
    """``state_name`` compared to a literal, ``in_state("X")`` and
    ``return self.s("X")`` are how a pass used to find its branch; a
    handler is that branch.  Readers outside the pass (``Modifier.busy``,
    the profiler) live in other files and keep all three."""
    root = pathlib.Path(repro.__file__).parent
    machines = sorted((root / "hw").glob("*_fsm.py"))
    assert len(machines) == 4
    offenders = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in machines
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in ("state_name", "state", "in_state", "s")
    ]
    assert offenders == []
