"""Differential tests for the settle kernel: ``Simulator.step`` against
one reference.

:func:`reference_step` is the simplest settle there is: revert every
wire, run every component in every pass, un-drive every wire and
unstage every register between passes, snapshot every wire to find the
fixed point, commit every register.  It knows nothing of activity logs
or of ``Component.reads``, and it steps designs built on :data:`OLD`,
the primitives before a request that changes nothing stopped being a
request: a ``drive`` that always marks the wire driven, a ``stage``
that always stages, and ``Counter`` / ``Register`` / ``SyncMemory`` /
``FSM`` that stage their own holds.  It exists only here.

Every design (:mod:`tests.strategies.rtl`) is built twice, on today's
primitives stepped by the kernel and on the old ones stepped by the
reference.  Values evolve identically until something raises, and a
drive the kernel refuses the reference refuses too, so:

* where the reference raises no ``SignalError`` everything is equal --
  what each settle pass saw (so the pass counts), the committed
  registers, the final wires, a combinational-loop error and its cycle
  -- and in particular the kernel raises no ``SignalError`` the
  reference does not;
* where the reference does raise one, the kernel saw exactly the
  reference's passes up to there.  It raises in the same pass unless
  one of the fighting drivers re-drove the held value first; then a
  persistent fight is raised by the next pass of the same cycle, with
  the same message, and a transient one not at all.  Both are pinned
  below: that is not a property of a random design, whose later passes
  may differ.

Three seeded mutants show the suite is not vacuous.
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
from repro.hdl.fsm import FSM
from repro.hdl.memory import SyncMemory
from repro.hdl.register import Register
from repro.hdl.signal import Reg, SignalError, Wire
from repro.hdl.simulator import CombinationalLoopError, Component, Simulator
from tests.strategies.rtl import (
    MAX_PASSES,
    WIDTH,
    R,
    W,
    Process,
    build_chain,
    build_machine,
    build_processes,
    chains,
    counter_chains,
    designs,
    proc,
    schedules,
    spec,
)


# -- the reference --------------------------------------------------------------
def reference_step(sim: Simulator) -> None:
    """One clock cycle, sweeping every signal and snapshotting every wire."""
    wires = [s for s in sim.signals.values() if isinstance(s, Wire)]
    regs = [s for s in sim.signals.values() if isinstance(s, Reg)]
    for wire in wires:
        wire.reset()
    for pass_index in range(sim.max_settle_passes):
        before = [w.value for w in wires]
        if pass_index:
            for wire in wires:
                wire._driven = 0  # drivable again, value kept
            for reg in regs:
                reg.unstage()
        for component in sim.components:
            component.settle()
        if before == [w.value for w in wires]:
            break
    else:
        raise CombinationalLoopError(
            f"combinational logic failed to settle within "
            f"{sim.max_settle_passes} passes at cycle {sim.cycle}"
        )
    for reg in regs:
        reg.commit()
    for component in sim.components:
        component.tick()
    sim.cycle += 1


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
#: who steps what
KERNEL = (NEW, Simulator.step)
REFERENCE = (OLD, reference_step)


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
    "exit on == default": (dict(OLD, Wire=DefaultExitWire), Simulator.step),
    "stage exit ignores an earlier stage": (
        dict(OLD, Reg=HoldDropsStageReg), Simulator.step,
    ),
}


# -- running one design on one side --------------------------------------------
class Outcome(NamedTuple):
    error: Optional[Tuple[type, str]]
    seen: Optional[list]  # every signal, as each settle pass of each cycle began
    final: dict
    cycle: int


def run(side, builder, cycles: int, *args) -> Outcome:
    """``builder(kit, *args)`` with the simulator constructing the kit's
    signal classes, stepped ``cycles`` edges by the side's step."""
    kit, step = side
    with mock.patch.multiple("repro.hdl.simulator", Wire=kit["Wire"], Reg=kit["Reg"]):
        sim, spy, bench = builder(kit, *args)
    signals = list(sim.signals.values())
    error = None
    try:
        for cycle in range(cycles):
            if bench and bench[cycle] is not None:
                index, value = bench[cycle]
                signals[index].stage(value)
            step(sim)
    except (SignalError, CombinationalLoopError) as exc:
        error = (type(exc), str(exc))
    final = {name: s.value for name, s in sim.signals.items()}
    return Outcome(error, spy.seen if spy else None, final, sim.cycle)


def agrees(got: Outcome, want: Outcome) -> bool:
    """The kernel's outcome against the reference's, by the fight rule."""
    if want.error is not None and want.error[0] is SignalError:
        return want.seen is None or got.seen[: len(want.seen)] == want.seen
    return got == want


def assert_equivalent(builder, cycles: int, *args) -> Outcome:
    got, want = run(KERNEL, builder, cycles, *args), run(REFERENCE, builder, cycles, *args)
    assert agrees(got, want), (got, want)
    return got


def assert_process_design(design, cycles: int, spy: bool = True) -> Outcome:
    return assert_equivalent(build_processes, cycles, design, spy)


# -- the properties ---------------------------------------------------------------
class TestRandomDesigns:
    @settings(max_examples=400, deadline=None)
    @given(designs(), st.integers(1, 6), st.sampled_from((True, True, False)))
    def test_kernel_matches_the_reference(self, design, cycles, spy):
        assert_process_design(design, cycles, spy)

    @settings(max_examples=100, deadline=None)
    @given(chains(), st.integers(1, 3))
    def test_chains_in_any_registration_order(self, design, cycles):
        assert_process_design(design, cycles)

    @settings(max_examples=40, deadline=None)
    @given(counter_chains, st.integers(1, 40))
    def test_counter_comparator_mux_chain(self, chain, cycles):
        got = assert_equivalent(build_chain, cycles, *chain)
        # the counter wraps at the limit: the design really ran
        assert got.error is None
        assert got.final["ctr.count"] == cycles % (chain[1] + 1)

    @settings(max_examples=100, deadline=None)
    @given(schedules)
    def test_counter_register_memory_fsm_machine(self, schedule):
        got = assert_equivalent(build_machine, len(schedule), schedule)
        assert got.error is None and got.cycle == len(schedule)

    @settings(max_examples=60, deadline=None)
    @given(designs(), st.integers(1, 4), st.integers(1, 4))
    def test_reset_between_runs_matches_a_fresh_design(self, design, first, then):
        sim, spy, _ = build_processes(NEW, design)
        fresh, fresh_spy, _ = build_processes(NEW, design)
        try:
            sim.step(first)
        except (SignalError, CombinationalLoopError):
            pass  # reset() must recover from a cycle that blew up, too
        sim.reset()
        del spy.seen[:]
        for made in (sim, fresh):
            try:
                made.step(then)
            except (SignalError, CombinationalLoopError) as exc:
                made.error = str(exc)
        assert spy.seen == fresh_spy.seen
        assert getattr(sim, "error", None) == getattr(fresh, "error", None)


def _hunt(examples, caught) -> None:
    """Raises NoSuchExample if 400 examples cannot tell the mutant apart."""
    find(
        examples,
        caught,
        settings=settings(
            max_examples=400, database=None, derandomize=True,
            phases=[Phase.generate],  # any counterexample: no shrinking
        ),
    )


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_seeded_primitive_mutant_is_caught(mutant):
    def caught(example) -> bool:
        design, cycles = example
        got = run(MUTANTS[mutant], build_processes, cycles, design)
        return not agrees(got, run(REFERENCE, build_processes, cycles, design))

    _hunt(st.tuples(designs(), st.integers(1, 6)), caught)


def test_an_under_declared_read_is_caught():
    def caught(example) -> bool:
        design, cycles = example
        got = run(KERNEL, build_processes, cycles, design)
        return not agrees(got, run(REFERENCE, build_processes, cycles, design))

    _hunt(st.tuples(designs(under_declared=True), st.integers(1, 6)), caught)


# -- the settle semantics the kernel must not drift from, one by one -------------
class TestPinnedSettleSemantics:
    def test_first_pass_readers_see_defaults(self):
        # s0 (default 3) is driven to 9 by the last process; s1 follows
        # s0 from an earlier one.  In pass 0 of *every* cycle the
        # follower reads the default, not last cycle's 9.
        design = spec([(W, 3), (W, 0)], [proc("follow", 1, 0, 0, 0), proc("const", 0, 0, 0, 9)])
        error, seen, final, _ = assert_process_design(design, 2)
        assert error is None
        assert final == {"s0": 9, "s1": 9}
        # the spy runs first: passes 0, 1, 2 of each of the two cycles
        assert seen == [(3, 0), (9, 3), (9, 9)] * 2

    def test_stale_drive_is_retained_for_the_rest_of_the_cycle(self):
        # s1 is driven to 7 only while s0 reads 0, which holds in pass 0
        # alone (s0's driver comes later).  Passes 1.. do not re-drive
        # s1: it keeps 7 through the edge, and reverts to its default 2
        # only when the next cycle begins.
        design = spec([(W, 0), (W, 2)], [proc("unless", 1, 0, 0, 7), proc("const", 0, 0, 0, 1)])
        error, seen, final, _ = assert_process_design(design, 2)
        assert error is None
        assert final == {"s0": 1, "s1": 7}
        assert seen == [(0, 2), (1, 7)] * 2

    def test_revoked_stage_never_commits(self):
        # r1 is staged to 9 only while s0 reads 0: pass 0 stages it,
        # pass 1 (s0 now 1) does not, and the edge must not commit 9.
        design = spec([(W, 0), (R, 4)], [proc("unless", 1, 0, 0, 9), proc("const", 0, 0, 0, 1)])
        error, _, final, _ = assert_process_design(design, 3)
        assert error is None
        assert final == {"s0": 1, "s1": 4}

    def test_unrevoked_stage_commits(self):
        design = spec([(W, 0), (R, 4)], [proc("when", 1, 0, 0, 9), proc("const", 0, 0, 0, 1)])
        _, _, final, _ = assert_process_design(design, 1)
        assert final["s1"] == 9

    def test_two_driver_conflict_same_error(self):
        design = spec([(W, 0)], [proc("const", 0, 0, 0, 1), proc("const", 0, 0, 0, 2)])
        error, _, _, cycle = assert_process_design(design, 1)
        assert error == (
            SignalError,
            "wire s0 driven to conflicting values 1 and 2 in one settle pass",
        )
        assert cycle == 0

    def test_agreeing_drivers_are_not_a_conflict(self):
        design = spec([(W, 0)], [proc("const", 0, 0, 0, 5), proc("const", 0, 0, 0, 5)])
        error, _, final, _ = assert_process_design(design, 2)
        assert error is None and final == {"s0": 5}

    def test_combinational_loop_same_error(self):
        # s0 = not s0, after one good cycle would be too kind: it loops
        # in cycle 0 already
        design = spec([(W, 0)], [proc("not", 0, 0, 0, 0)])
        error, seen, _, cycle = assert_process_design(design, 1)
        assert error == (
            CombinationalLoopError,
            f"combinational logic failed to settle within {MAX_PASSES} "
            "passes at cycle 0",
        )
        assert len(seen) == MAX_PASSES and cycle == 0

    def test_loop_error_names_the_cycle_it_happened_in(self):
        # s1 = (s1 == r0) is stable while r0 is 15 and oscillates once
        # the counter wraps to 0, one edge in
        design = spec([(R, 15), (W, 0), (W, 1)], [proc("incr", 0, 2, 0, 0), proc("eq", 1, 1, 0, 0)])
        error, _, final, cycle = assert_process_design(design, 3)
        assert error == (
            CombinationalLoopError,
            f"combinational logic failed to settle within {MAX_PASSES} "
            "passes at cycle 1",
        )
        assert cycle == 1 and final["s0"] == 0


# -- a request that changes nothing is not a request, one by one ------------------
class TestPinnedNoOpSemantics:
    @pytest.mark.parametrize(
        "ops, message, passes",
        [
            # the default's driver first: its drive is a no-op in pass 0,
            # so the fight is raised by pass 1, where both drive
            ([proc("const", 0, 0, 0, 0), proc("const", 0, 0, 0, 5)], "0 and 5", 2),
            ([proc("const", 0, 0, 0, 5), proc("const", 0, 0, 0, 0)], "5 and 0", 1),
        ],
        ids=["default first", "default second"],
    )
    def test_default_against_value_is_the_same_error_in_the_same_cycle(
        self, ops, message, passes
    ):
        design = spec([(W, 0)], ops)
        got = run(KERNEL, build_processes, 3, design)
        want = run(REFERENCE, build_processes, 3, design)
        assert got.error == want.error == (
            SignalError,
            f"wire s0 driven to conflicting values {message} in one settle pass",
        )
        assert got.cycle == want.cycle == 0
        assert (len(got.seen), len(want.seen)) == (passes, 1)

    def test_a_transient_disagreement_is_no_longer_an_error(self):
        # s1's second driver disagrees with the first (which re-drives
        # the default) only while s0 still reads 0, in pass 0
        design = spec(
            [(W, 0), (W, 0)],
            [proc("const", 1, 0, 0, 0), proc("unless", 1, 0, 0, 5), proc("const", 0, 0, 0, 1)],
        )
        got = run(KERNEL, build_processes, 2, design)
        want = run(REFERENCE, build_processes, 2, design)
        assert want.error[0] is SignalError and want.cycle == 0
        assert got.error is None and got.final == {"s0": 1, "s1": 0}
        assert got.seen == [(0, 0), (1, 5), (1, 0)] * 2

    def test_comparison_is_with_the_value_held_not_the_default(self):
        # s1 follows s0 (default 3, driven to 0 last): 3 in pass 0, then
        # its own default 0 in pass 1 -- a real drive, the wire holds 3
        design = spec([(W, 3), (W, 0)], [proc("follow", 1, 0, 0, 0), proc("const", 0, 0, 0, 0)])
        got = assert_process_design(design, 2)
        assert got.error is None and got.final == {"s0": 0, "s1": 0}
        assert got.seen == [(3, 0), (0, 3), (0, 0)] * 2
        caught = run(MUTANTS["exit on == default"], build_processes, 2, design)
        assert caught.final == {"s0": 0, "s1": 3}

    @pytest.mark.parametrize("hold_first", [True, False])
    def test_last_stage_wins_when_one_of_them_is_a_hold(self, hold_first):
        ops = [proc("follow", 0, 0, 0, 0), proc("when", 0, 1, 0, 9)]  # a hold, a change
        design = spec([(R, 4), (W, 1)], ops if hold_first else ops[::-1])
        got = assert_process_design(design, 1)
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


class TestPrimitives:
    def test_a_hold_is_not_a_stage(self):
        sim = Simulator()
        ctr, reg = Counter(sim, "ctr", 4), Register(sim, "reg", 4)
        mem = SyncMemory(sim, "mem", 4, 4)
        sim.step(3)
        assert sim._staged == [] and sim._driven == []
        assert not ctr.count.staged and not reg.q.staged and not mem.rd_data.staged


# -- a component re-runs only when a wire it reads changed, one by one ------------
class TestPinnedReadSetSemantics:
    FOLLOW_THEN_DRIVE = [proc("follow", 1, 0, 0, 0, True), proc("const", 0, 0, 0, 9, True)]

    def test_a_reader_before_its_driver_sees_the_change_in_the_next_pass(self):
        error, seen, final, _ = assert_process_design(
            spec([(W, 3), (W, 0)], self.FOLLOW_THEN_DRIVE), 2
        )
        assert error is None and final == {"s0": 9, "s1": 9}
        assert seen == [(3, 0), (9, 3), (9, 9)] * 2

    def test_nothing_due_ends_the_cycle_without_a_spy(self):
        error, _, final, cycle = assert_process_design(
            spec([(W, 3), (W, 0)], self.FOLLOW_THEN_DRIVE), 2, spy=False
        )
        assert error is None and final == {"s0": 9, "s1": 9} and cycle == 2

    @pytest.mark.parametrize("spy", [True, False])
    def test_a_declared_self_loop_is_still_a_combinational_loop(self, spy):
        error, _, _, cycle = assert_process_design(
            spec([(W, 0)], [proc("not", 0, 0, 0, 0, True)]), 1, spy
        )
        assert error == (
            CombinationalLoopError,
            f"combinational logic failed to settle within {MAX_PASSES} "
            "passes at cycle 0",
        )

    def test_a_fight_with_a_late_second_driver_is_the_same_error(self):
        # p0 drives s0 to 1 throughout; p1 joins with 2 once s1 reads 1,
        # which p2 (registered last) drives in pass 0
        late = [proc("when", 0, 1, 0, 2, False), proc("const", 1, 0, 0, 1, True)]
        fight = [proc("const", 0, 0, 0, 1, True, extra=(0,))] + late
        error, _, _, _ = assert_process_design(spec([(W, 0), (W, 0)], fight), 1)
        assert error == (
            SignalError,
            "wire s0 driven to conflicting values 1 and 2 in one settle pass",
        )
        # ... which a declared driver that does not list the wire misses
        blind = spec([(W, 0), (W, 0)], [proc("const", 0, 0, 0, 1, True)] + late)
        kernel = run(KERNEL, build_processes, 1, blind)
        reference = run(REFERENCE, build_processes, 1, blind)
        assert reference.error == error and kernel.error is None

    def test_a_revoked_stage_of_an_owned_register_never_commits(self):
        # p0 owns s1 and stages 9 while s0 reads 0, in pass 0 only
        design = spec(
            [(W, 0), (R, 4)],
            [proc("unless", 1, 0, 0, 9, True), proc("const", 0, 0, 0, 1, True)],
        )
        error, _, final, _ = assert_process_design(design, 3)
        assert error is None and final == {"s0": 1, "p0.s1": 4}

    def test_a_bench_stage_is_dropped_by_pass_1_unless_made_again(self):
        # p0 owns s1 and stages it only while s0 reads 1, which it never
        # does; the bench stages 7 before the edge
        owner = proc("when", 1, 0, 0, 9, True)
        two_passes = spec(
            [(W, 0), (R, 4), (W, 0)],
            [owner, proc("const", 0, 0, 0, 0, True), proc("follow", 2, 1, 0, 0, True)],
            bench=[(1, 7)],
        )
        error, _, final, _ = assert_process_design(two_passes, 1)
        assert error is None and final["p0.s1"] == 4
        # settled by pass 0: the bench stage survives, as it always did
        one_pass = spec([(W, 0), (R, 4)], [owner], bench=[(1, 7)])
        error, _, final, _ = assert_process_design(one_pass, 1)
        assert error is None and final["p0.s1"] == 7

    def test_an_omitted_read_is_a_stale_read(self):
        # p0 follows s0 but does not list it: it never sees p1's 9
        blind = spec(
            [(W, 3), (W, 0)],
            [proc("follow", 1, 0, 0, 0, True, dropped=0), proc("const", 0, 0, 0, 9, True)],
        )
        kernel = run(KERNEL, build_processes, 1, blind, False)
        reference = run(REFERENCE, build_processes, 1, blind, False)
        assert reference.final == {"s0": 9, "s1": 9} and kernel.final == {"s0": 9, "s1": 3}

    def test_reads_lists_wires_only(self):
        sim = Simulator()
        process = Process(sim, 0, "const", 1)
        process.dst = process.a = process.b = reg = sim.add_reg("r", WIDTH)
        process.reads = (reg,)
        with pytest.raises(TypeError, match="p0.reads lists .*only wires"):
            sim.step()


def test_a_component_without_reads_runs_in_every_pass():
    sim = Simulator()
    passes = []

    class Counted(Component):  # reads: None, the default
        def settle(self) -> None:
            passes.append(sim.cycle)

    Counted(sim, "counted")
    driver = Process(sim, 0, "const", 5)
    driver.dst = driver.a = driver.b = sim.add_wire("w", WIDTH)
    driver.reads = ()
    sim.step(3)
    # pass 0 changes w, pass 1 finds nothing due but the undeclared
    assert passes == [0, 0, 1, 1, 2, 2]


def test_the_registers_a_component_creates_are_its_own():
    sim = Simulator()
    process = Process(sim, 0, "const", 1)
    assert process._regs == ()
    first, second = process.reg("x", WIDTH), process.reg("y", WIDTH)
    assert process._regs == (first, second) and Component._regs == ()


# -- value is a slot: read-only by convention, so the convention is linted -----
#: ``self.value = ...`` there is a metric child's, not a signal's
NOT_SIGNALS = {"obs/metrics.py"}
KERNEL_FILES = {"hdl/signal.py", "hdl/simulator.py"}


def test_nothing_outside_the_kernel_assigns_a_signal_value():
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root).as_posix()}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in KERNEL_FILES | NOT_SIGNALS
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
