"""Differential tests for the settle kernel: ``Simulator.step`` against
one reference, compared at every clock edge.

:func:`reference_step` is the simplest settle there is: run every
component in every pass, in registration order, and let each run decide
its wires -- a wire the run changed is its, a wire it changed last and
did not drive this time goes back to its default; make every wire
drivable again and unstage every register between passes (a test
bench's stage stands again: a run's stage overrides it), snapshot every
wire to find the fixed point, commit every register, tick every
component.  It knows nothing of activity logs, of ``Component.reads`` or
of which component is due, and it steps designs built on :data:`OLD`,
the primitives before a hold stopped being a stage: a ``stage`` that
always stages, and ``Counter`` / ``Register`` / ``SyncMemory`` /
``FSM`` that stage their own holds and tick on every edge.  It exists
only here.

Every design (:mod:`tests.strategies.rtl`) is built twice, on today's
primitives stepped by the kernel and on the old ones stepped by the
reference.  The kernel runs a component only when something it reads
moved, so how many passes a cycle takes is the kernel's own business;
what the edge states is not.  After every edge the two must agree on
every register and on every wire as the tick saw it, and on what
stopped the run: the same :class:`CombinationalLoopError` in the same
cycle, the same :class:`SignalError` type and message in the same cycle.
A fight is seen the same way on both sides because a declared driver of
a wire that another component drives lists the wire (the read-set
contract): when the other changes it, it runs again and drives its own
value back.

Six seeded mutants -- three of the primitives and the read sets, three
of the activity mechanism -- show the suite is not vacuous.
"""

import ast
import pathlib
from typing import List, NamedTuple, Optional, Tuple
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
from repro.hdl.simulator import (
    MAX_SETTLE_PASSES,
    CombinationalLoopError,
    Component,
    Simulator,
)
from tests.strategies import examples
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
#: every wire the reference's run in progress drove, changing it or not
DROVE: List[Wire] = []


class RefWire(Wire):
    """A wire that tells the reference each time it is driven."""

    __slots__ = ()

    def drive(self, value: int) -> bool:
        DROVE.append(self)
        return super().drive(value)


def reference_step(sim: Simulator) -> None:
    """One clock cycle, every component in every pass, every wire swept."""
    wires = [s for s in sim._signals.values() if isinstance(s, Wire)]
    regs = [s for s in sim._signals.values() if isinstance(s, Reg)]
    #: wire -> the component whose run changed it last, across cycles
    changer = sim.__dict__.setdefault("reference_changer", {})
    bench = {reg: reg._next for reg in regs if reg._staged == 2}
    for _ in range(MAX_SETTLE_PASSES):
        before = [w.value for w in wires]
        for wire in wires:
            wire._swept = -1  # drivable again, value kept
        for reg in regs:
            reg.unstage()
            if reg in bench:  # a bench's stage stands unless a run stages it
                reg.stage(bench[reg])
        for component in sim.components:
            values = [w.value for w in wires]
            del DROVE[:]
            component.settle()
            for wire, value in zip(wires, values):
                if wire.value != value:
                    changer[wire] = component
                elif changer.get(wire) is component and wire.value != wire.default:
                    if not any(w is wire for w in DROVE):
                        wire.value = wire.default
        if before == [w.value for w in wires]:
            break
    else:
        raise CombinationalLoopError(
            f"combinational logic failed to settle within "
            f"{MAX_SETTLE_PASSES} passes at cycle {sim.cycle}"
        )
    for reg in regs:
        reg.commit()
    for component in sim.components:
        component.tick()
    sim.cycle += 1
    for log in (sim._changed, sim._staged, sim._moved):
        del log[:]  # the kernel's, which the reference never reads


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
        reg = self._state_reg
        reg.stage(self._codes[self._handlers[reg.value]()])


#: a set of primitives: the signal classes the simulator constructs, and
#: the components a design is assembled from
NEW = dict(Wire=Wire, Reg=Reg, Counter=Counter, Register=Register,
           SyncMemory=SyncMemory, FSM=FSM)
OLD = dict(Wire=RefWire, Reg=OldReg, Counter=OldCounter, Register=OldRegister,
           SyncMemory=OldSyncMemory, FSM=OldFSM)
#: who steps what
KERNEL = (NEW, Simulator.step)
REFERENCE = (OLD, reference_step)


# -- seeded mutants: what the suite must be able to tell apart ----------------
class DefaultExitWire(Wire):
    """The ruled-out "skip default drives": a driver that drives a wire
    another one holds back to its default goes unheard, so its fight
    goes unseen."""

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


class EdgeWakesNoReaderReg(Reg):
    """A register whose change, at the edge or by a force, makes none
    of its readers due."""

    __slots__ = ()
    _readers = property(lambda self: 0, lambda self, bits: None)


class StuckWire(Wire):
    """A wire that always reads as driven by the run in progress: a
    re-run that stopped driving it leaves it at its old value."""

    __slots__ = ()
    _seen = property(lambda self: self._clock.run, lambda self, token: None)


class ForceWakesNothingReg(Reg):
    """A force that changes the value and drops the stage, but makes
    nothing due."""

    __slots__ = ()

    def force(self, value: int) -> None:
        self.value = self._check(value)
        self.unstage()


MUTANTS = {
    "exit on == default": (dict(NEW, Wire=DefaultExitWire), Simulator.step),
    "stage exit ignores an earlier stage": (
        dict(OLD, Wire=Wire, Reg=HoldDropsStageReg), Simulator.step,
    ),
    "an edge wakes no reader": (dict(NEW, Reg=EdgeWakesNoReaderReg), Simulator.step),
    "a dropped drive is kept": (dict(NEW, Wire=StuckWire), Simulator.step),
    "a force wakes nothing": (dict(NEW, Reg=ForceWakesNothingReg), Simulator.step),
}


# -- running one design on one side --------------------------------------------
class Outcome(NamedTuple):
    error: Optional[Tuple[type, str]]
    edges: List[tuple]  # every signal after each edge: registers and wires
    final: dict
    cycle: int
    seen: Optional[list]  # every signal, as each settle pass of each cycle began


def run(side, builder, cycles: int, *args) -> Outcome:
    """``builder(kit, *args)`` with the simulator constructing the kit's
    signal classes, stepped ``cycles`` edges by the side's step."""
    kit, step = side
    with mock.patch.multiple("repro.hdl.simulator", Wire=kit["Wire"], Reg=kit["Reg"]):
        sim, spy, bench = builder(kit, *args)
    signals = list(sim._signals.values())
    error, edges = None, []
    try:
        for cycle in range(cycles):
            if bench and bench[cycle] is not None:
                index, value, forced = bench[cycle]
                if forced:
                    signals[index].force(value)
                else:
                    signals[index].stage(value)
            step(sim)
            edges.append(tuple(s.value for s in signals))
    except (SignalError, CombinationalLoopError) as exc:
        error = (type(exc), str(exc))
    final = {name: s.value for name, s in sim._signals.items()}
    return Outcome(error, edges, final, sim.cycle, spy.seen if spy else None)


def agrees(got: Outcome, want: Outcome) -> bool:
    """The kernel's outcome against the reference's, edge by edge."""
    return got[:4] == want[:4]


def assert_equivalent(builder, cycles: int, *args) -> Outcome:
    got, want = run(KERNEL, builder, cycles, *args), run(REFERENCE, builder, cycles, *args)
    assert agrees(got, want), (got, want)
    return got


def assert_process_design(design, cycles: int, spy: bool = True) -> Outcome:
    return assert_equivalent(build_processes, cycles, design, spy)


# -- the properties ---------------------------------------------------------------
class TestRandomDesigns:
    @settings(max_examples=examples(400), deadline=None)
    @given(designs(), st.integers(1, 6), st.sampled_from((True, True, False)))
    def test_kernel_matches_the_reference(self, design, cycles, spy):
        assert_process_design(design, cycles, spy)

    @settings(max_examples=examples(100), deadline=None)
    @given(chains(), st.integers(1, 3))
    def test_chains_in_any_registration_order(self, design, cycles):
        assert_process_design(design, cycles)

    @settings(max_examples=examples(40), deadline=None)
    @given(counter_chains, st.integers(1, 40))
    def test_counter_comparator_mux_chain(self, chain, cycles):
        got = assert_equivalent(build_chain, cycles, *chain)
        # the counter wraps at the limit: the design really ran
        assert got.error is None
        assert got.final["ctr.count"] == cycles % (chain[1] + 1)

    @settings(max_examples=examples(100), deadline=None)
    @given(schedules)
    def test_counter_register_memory_fsm_machine(self, schedule):
        got = assert_equivalent(build_machine, len(schedule), schedule)
        assert got.error is None and got.cycle == len(schedule)

    @settings(max_examples=examples(60), deadline=None)
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
    def test_wires_keep_their_settled_value_across_the_edge(self):
        # s0 (default 3) is driven to 9 by the last process; s1 follows
        # s0 from an earlier one.  Cycle 0 starts from the defaults and
        # takes three passes; cycle 1 starts from 9, 9: nothing moved,
        # one pass (the spy's).
        design = spec([(W, 3), (W, 0)], [proc("follow", 1, 0, 0, 0), proc("const", 0, 0, 0, 9)])
        error, edges, final, _, seen = assert_process_design(design, 2)
        assert error is None
        assert final == {"s0": 9, "s1": 9} and edges == [(9, 9)] * 2
        assert seen == [(3, 0), (9, 3), (9, 9), (9, 9)]

    def test_a_wire_its_driver_stops_driving_returns_to_its_default(self):
        # s1 is driven to 7 only while s0 reads 0, which holds in pass 0
        # alone (s0's driver comes later).  Pass 1 does not drive s1: it
        # goes back to its default 2 there, and holds it through the edge
        design = spec([(W, 0), (W, 2)], [proc("unless", 1, 0, 0, 7), proc("const", 0, 0, 0, 1)])
        error, edges, final, _, seen = assert_process_design(design, 2)
        assert error is None
        assert final == {"s0": 1, "s1": 2} and edges == [(1, 2)] * 2
        assert seen == [(0, 2), (1, 7), (1, 2), (1, 2)]

    def test_revoked_stage_never_commits(self):
        # r1 is staged to 9 only while s0 reads 0: pass 0 stages it,
        # pass 1 (s0 now 1) does not, and the edge must not commit 9.
        design = spec([(W, 0), (R, 4)], [proc("unless", 1, 0, 0, 9), proc("const", 0, 0, 0, 1)])
        error, _, final, _, _ = assert_process_design(design, 3)
        assert error is None
        assert final == {"s0": 1, "s1": 4}

    def test_unrevoked_stage_commits(self):
        design = spec([(W, 0), (R, 4)], [proc("when", 1, 0, 0, 9), proc("const", 0, 0, 0, 1)])
        final = assert_process_design(design, 1).final
        assert final["s1"] == 9

    def test_two_driver_conflict_same_error(self):
        design = spec([(W, 0)], [proc("const", 0, 0, 0, 1), proc("const", 0, 0, 0, 2)])
        error, _, _, cycle, _ = assert_process_design(design, 1)
        assert error == (
            SignalError,
            "wire s0 driven to conflicting values 1 and 2 in one settle pass",
        )
        assert cycle == 0

    def test_agreeing_drivers_are_not_a_conflict(self):
        design = spec([(W, 0)], [proc("const", 0, 0, 0, 5), proc("const", 0, 0, 0, 5)])
        error, _, final, _, _ = assert_process_design(design, 2)
        assert error is None and final == {"s0": 5}

    def test_combinational_loop_same_error(self):
        # s0 = not s0, after one good cycle would be too kind: it loops
        # in cycle 0 already
        design = spec([(W, 0)], [proc("not", 0, 0, 0, 0)])
        error, _, _, cycle, seen = assert_process_design(design, 1)
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
        error, _, final, cycle, _ = assert_process_design(design, 3)
        assert error == (
            CombinationalLoopError,
            f"combinational logic failed to settle within {MAX_PASSES} "
            "passes at cycle 1",
        )
        assert cycle == 1 and final["s0"] == 0

    @pytest.mark.parametrize("declared", [False, True])
    def test_a_transparent_latch_holds_its_value_across_the_edge(self, declared):
        # s1 = s1 if r0 is odd else 9: a combinational latch, with a
        # fixed point for every value of s1 while r0 is odd.  r0 toggles
        # 0, 15, 0, ...  The kernel starts a settle from the last settled
        # wires, so while r0 is odd the latch keeps the 9 it took while
        # r0 was even -- never its default 2, which the kernel that
        # reverted every wire at each cycle start would have held.
        design = spec(
            [(R, 0), (W, 2)],
            [proc("not", 0, 0, 0, 0, declared), proc("mux", 1, 1, 0, 9, declared)],
        )
        error, edges, _, _, _ = assert_process_design(design, 4)
        assert error is None and edges == [(15, 9), (0, 9), (15, 9), (0, 9)]


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
        got = assert_process_design(design, 3)
        assert got.error == (
            SignalError,
            f"wire s0 driven to conflicting values {message} in one settle pass",
        )
        assert got.cycle == 0 and len(got.seen) == passes

    def test_a_transient_disagreement_is_not_an_error(self):
        # s1's second driver disagrees with the first (which re-drives
        # the default) only while s0 still reads 0, in pass 0
        design = spec(
            [(W, 0), (W, 0)],
            [proc("const", 1, 0, 0, 0), proc("unless", 1, 0, 0, 5), proc("const", 0, 0, 0, 1)],
        )
        got = assert_process_design(design, 2)
        assert got.error is None and got.final == {"s0": 1, "s1": 0}
        assert got.seen == [(0, 0), (1, 5), (1, 0), (1, 0)]

    def test_comparison_is_with_the_value_held_not_the_default(self):
        # s1 follows s0 (default 3, driven to 0 last): 3 in pass 0, then
        # its own default 0 in pass 1 -- a real drive, the wire holds 3
        design = spec([(W, 3), (W, 0)], [proc("follow", 1, 0, 0, 0), proc("const", 0, 0, 0, 0)])
        got = assert_process_design(design, 2)
        assert got.error is None and got.final == {"s0": 0, "s1": 0}
        assert got.seen == [(3, 0), (0, 3), (0, 0), (0, 0)]

    def test_a_default_drive_that_goes_unheard_hides_a_fight(self):
        # the mutant drops p0's drive of the default, so p1's 5 wins
        design = spec([(W, 0)], [proc("const", 0, 0, 0, 0), proc("const", 0, 0, 0, 5)])
        caught = run(MUTANTS["exit on == default"], build_processes, 2, design)
        assert caught.error is None and caught.final == {"s0": 5}

    @pytest.mark.parametrize("hold_first", [True, False])
    def test_last_stage_wins_when_one_of_them_is_a_hold(self, hold_first):
        ops = [proc("follow", 0, 0, 0, 0), proc("when", 0, 1, 0, 9)]  # a hold, a change
        design = spec([(R, 4), (W, 1)], ops if hold_first else ops[::-1])
        got = assert_process_design(design, 1)
        assert got.final["s0"] == (9 if hold_first else 4)

    def test_a_hold_reads_as_not_staged(self):
        reg = Reg("r", 4, 3)
        reg.stage(3)
        assert reg._staged != 2 and reg.value == 3
        reg.stage(5)
        reg.stage(3)  # overrides the 5
        assert reg._staged == 2 and reg._next == 3
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
        assert sim._staged == [] and sim._changed == [] and sim._moved == []
        assert all(r._staged != 2 for r in (ctr.count, reg.q, mem.rd_data))


# -- a component runs only when something it reads moved, one by one ------------
class TestPinnedReadSetSemantics:
    FOLLOW_THEN_DRIVE = [proc("follow", 1, 0, 0, 0, True), proc("const", 0, 0, 0, 9, True)]

    def test_a_reader_before_its_driver_sees_the_change_in_the_next_pass(self):
        error, _, final, _, seen = assert_process_design(
            spec([(W, 3), (W, 0)], self.FOLLOW_THEN_DRIVE), 2
        )
        assert error is None and final == {"s0": 9, "s1": 9}
        assert seen == [(3, 0), (9, 3), (9, 9), (9, 9)]

    def test_nothing_due_ends_the_cycle_without_a_spy(self):
        error, _, final, cycle, _ = assert_process_design(
            spec([(W, 3), (W, 0)], self.FOLLOW_THEN_DRIVE), 2, spy=False
        )
        assert error is None and final == {"s0": 9, "s1": 9} and cycle == 2

    @pytest.mark.parametrize("spy", [True, False])
    def test_a_declared_self_loop_is_still_a_combinational_loop(self, spy):
        error, _, _, cycle, _ = assert_process_design(
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
        error = assert_process_design(spec([(W, 0), (W, 0)], fight), 1).error
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
        error, _, final, _, _ = assert_process_design(design, 3)
        assert error is None and final == {"s0": 1, "p0.s1": 4}

    @pytest.mark.parametrize("spy", [True, False])
    def test_a_bench_stage_commits_unless_the_owner_stages_the_register(self, spy):
        # p0 owns s1 and stages it only while s0 reads 1, which it never
        # does; the bench stages 7 before the edge, and 5 on the free s2
        owner = proc("when", 1, 0, 0, 9, True)
        design = spec(
            [(W, 0), (R, 4), (R, 3)], [owner], bench=[(1, 7, False), (2, 5, False)]
        )
        error, edges, _, _, _ = assert_process_design(design, 2, spy)
        assert error is None and edges == [(0, 7, 3), (0, 7, 5)]
        # an owner that stages 9, or holds its 4, overrides the bench's 7,
        # however many times it runs in the settle (p1 moves s0 for it)
        for stager, want in (("const", 9), ("follow", 4)):
            design = spec(
                [(W, 0), (R, 4)],
                [proc(stager, 1, 1, 0, 9, True, extra=(0,)), proc("const", 0, 0, 0, 2, True)],
                bench=[(1, 7, False)],
            )
            error, edges, _, _, _ = assert_process_design(design, 1, spy)
            assert error is None and edges == [(2, want)]
        # the owner reads nothing: the bench stage alone makes it run,
        # and its 9 (a hold by then) overrides the 7
        design = spec([(R, 4)], [proc("const", 0, 0, 0, 9, True)], bench=[None, (0, 7, False)])
        error, edges, _, _, _ = assert_process_design(design, 2, spy)
        assert error is None and edges == [(9,), (9,)]

    @pytest.mark.parametrize("on, want", [(1, 9), (0, 4)])
    def test_what_settle_only_staged_the_edge_decides_again(self, on, want):
        # p0 stages 9 into its s1 while the bench's wire reads 1, which
        # it does at settle_only(); then the bench drives ``on``
        sim = Simulator()
        wire = sim.add_wire("on", WIDTH)
        owner = Process(sim, 0, "when", 9)
        owner.dst, owner.a = owner.reg("s1", WIDTH, 4), wire
        owner.reads = (wire,)
        pins = _Pins(sim, {wire: 1})
        sim.settle_only()
        assert owner.dst._staged == 1  # dropped, not committed
        pins.values = {wire: on}
        sim.step()
        assert owner.dst.value == want

    def test_a_force_wakes_the_registers_readers_and_its_owner(self):
        # p0 owns s0 and stages 5 into it every cycle; p1 copies s0 onto
        # s1.  The bench forces 12 into s0 before the second edge: the
        # copy shows 12 at that tick, the owner's stage puts 5 back.
        design = spec(
            [(R, 0), (W, 0)],
            [proc("const", 0, 0, 0, 5, True), proc("follow", 1, 0, 0, 0, True)],
            bench=[None, (0, 12, True), None],
        )
        error, edges, _, _, _ = assert_process_design(design, 3)
        assert error is None and edges == [(5, 0), (5, 12), (5, 5)]
        # unwoken, the owner never restages: the forced 12 stays
        caught = run(MUTANTS["a force wakes nothing"], build_processes, 3, design)
        assert caught.edges == [(5, 0), (12, 12), (12, 12)]

    def test_an_edge_wakes_the_registers_readers(self):
        # p0 owns r0 and toggles it; p1 copies it onto s1
        design = spec([(R, 0), (W, 0)], [proc("not", 0, 0, 0, 0, True), proc("follow", 1, 0, 0, 0, True)])
        error, edges, _, _, _ = assert_process_design(design, 3)
        assert error is None and edges == [(15, 0), (0, 15), (15, 0)]
        caught = run(MUTANTS["an edge wakes no reader"], build_processes, 3, design)
        assert caught.edges == [(15, 0), (15, 0), (15, 0)]

    def test_a_wire_a_rerun_stops_driving_goes_back_to_its_default(self):
        # p0 drives s1 to 6 while r0 is even; r0 toggles every edge
        design = spec([(R, 0), (W, 1)], [proc("not", 0, 0, 0, 0, True), proc("unless", 1, 0, 0, 6, True)])
        error, edges, _, _, _ = assert_process_design(design, 3)
        assert error is None and edges == [(15, 6), (0, 1), (15, 6)]
        caught = run(MUTANTS["a dropped drive is kept"], build_processes, 3, design)
        assert caught.edges == [(15, 6), (0, 6), (15, 6)]

    def test_an_omitted_read_is_a_stale_read(self):
        # p0 follows s0 but does not list it: it never sees p1's 9
        blind = spec(
            [(W, 3), (W, 0)],
            [proc("follow", 1, 0, 0, 0, True, dropped=0), proc("const", 0, 0, 0, 9, True)],
        )
        kernel = run(KERNEL, build_processes, 1, blind, False)
        reference = run(REFERENCE, build_processes, 1, blind, False)
        assert reference.final == {"s0": 9, "s1": 9} and kernel.final == {"s0": 9, "s1": 3}

    def test_reads_lists_signals_only(self):
        sim = Simulator()
        process = Process(sim, 0, "const", 1)
        process.dst = process.a = process.b = sim.add_wire("w", WIDTH)
        process.reads = ("w",)
        with pytest.raises(TypeError, match="p0.reads lists 'w': only wires and registers"):
            sim.step()

    def test_an_idempotent_tick_lists_wires_only(self):
        sim = Simulator()
        mem = SyncMemory(sim, "mem", 4, 4)
        mem.reads += (mem.rd_data,)
        with pytest.raises(TypeError, match="a tick that declares its reads lists wires only"):
            sim.step()


# -- an outside write wakes what it moved, one by one ----------------------------
class _Pins(Component):
    """An undeclared test bench: drives its table every pass."""

    def __init__(self, sim, values) -> None:
        super().__init__(sim, "pins")
        self.values = values

    def settle(self) -> None:
        for wire, value in self.values.items():
            wire.drive(value)


def test_a_poke_wakes_the_memory_tick():
    sim = Simulator()
    mem = SyncMemory(sim, "mem", 4, 4)
    _Pins(sim, {mem.rd_addr: 2})
    ticks, tick = [], mem.tick
    mem.tick = lambda: (ticks.append(sim.cycle), tick())
    sim.step(3)
    assert ticks == [0] and mem.rd_data.value == 0  # the ports held still
    mem.poke(2, 9)
    sim.step()
    assert ticks == [0, 3] and mem.rd_data.value == 9
    with mock.patch.object(Component, "wake", lambda self: None):
        mem.poke(2, 3)
    sim.step()
    assert ticks == [0, 3] and mem.rd_data.value == 9  # unwoken: never read


def test_the_driver_pins_wake_on_every_change_of_their_table():
    from repro.hw.driver import ModifierDriver

    drv = ModifierDriver(ib_depth=8)
    drv.reset()
    rtrtype = drv.modifier.dp.rtrtype
    drv.set_router_type(True)
    drv.sim.step()
    assert rtrtype.value == 1
    drv._pins.release(rtrtype)
    drv.sim.step()
    assert rtrtype.value == 0  # released: back to its default
    with mock.patch.object(Component, "wake", lambda self: None):
        drv.set_router_type(True)
    drv.sim.step()
    assert rtrtype.value == 0


# -- an exception leaves nothing half done --------------------------------------
class _Tripped(Exception):
    """Raised on purpose inside a step."""


class _Latch(Component):
    """Drives ``w`` to 5 and stages its ``r`` to 7 while ``on`` reads 1;
    armed, it raises right after."""

    def __init__(self, sim) -> None:
        super().__init__(sim, "latch")
        self.on, self.w = sim.add_wire("on", WIDTH), sim.add_wire("w", WIDTH)
        self.r = self.reg("r", WIDTH)
        self.reads = (self.on,)
        self.armed = False

    def settle(self) -> None:
        if self.on.value:
            self.w.drive(5)
            self.r.stage(7)
            if self.armed:
                self.armed = False
                raise _Tripped


@pytest.mark.parametrize("then", [[0], [1, 0], [1, 1, 0, 1]])
def test_a_settle_that_raises_leaves_what_a_fresh_design_has(then):
    # the raised settle changed w and staged r: undone, so that a re-run
    # that drives 5 again holds w, and one that stops staging drops r
    def build():
        sim = Simulator()
        latch = _Latch(sim)
        return sim, latch, _Pins(sim, {latch.on: 1})

    (sim, latch, pins), (fresh, _, fresh_pins) = build(), build()
    latch.armed = True
    with pytest.raises(_Tripped):
        sim.step()
    assert (latch.w.value, latch.r.value, sim.cycle) == (0, 0, 0)
    for on in then:
        for made, bench in ((sim, pins), (fresh, fresh_pins)):
            bench.values = {made.signal("on"): on}
            made.step()
        assert {n: s.value for n, s in sim._signals.items()} == {
            n: s.value for n, s in fresh._signals.items()
        }


def test_a_tick_that_raises_leaves_the_ticks_it_did_not_reach_due():
    sim = Simulator()

    class Tripwire(Component):  # an every-edge tick, ahead of the memory
        armed = False

        def tick(self) -> None:
            if self.armed:
                self.armed = False
                raise _Tripped

    trip = Tripwire(sim, "trip")
    mem = SyncMemory(sim, "mem", 4, 4)
    pins = _Pins(sim, {})
    mem.poke(2, 9)
    sim.step()
    pins.values = {mem.rd_addr: 2}
    trip.armed = True
    with pytest.raises(_Tripped):
        sim.step()
    assert mem.rd_data.value == 0  # the edge stopped before the memory
    sim.step()  # the port holds still: the tick runs as it was due
    assert mem.rd_data.value == 9


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
    # pass 0 changes w, pass 1 changes nothing; then nothing moves, and
    # each cycle is the undeclared component's one pass
    assert passes == [0, 0, 1, 2]


def test_the_registers_a_component_creates_are_its_own():
    sim = Simulator()
    process = Process(sim, 0, "const", 1)
    assert process._regs == ()
    first, second = process.reg("x", WIDTH), process.reg("y", WIDTH)
    assert process._regs == (first, second) and Component._regs == ()


# -- value is a slot: read-only by convention, so the convention is linted -----
#: ``self.value = ...`` there is a metric child's or an address's
#: constructor, not a signal's (an address's value is read-only by the
#: same convention, so a write anywhere else is still flagged)
NOT_SIGNALS = {"obs/metrics.py", "net/addressing.py"}
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
    """``state_name`` compared to a literal and ``in_state("X")`` are
    how a pass used to find its branch; a handler is that branch.
    Readers outside the pass (``Modifier.busy``, the profiler) live in
    other files and keep both."""
    root = pathlib.Path(repro.__file__).parent
    machines = sorted((root / "hw").glob("*_fsm.py"))
    assert len(machines) == 4
    offenders = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in machines
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in ("state_name", "in_state")
    ]
    assert offenders == []
