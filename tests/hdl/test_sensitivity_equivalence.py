"""Differential tests for declared read sets (``Component.reads``).

The kernel evaluates a component that declares ``reads`` in pass 0 and
afterwards only when a wire it lists changed; the oracle is
:func:`~tests.hdl.test_settle_equivalence.reference_step`, which runs
every component in every pass and knows nothing of ``reads``.  Random
designs are built twice, one stepped by each, and must agree on what
every settle pass saw, on the committed registers and on the type and
message of any error.

A design is processes over a signal list.  Most processes declare what
they read; mixed in are undeclared neighbours (evaluated every pass),
self-loops (a process reading the wire it drives), fights (a second
driver on a wire -- a declared driver lists the fought wire, as the
contract asks), registers a declared process creates and alone stages,
unowned registers staged by one or two undeclared processes, and
stages a test bench makes between edges.  The spy that records each
pass is undeclared, so every pass happens; the same designs without it
exercise the early exit ("nothing is due").  A process that leaves a
read out of ``reads`` must be caught.
"""

from typing import List, Optional, Tuple

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.hdl.signal import SignalError, Wire
from repro.hdl.simulator import CombinationalLoopError, Component, Simulator
from tests.hdl.test_settle_equivalence import (
    MASK,
    MAX_PASSES,
    WIDTH,
    R,
    W,
    _Spy,
    reference_step,
)

#: what a process of each kind reads: its ``a``, its ``b``, its own ``dst``
READS = {
    "const": "",
    "follow": "a",
    "not": "a",
    "eq": "ab",
    "mux": "ab",
    "incr": "a+",
    "when": "a",
    "unless": "a",
}
WIRE_KINDS = ["const", "follow", "not", "eq", "mux", "when", "unless", "incr"]
REG_KINDS = ["when", "unless", "when", "unless", "incr", "follow"]


def proc(kind, dst, a, b, c, declared, extra=(), dropped=None):
    """A process: ``kind`` over signals ``dst`` / ``a`` / ``b`` and the
    constant ``c``; ``declared`` or not; when declared, ``extra`` wires
    listed beyond what the kind reads, and one wire (``dropped``) left
    out of the list."""
    return (kind, dst, a, b, c, declared, extra, dropped)


class _Process(Component):
    def __init__(self, sim: Simulator, index: int, kind: str, c: int) -> None:
        super().__init__(sim, f"p{index}")
        self.kind, self.c = kind, c

    def settle(self) -> None:
        kind, dst = self.kind, self.dst
        if kind == "const":
            value = self.c
        elif kind == "follow":
            value = self.a.value
        elif kind == "not":
            value = ~self.a.value & MASK
        elif kind == "eq":
            value = int(self.a.value == self.b.value)
        elif kind == "mux":
            value = self.a.value if self.b.value & 1 else self.c
        elif kind == "incr":
            value = (dst.value + 1) & MASK if self.a.value else dst.value
        elif bool(self.a.value) == (kind == "when"):
            value = self.c
        else:
            return  # a conditional driver / stager that sits this pass out
        if isinstance(dst, Wire):
            dst.drive(value)
        else:
            dst.stage(value)


def build(spec, spy: bool = True) -> Tuple[Simulator, Optional[_Spy]]:
    """``spec`` is ``(signals, processes, bench)``: signals as
    ``(is_reg, default)``, processes as :func:`proc` tuples in
    registration order, and per cycle a test-bench stage ``(signal,
    value)`` or None.  A register belongs to the first process staging
    it when that one is declared, and is created by it."""
    defaults, procs, _ = spec
    sim = Simulator(max_settle_passes=MAX_PASSES)
    watcher = _Spy(sim) if spy else None
    made = [_Process(sim, i, p[0], p[4]) for i, p in enumerate(procs)]
    owner = {}
    for process, (_, dst, _, _, _, declared, _, _) in zip(made, procs):
        if defaults[dst][0]:
            owner.setdefault(dst, process if declared else None)
    signals = []
    for i, (is_reg, default) in enumerate(defaults):
        if not is_reg:
            signals.append(sim.add_wire(f"s{i}", WIDTH, default))
        elif owner.get(i) is not None:
            signals.append(owner[i].reg(f"s{i}", WIDTH, default))
        else:
            signals.append(sim.add_reg(f"s{i}", WIDTH, default))
    for process, (kind, dst, a, b, _, declared, extra, dropped) in zip(made, procs):
        process.dst, process.a, process.b = signals[dst], signals[a], signals[b]
        if declared:
            ends = {"a": a, "b": b, "+": dst}
            listed = dict.fromkeys([ends[e] for e in READS[kind]] + list(extra))
            process.reads = tuple(
                signals[i] for i in listed if not defaults[i][0] and i != dropped
            )
    return sim, watcher


def run(step, spec, cycles: int, spy: bool):
    sim, watcher = build(spec, spy)
    signals = list(sim.signals.values())
    error = None
    try:
        for cycle in range(cycles):
            if spec[2][cycle] is not None:
                index, value = spec[2][cycle]
                signals[index].stage(value)
            step(sim)
    except (SignalError, CombinationalLoopError) as exc:
        error = (type(exc), str(exc))
    final = {name: s.value for name, s in sim.signals.items()}
    return error, watcher.seen if watcher else None, final, sim.cycle


def run_both(spec, cycles: int, spy: bool = True):
    return run(Simulator.step, spec, cycles, spy), run(reference_step, spec, cycles, spy)


def assert_equivalent(spec, cycles: int, spy: bool = True):
    kernel, oracle = run_both(spec, cycles, spy)
    assert kernel == oracle
    return kernel


# -- random designs -------------------------------------------------------------
@st.composite
def designs(draw, under_declared: bool = False):
    count = draw(st.integers(2, 7))
    defaults = [
        (draw(st.integers(0, 2)) == 0, draw(st.integers(0, MASK))) for _ in range(count)
    ]
    wires = [i for i, (is_reg, _) in enumerate(defaults) if not is_reg]
    regs = [i for i, (is_reg, _) in enumerate(defaults) if is_reg]
    # sources lean to wires: chains of processes that re-run
    any_signal = st.one_of(st.integers(0, count - 1), st.sampled_from(wires or [0]))
    const = st.integers(0, MASK)
    mostly_declared = st.integers(0, 3).map(bool)
    procs: List[list] = []
    # one process per signal in a drawn order, sometimes none; sources
    # may be any signal (a process's own output: a self-loop)
    for dst in draw(st.permutations(range(count))):
        if not draw(st.integers(0, 5)):
            continue  # left undriven: stays at its default
        kind = draw(st.sampled_from(REG_KINDS if dst in regs else WIRE_KINDS))
        a = dst if draw(st.integers(0, 5)) == 0 else draw(any_signal)
        procs.append(list(proc(kind, dst, a, draw(any_signal), draw(const),
                               draw(mostly_declared))))
    # a fight: a second driver on a driven wire, declared or not; every
    # declared driver of the wire lists it
    fought = sorted({p[1] for p in procs} & set(wires))
    if fought and draw(st.integers(0, 2)) == 0:
        dst = draw(st.sampled_from(fought))
        procs.insert(draw(st.integers(0, len(procs))), list(proc(
            draw(st.sampled_from(["const", "follow", "when"])), dst,
            draw(any_signal), draw(any_signal), draw(const), draw(mostly_declared),
        )))
        for p in procs:
            if p[1] == dst:
                p[6] = (dst,)
    # a second, undeclared stager of a register
    if regs and draw(st.booleans()):
        procs.insert(draw(st.integers(0, len(procs))), list(proc(
            draw(st.sampled_from(["follow", "incr", "when", "unless"])),
            draw(st.sampled_from(regs)), draw(any_signal), draw(any_signal),
            draw(const), False,
        )))
    # a register with a declared stager is that one's own, staged by it
    # alone: the first stager of each register keeps it, and a second
    # one stays only where neither is declared
    first = {}
    procs = [
        p for p in procs
        if first.setdefault(p[1], p) is p
        or p[1] in wires
        or not (p[5] or first[p[1]][5])
    ]
    if under_declared:
        omissions = [
            (i, signal) for i, p in enumerate(procs) if p[5]
            for signal in [{"a": p[2], "b": p[3], "+": p[1]}[e] for e in READS[p[0]]]
            + list(p[6])
            if signal in wires
        ]
        if omissions:
            i, signal = draw(st.sampled_from(omissions))
            procs[i][7] = signal
    bench = [
        (draw(st.sampled_from(regs)), draw(const))
        if regs and draw(st.integers(0, 4)) == 0 else None
        for _ in range(6)
    ]
    return defaults, [tuple(p) for p in procs], bench


@st.composite
def chains(draw):
    """``s0`` a constant, each next wire a function of the one before,
    the processes registered in a drawn order: a change reaches readers
    on both sides of its changer, pass after pass."""
    length = draw(st.integers(2, 6))
    const = st.integers(0, MASK)
    defaults = [(W, draw(const)) for _ in range(length + 1)]
    procs = [proc("const", 0, 0, 0, draw(const), draw(st.booleans()))] + [
        proc(draw(st.sampled_from(["follow", "not", "eq"])), i + 1, i, 0, 0,
             draw(st.integers(0, 3).map(bool)))
        for i in range(length)
    ]
    return defaults, draw(st.permutations(procs)), [None] * 6


class TestRandomDesigns:
    @settings(max_examples=400, deadline=None)
    @given(designs(), st.integers(1, 6))
    def test_kernel_matches_the_every_process_every_pass_oracle(self, spec, cycles):
        assert_equivalent(spec, cycles)

    @settings(max_examples=100, deadline=None)
    @given(chains(), st.integers(1, 3))
    def test_chains_in_any_registration_order(self, spec, cycles):
        assert_equivalent(spec, cycles)

    @settings(max_examples=200, deadline=None)
    @given(designs(), st.integers(1, 6))
    def test_without_the_spy_the_early_exit_agrees_too(self, spec, cycles):
        assert_equivalent(spec, cycles, spy=False)

    def test_an_under_declared_read_is_caught(self):
        def caught(example) -> bool:
            spec, cycles = example
            kernel, oracle = run_both(spec, cycles)
            return kernel != oracle

        # raises NoSuchExample if 400 designs cannot tell an omission apart
        find(
            st.tuples(designs(under_declared=True), st.integers(1, 6)),
            caught,
            settings=settings(
                max_examples=400, database=None, derandomize=True,
                phases=[Phase.generate],
            ),
        )


# -- the semantics, one by one ----------------------------------------------------
def spec(defaults, procs, bench=None):
    return defaults, procs, bench or [None] * 6


class TestPinnedSemantics:
    FOLLOW_THEN_DRIVE = [proc("follow", 1, 0, 0, 0, True), proc("const", 0, 0, 0, 9, True)]

    def test_a_reader_before_its_driver_sees_the_change_in_the_next_pass(self):
        error, seen, final, _ = assert_equivalent(
            spec([(W, 3), (W, 0)], self.FOLLOW_THEN_DRIVE), 2
        )
        assert error is None and final == {"s0": 9, "s1": 9}
        assert seen == [(3, 0), (9, 3), (9, 9)] * 2

    def test_nothing_due_ends_the_cycle_without_a_spy(self):
        error, _, final, cycle = assert_equivalent(
            spec([(W, 3), (W, 0)], self.FOLLOW_THEN_DRIVE), 2, spy=False
        )
        assert error is None and final == {"s0": 9, "s1": 9} and cycle == 2

    @pytest.mark.parametrize("spy", [True, False])
    def test_a_declared_self_loop_is_still_a_combinational_loop(self, spy):
        error, _, _, cycle = assert_equivalent(
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
        error, _, _, _ = assert_equivalent(spec([(W, 0), (W, 0)], fight), 1)
        assert error == (
            SignalError,
            "wire s0 driven to conflicting values 1 and 2 in one settle pass",
        )
        # ... which a declared driver that does not list the wire misses
        blind = [proc("const", 0, 0, 0, 1, True)] + late
        kernel, oracle = run_both(spec([(W, 0), (W, 0)], blind), 1)
        assert oracle[0] == error and kernel[0] is None

    def test_a_revoked_stage_of_an_owned_register_never_commits(self):
        # p0 owns s1 and stages 9 while s0 reads 0, in pass 0 only
        design = spec(
            [(W, 0), (R, 4)],
            [proc("unless", 1, 0, 0, 9, True), proc("const", 0, 0, 0, 1, True)],
        )
        error, _, final, _ = assert_equivalent(design, 3)
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
        error, _, final, _ = assert_equivalent(two_passes, 1)
        assert error is None and final["p0.s1"] == 4
        # settled by pass 0: the bench stage survives, as it always did
        one_pass = spec([(W, 0), (R, 4)], [owner], bench=[(1, 7)])
        error, _, final, _ = assert_equivalent(one_pass, 1)
        assert error is None and final["p0.s1"] == 7

    def test_an_omitted_read_is_a_stale_read(self):
        # p0 follows s0 but does not list it: it never sees p1's 9
        blind = [proc("follow", 1, 0, 0, 0, True, dropped=0), proc("const", 0, 0, 0, 9, True)]
        kernel, oracle = run_both(spec([(W, 3), (W, 0)], blind), 1, spy=False)
        assert oracle[2] == {"s0": 9, "s1": 9} and kernel[2] == {"s0": 9, "s1": 3}

    def test_reads_lists_wires_only(self):
        sim = Simulator()
        process = _Process(sim, 0, "const", 1)
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
    driver = _Process(sim, 0, "const", 5)
    driver.dst = driver.a = driver.b = sim.add_wire("w", WIDTH)
    driver.reads = ()
    sim.step(3)
    # pass 0 changes w, pass 1 finds nothing due but the undeclared
    assert passes == [0, 0, 1, 1, 2, 2]


def test_the_registers_a_component_creates_are_its_own():
    sim = Simulator()
    process = _Process(sim, 0, "const", 1)
    assert process._regs == ()
    first, second = process.reg("x", WIDTH), process.reg("y", WIDTH)
    assert process._regs == (first, second) and Component._regs == ()
