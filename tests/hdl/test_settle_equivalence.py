"""Differential tests for the settle kernel.

:func:`reference_step` is the fixed point the simulator used before its
activity logs: revert every wire, snapshot every wire before and after
each pass, un-drive every wire and unstage every register between
passes, commit every register.  It is the oracle; it exists only here.
Two copies of the same design are stepped side by side, one by
``Simulator.step`` and one by the oracle, and must agree on what every
settle pass of every cycle saw (so on the number of passes), on the
committed registers, and on the type and message of any error.
"""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.comparator import EqualityComparator
from repro.hdl.counter import Counter
from repro.hdl.mux import Mux
from repro.hdl.signal import Reg, SignalError, Wire
from repro.hdl.simulator import CombinationalLoopError, Component, Simulator

WIDTH = 4
MASK = (1 << WIDTH) - 1
MAX_PASSES = 12


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


# -- a design is data, so it can be built twice -------------------------------
class _Spy(Component):
    """Registered first: records every signal as each settle pass begins."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "spy")
        self.seen: List[Tuple[int, ...]] = []

    def settle(self) -> None:
        self.seen.append(tuple(s.value for s in self.sim.signals.values()))


class _Op(Component):
    """One combinational process: ``(kind, dst, a, b, c)`` over the
    design's signal list.  ``a``/``b`` index signals, ``c`` is a constant."""

    def __init__(self, sim: Simulator, index: int, spec, signals) -> None:
        super().__init__(sim, f"op{index}")
        self.kind, dst, a, b, self.c = spec
        self.dst, self.a, self.b = signals[dst], signals[a], signals[b]

    def settle(self) -> None:
        kind, dst, a, b, c = self.kind, self.dst, self.a.value, self.b.value, self.c
        value = {
            "const": c,
            "follow": a,
            "not": (~a) & MASK,
            "eq": int(a == b),
            "mux": a if b & 1 else c,
            "incr": (dst.value + 1) & MASK if a else dst.value,
            "when": c,
            "unless": c,
        }[kind]
        if (kind == "when" and not a) or (kind == "unless" and a):
            return  # a conditional driver / stager that sits this pass out
        if isinstance(dst, Wire):
            dst.drive(value)
        else:
            dst.stage(value)


def build(spec) -> Tuple[Simulator, _Spy]:
    defaults, ops = spec
    sim = Simulator(max_settle_passes=MAX_PASSES)
    spy = _Spy(sim)
    signals = [
        (sim.add_reg if is_reg else sim.add_wire)(f"s{i}", WIDTH, default)
        for i, (is_reg, default) in enumerate(defaults)
    ]
    for index, op in enumerate(ops):
        _Op(sim, index, op, signals)
    return sim, spy


def run_both(spec, cycles: int):
    """Step the kernel and the oracle side by side; returns the two
    (error or None, per-pass observations, final signal values)."""
    outcomes = []
    for step in (Simulator.step, reference_step):
        sim, spy = build(spec)
        error = None
        try:
            for _ in range(cycles):
                step(sim)
        except (SignalError, CombinationalLoopError) as exc:
            error = (type(exc), str(exc))
        final = {name: s.value for name, s in sim.signals.items()}
        outcomes.append((error, spy.seen, final, sim.cycle))
    return outcomes


def assert_equivalent(spec, cycles: int):
    kernel, oracle = run_both(spec, cycles)
    assert kernel == oracle
    return kernel


@st.composite
def designs(draw):
    count = draw(st.integers(2, 8))
    defaults = [
        (draw(st.booleans()), draw(st.integers(0, MASK)))
        for _ in range(count)
    ]
    wires = [i for i, (is_reg, _) in enumerate(defaults) if not is_reg]
    regs = [i for i, (is_reg, _) in enumerate(defaults) if is_reg]
    any_signal = st.integers(0, count - 1)
    const = st.integers(0, MASK)
    ops = []
    # by default one process per signal, in a drawn order (so drivers come
    # late as often as early); sources may be any signal, which closes
    # combinational loops
    for dst in draw(st.permutations(range(count))):
        if not draw(st.integers(0, 5)):
            continue  # left undriven: stays at its default
        if dst in regs:  # mostly conditional stagers: those get revoked
            kinds = ["when", "unless", "when", "unless", "incr", "follow"]
        else:
            kinds = ["const", "follow", "not", "eq", "mux", "when", "unless"]
        ops.append((draw(st.sampled_from(kinds)), dst,
                    draw(any_signal), draw(any_signal), draw(const)))
    # sometimes a second process on an already driven wire: a conflict
    # unless the two happen to agree
    if wires and draw(st.integers(0, 3)) == 0:
        ops.insert(
            draw(st.integers(0, len(ops))),
            (draw(st.sampled_from(["const", "follow", "when"])),
             draw(st.sampled_from(wires)),
             draw(any_signal), draw(any_signal), draw(const)),
        )
    return defaults, ops


class TestRandomDesigns:
    @settings(max_examples=400, deadline=None)
    @given(designs(), st.integers(1, 6))
    def test_kernel_matches_the_sweep_and_snapshot_oracle(self, spec, cycles):
        assert_equivalent(spec, cycles)

    @settings(max_examples=60, deadline=None)
    @given(designs(), st.integers(1, 4), st.integers(1, 4))
    def test_reset_between_runs_matches_a_fresh_design(self, spec, first, then):
        sim, spy = build(spec)
        fresh, fresh_spy = build(spec)
        try:
            sim.step(first)
        except (SignalError, CombinationalLoopError):
            pass  # reset() must recover from a cycle that blew up, too
        sim.reset()
        del spy.seen[:]
        for design in (sim, fresh):
            try:
                design.step(then)
            except (SignalError, CombinationalLoopError) as exc:
                design.error = str(exc)
        assert spy.seen == fresh_spy.seen
        assert getattr(sim, "error", None) == getattr(fresh, "error", None)


# -- the hdl primitives, chained ----------------------------------------------
class _Link(Component):
    def __init__(self, sim: Simulator, name: str, src, dst) -> None:
        super().__init__(sim, name)
        self.src, self.dst = src, dst

    def settle(self) -> None:
        self.dst.drive(self.src.value)


def build_chain(order, limit: int, late_links: bool) -> Tuple[Simulator, _Spy]:
    """A counter that a comparator clears at ``limit``, its count and the
    limit behind a mux the comparator's output selects -- constructed
    (so evaluated) in the given order."""
    sim = Simulator(max_settle_passes=MAX_PASSES)
    spy = _Spy(sim)
    const = sim.add_wire("limit", WIDTH, limit)
    one = sim.add_wire("one", 1, 1)
    parts = {}
    factories = {
        "counter": lambda: Counter(sim, "ctr", WIDTH),
        "cmp": lambda: EqualityComparator(sim, "cmp", WIDTH),
    }
    for name in order:
        parts[name] = factories[name]()
    ctr, cmp_ = parts["counter"], parts["cmp"]
    links = [
        ("en", one, ctr.en),
        ("a", ctr.count, cmp_.a),
        ("b", const, cmp_.b),
        ("clear", cmp_.eq, ctr.clear),
    ]
    if late_links:
        links.reverse()
    for name, src, dst in links:
        _Link(sim, f"link_{name}", src, dst)
    mux = Mux(sim, "mux", [ctr.count, const], WIDTH)
    _Link(sim, "link_sel", cmp_.eq, mux.sel)
    return sim, spy


class TestPrimitiveChains:
    @settings(max_examples=40, deadline=None)
    @given(
        st.permutations(["counter", "cmp"]),
        st.integers(0, MASK),
        st.booleans(),
        st.integers(1, 40),
    )
    def test_counter_comparator_mux_chain(self, order, limit, late, cycles):
        outcomes = []
        for step in (Simulator.step, reference_step):
            sim, spy = build_chain(order, limit, late)
            for _ in range(cycles):
                step(sim)
            outcomes.append((spy.seen, sim.signal("ctr.count").value))
        assert outcomes[0] == outcomes[1]
        # the counter wraps at the limit: the design really ran
        assert outcomes[0][1] == cycles % (limit + 1)


# -- the semantics the kernel must not drift from, one by one -----------------
W, R = False, True


class TestPinnedSemantics:
    def test_first_pass_readers_see_defaults(self):
        # s0 (default 3) is driven to 9 by the last process; s1 follows
        # s0 from an earlier one.  In pass 0 of *every* cycle the
        # follower reads the default, not last cycle's 9.
        spec = ([(W, 3), (W, 0)], [("follow", 1, 0, 0, 0), ("const", 0, 0, 0, 9)])
        error, seen, final, _ = assert_equivalent(spec, 2)
        assert error is None
        assert final == {"s0": 9, "s1": 9}
        # the spy runs first: passes 0, 1, 2 of each of the two cycles
        assert seen == [(3, 0), (9, 3), (9, 9)] * 2

    def test_stale_drive_is_retained_for_the_rest_of_the_cycle(self):
        # s1 is driven to 7 only while s0 reads 0, which holds in pass 0
        # alone (s0's driver comes later).  Passes 1.. do not re-drive
        # s1: it keeps 7 through the edge, and reverts to its default 2
        # only when the next cycle begins.
        spec = ([(W, 0), (W, 2)], [("unless", 1, 0, 0, 7), ("const", 0, 0, 0, 1)])
        error, seen, final, _ = assert_equivalent(spec, 2)
        assert error is None
        assert final == {"s0": 1, "s1": 7}
        assert seen == [(0, 2), (1, 7)] * 2

    def test_revoked_stage_never_commits(self):
        # r1 is staged to 9 only while s0 reads 0: pass 0 stages it,
        # pass 1 (s0 now 1) does not, and the edge must not commit 9.
        spec = ([(W, 0), (R, 4)], [("unless", 1, 0, 0, 9), ("const", 0, 0, 0, 1)])
        error, _, final, _ = assert_equivalent(spec, 3)
        assert error is None
        assert final == {"s0": 1, "s1": 4}

    def test_unrevoked_stage_commits(self):
        spec = ([(W, 0), (R, 4)], [("when", 1, 0, 0, 9), ("const", 0, 0, 0, 1)])
        _, _, final, _ = assert_equivalent(spec, 1)
        assert final["s1"] == 9

    def test_two_driver_conflict_same_error(self):
        spec = ([(W, 0)], [("const", 0, 0, 0, 1), ("const", 0, 0, 0, 2)])
        error, _, _, cycle = assert_equivalent(spec, 1)
        assert error == (
            SignalError,
            "wire s0 driven to conflicting values 1 and 2 in one settle pass",
        )
        assert cycle == 0

    def test_agreeing_drivers_are_not_a_conflict(self):
        spec = ([(W, 0)], [("const", 0, 0, 0, 5), ("const", 0, 0, 0, 5)])
        error, _, final, _ = assert_equivalent(spec, 2)
        assert error is None and final == {"s0": 5}

    def test_combinational_loop_same_error(self):
        # s0 = not s0, after one good cycle would be too kind: it loops
        # in cycle 0 already
        spec = ([(W, 0)], [("not", 0, 0, 0, 0)])
        error, seen, _, cycle = assert_equivalent(spec, 1)
        assert error == (
            CombinationalLoopError,
            f"combinational logic failed to settle within {MAX_PASSES} "
            "passes at cycle 0",
        )
        assert len(seen) == MAX_PASSES and cycle == 0

    def test_loop_error_names_the_cycle_it_happened_in(self):
        # s1 = (s1 == r0) is stable while r0 is 15 and oscillates once
        # the counter wraps to 0, one edge in
        spec = ([(R, 15), (W, 0), (W, 1)], [("incr", 0, 2, 0, 0), ("eq", 1, 1, 0, 0)])
        error, _, final, cycle = assert_equivalent(spec, 3)
        assert error == (
            CombinationalLoopError,
            f"combinational logic failed to settle within {MAX_PASSES} "
            "passes at cycle 1",
        )
        assert cycle == 1 and final["s0"] == 0
