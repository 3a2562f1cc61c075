"""The declared read sets of the RTL, checked against what runs.

``Simulator`` evaluates a component that declares ``reads`` in pass 0
of every cycle and after that only when a wire it lists changed.  A
wire a ``settle`` reads but does not list is a stale read, and the
waveform digests are a weak guard against one: most handlers are
re-run anyway because some other wire they list changed in the same
pass.  So this file records what every evaluation actually touches and
holds each declared component to its contract:

* it reads the ``value`` of no wire outside its ``reads`` (reads made
  inside ``Wire.drive`` -- the held-value comparison -- do not count);
* it stages only the registers it created;
* a wire that two components drive in one cycle is in the ``reads`` of
  each declared one (a drive compares with the value held, which is
  then the other driver's).

Run over the ``rtl_worstcase`` mix, the management mix, seeded mixed
traffic with resets, bank swaps and a router-type flip, and the CAM.
Seeded mutants show the lint is not vacuous, and that the waveform
digests catch some omissions and miss others.  The count guard at the
end pins what skipping must not move and what it must keep saving.
"""

import functools
import random
from collections import defaultdict
from unittest import mock

import pytest

from benchmarks.perf.workloads import RtlWorstCase
from repro.hdl.comparator import EqualityComparator
from repro.hdl.signal import Reg, Signal, Wire
from repro.hdl.simulator import Component, Simulator
from repro.hw.cam import CAMInfoBaseLevel
from repro.hw.driver import ModifierDriver
from repro.hw.search_fsm import SearchFSM
from repro.mpls.label import LabelEntry, LabelOp
from tests.strategies.hw import (
    GOLDEN,
    CAMPins,
    apply_op,
    cam_search,
    cam_write,
    figure16,
    management_mix,
    observed,
    worstcase_mix,
)

#: the slot ``Signal.value`` is
_VALUE = Signal.__dict__["value"]


class Log:
    """What every evaluation of every component read, drove and staged."""

    #: the log being written, while a design built on the recording
    #: signals runs
    active = None

    def __init__(self) -> None:
        self.component = None  # whose settle is running
        self.driving = False
        self.evaluated = set()
        self.reads = defaultdict(set)
        self.stages = defaultdict(set)
        self.drivers = defaultdict(set)  # this cycle: wire -> components
        self.fights = set()

    def evaluate(self, component, settle) -> None:
        self.component = component
        self.evaluated.add(component)
        try:
            settle()
        finally:
            self.component = None

    def edge(self, _cycle: int) -> None:
        for wire, drivers in self.drivers.items():
            if len(drivers) > 1:
                self.fights.update(
                    f"{c.name} drives {wire.name}, which {len(drivers) - 1} "
                    f"other component(s) drive in the same cycle, and does "
                    f"not read it"
                    for c in drivers
                    if c.reads is not None and wire not in c.reads
                )
        self.drivers.clear()

    def offenses(self):
        found = set(self.fights)
        for c, wires in self.reads.items():
            if c.reads is not None:
                found.update(
                    f"{c.name} reads {w.name}, not in its reads"
                    for w in wires.difference(c.reads)
                )
        for c, regs in self.stages.items():
            if c.reads is not None:
                found.update(
                    f"{c.name} stages {r.name}, not its own"
                    for r in regs.difference(c._regs)
                )
        return sorted(found)


class RecordingWire(Wire):
    __slots__ = ()

    @property
    def value(self) -> int:
        log = Log.active
        if log is not None and log.component is not None and not log.driving:
            log.reads[log.component].add(self)
        return _VALUE.__get__(self)

    @value.setter
    def value(self, value: int) -> None:
        _VALUE.__set__(self, value)

    def drive(self, value: int) -> bool:
        log = Log.active
        if log is None or log.component is None:
            return super().drive(value)
        log.drivers[self].add(log.component)
        log.driving = True
        try:
            return super().drive(value)
        finally:
            log.driving = False


class RecordingReg(Reg):
    __slots__ = ()

    def stage(self, value: int) -> None:
        log = Log.active
        if log is not None and log.component is not None:
            log.stages[log.component].add(self)
        super().stage(value)


def lint(build, scenario):
    """Build a design on the recording signals, run ``scenario`` on it;
    returns (offenses, the declared components never evaluated)."""
    log = Log()
    with mock.patch.multiple(
        "repro.hdl.simulator", Wire=RecordingWire, Reg=RecordingReg
    ):
        design = build()
    sim = design.sim
    declared = []
    for c in sim.components:
        if type(c).settle is not Component.settle:
            c.settle = functools.partial(log.evaluate, c, c.settle)
            if c.reads is not None:
                declared.append(c)
    sim.on_tick(log.edge)
    Log.active = log
    try:
        scenario(design)
    finally:
        Log.active = None
    return log.offenses(), [c.name for c in declared if c not in log.evaluated]


# -- the scenarios ------------------------------------------------------------
def mixed_traffic(drv):
    """Every transaction kind in a seeded order, with resets, bank swaps
    and the router type flipped now and then."""
    rng = random.Random(27)
    drv.reset()
    labels = range(16, 28)
    for _ in range(400):
        roll = rng.random()
        if roll < 0.04:
            drv.reset()
        elif roll < 0.08:
            drv.set_router_type(rng.random() < 0.5)
        elif roll < 0.12:
            drv.bank_begin()
            for level in (1, 2, 3):
                for key in rng.sample(labels, 3):
                    drv.bank_write_pair(level, key, rng.choice(labels), LabelOp.SWAP)
            if rng.random() < 0.8:
                drv.bank_commit()
            else:
                drv.bank_rollback()
        else:
            level, key = rng.choice((1, 2, 3)), rng.choice(labels)
            kind = rng.choice(
                ["push", "pop", "write", "write", "search", "update", "update",
                 "modify", "remove", "read"]
            )
            if kind == "push":
                arg = LabelEntry(label=key, ttl=rng.choice((0, 1, 64)), s=rng.randrange(2))
            elif kind == "pop":
                arg = None
            elif kind in ("write", "modify"):
                arg = (level, key, rng.choice(labels), rng.choice(list(LabelOp)))
            elif kind in ("search", "remove"):
                arg = (level, key)
            elif kind == "read":
                arg = (level, rng.randrange(8))
            else:
                arg = (key, rng.choice((0, 1, 64)))
            apply_op(drv, (kind, arg))


def bank_swaps(drv):
    """Shadow banks filled, committed, rolled back and searched."""
    drv.reset()
    for round_ in range(3):
        drv.bank_begin()
        for level in (1, 2, 3):
            for i in range(6):
                drv.bank_write_pair(level, 40 + i, 900 + round_, LabelOp.SWAP)
        if round_ == 1:
            drv.bank_rollback()
        else:
            drv.bank_commit()
        for level in (1, 2, 3):
            drv.search(level, 45)
            drv.search(level, 99)
            drv.read_entry(level, 5)


def cam_run(pins):
    sim, cam = pins.sim, pins.cam
    for i in range(6):
        cam_write(sim, pins, cam, 100 + i, 500 + i, i % 4)
    for key in (100, 103, 105, 999):
        cam_search(sim, pins, cam, key)


def build_cam():
    sim = Simulator()
    pins = CAMPins(sim)
    pins.cam = CAMInfoBaseLevel(sim, "cam", index_width=20, depth=8)
    return pins


def build_modifier():
    return ModifierDriver(ib_depth=64)


def from_reset(scenario):
    def run(drv):
        drv.reset()
        scenario(drv)

    return run


SCENARIOS = {
    "worstcase_mix": (build_modifier, worstcase_mix),  # starts with a reset
    "management_mix": (build_modifier, from_reset(management_mix)),
    "mixed_traffic": (build_modifier, mixed_traffic),
    "bank_swaps": (build_modifier, bank_swaps),
    "cam": (build_cam, cam_run),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_declared_components_read_only_what_they_list(name):
    offenses, idle = lint(*SCENARIOS[name])
    assert offenses == []
    assert idle == []  # every declared component ran: the lint saw it


# -- seeded mutants -------------------------------------------------------------
def dropping(cls, suffix):
    """``cls`` with the wire whose name ends in ``suffix`` left out of
    every instance's ``reads``."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.reads = tuple(w for w in self.reads if not w.name.endswith(suffix))

    return mock.patch.object(cls, "__init__", __init__)


def test_a_dropped_comparator_output_is_caught_by_the_lint_alone():
    # the search machine re-runs in pass 1 of every search cycle anyway
    # (its request wires change in pass 0, after it), by which time the
    # comparators have settled: no waveform digest moves
    with dropping(SearchFSM, "dp.cmp10.eq"):
        offenses, _ = lint(*SCENARIOS["worstcase_mix"])
    assert offenses == ["lsm.search reads lsm.dp.cmp10.eq, not in its reads"]


def test_a_dropped_comparator_input_is_caught_by_both():
    with dropping(EqualityComparator, ".b"):
        offenses, _ = lint(*SCENARIOS["worstcase_mix"])
        digest = observed(figure16)
    assert "lsm.dp.cmp20 reads lsm.dp.cmp20.b, not in its reads" in offenses
    assert digest != GOLDEN[figure16]


def test_a_foreign_stage_is_caught():
    class Meddler(SearchFSM):
        def on_IDLE(self) -> str:
            self.dp.lat_op.stage(self.dp.lat_op.value)  # a hold, still a stage
            return super().on_IDLE()

    with mock.patch("repro.hw.modifier.SearchFSM", Meddler):
        offenses, _ = lint(*SCENARIOS["bank_swaps"])
    assert offenses == ["lsm.search stages lsm.dp.lat_op, not its own"]


def test_a_second_driver_that_does_not_read_the_wire_is_caught():
    class Override(Component):
        reads = ()

        def __init__(self, sim, wire):
            super().__init__(sim, "override")
            self.target = wire

        def settle(self) -> None:
            self.target.drive(1)  # agrees with a level-1 search's request

    def build():
        drv = ModifierDriver(ib_depth=64)
        Override(drv.sim, drv.modifier.search.req_level)
        return drv

    offenses, _ = lint(build, from_reset(lambda drv: drv.search(1, 16)))
    assert (
        "override drives lsm.search.req_level, which 1 other component(s) "
        "drive in the same cycle, and does not read it"
    ) in offenses


# -- what skipping must not move, and what it must keep saving -----------------
def test_rtl_worstcase_counts():
    """One ``rtl_worstcase`` repetition, seed 7: the cycles and the settle
    passes are the kernel's before skipping, exactly; the evaluations
    are pass 0's 21 per cycle plus what was due after it, and a
    component that forgets its ``reads`` shows up here as a count."""
    inputs = RtlWorstCase().generate(7, 1.0)
    drv = ModifierDriver(ib_depth=inputs["depth"])
    evaluations = [0]

    def counted(settle):
        evaluations[0] += 1
        settle()

    components = [c for c in drv.sim.components if type(c).settle is not Component.settle]
    for c in components:
        assert c.reads is not None, c.name
        c.settle = functools.partial(counted, c.settle)

    class PassCounter(Component):  # undeclared: it runs in every pass
        passes = 0

        def settle(self) -> None:
            self.passes += 1

    probe = PassCounter(drv.sim, "probe")
    cycles = RtlWorstCase._apply(drv, inputs["ops"])
    assert cycles == inputs["table6"]
    assert sum(cycles) == 12_506 and len(components) == 21
    assert probe.passes == 30_263
    assert 21 * 12_506 <= evaluations[0] <= 330_000
