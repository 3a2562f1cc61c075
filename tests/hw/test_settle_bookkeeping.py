"""The simulator's activity logs on the real design.

Registers are staged and committed *inside* the tick phase
(``SyncMemory.tick``, ``HardwareStack.tick``), and ``Reg.force`` /
``unstage`` / ``reset`` drop a stage without a commit: none of that may
make a log grow, lose a signal, or change what a tick hook observes
after the edge (wires still hold the settled values of the cycle just
ended -- the waveform recorder and the cycle profiler read them).
"""

import random

import pytest

from repro.hdl.signal import Reg, Wire
from repro.hw.driver import ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.mpls.label import LabelEntry, LabelOp
from tests.strategies.hw import (
    GOLDEN,
    OPS,
    management_mix,
    observed,
    worstcase_mix,
)


def check_logs(sim):
    """Every log holds a signal at most once and misses none: a wire
    outside the driven log sits undriven at its default, a register
    outside the staged log has nothing staged."""
    for log in (sim._driven, sim._changed, sim._staged):
        assert len(set(map(id, log))) == len(log) <= len(sim._signals)
    driven = set(map(id, sim._driven))
    staged = set(map(id, sim._staged))
    for signal in sim._signals.values():
        if isinstance(signal, Wire) and id(signal) not in driven:
            assert signal._driven == 0 and signal.value == signal.default
        if isinstance(signal, Reg) and id(signal) not in staged:
            assert signal._staged == 0


def test_logs_stay_bounded_over_mixed_traffic():
    rng = random.Random(13)
    drv = ModifierDriver(ib_depth=64)
    sim = drv.sim
    sim.on_tick(lambda _cycle: check_logs(sim))
    drv.reset()
    stored = {1: [], 2: [], 3: []}
    resets = swaps = 0
    while drv.total_cycles < 10_000:
        roll = rng.random()
        level = rng.choice((1, 2, 3))
        if roll < 0.30 and len(stored[level]) < 60:
            key = rng.randrange(16, 1 << 20)
            drv.write_pair(level, key, rng.randrange(16, 1 << 20), rng.choice(OPS))
            stored[level].append(key)
        elif roll < 0.60:
            hit = stored[level] and rng.random() < 0.7
            key = rng.choice(stored[level]) if hit else 5
            assert drv.search(level, key).found == bool(hit)
        elif roll < 0.75:
            drv.user_push(LabelEntry(label=rng.randrange(16, 1 << 20), ttl=64, s=0))
            drv.update()  # hit or discard: both end with the FSMs idle
            while drv.stack():
                drv.user_pop()
        elif roll < 0.85 and stored[level]:
            drv.remove_pair(level, stored[level].pop())
        elif roll < 0.93:
            # bank swap: load_pairs() forces the write counters
            drv.bank_begin()
            for lvl in (1, 2, 3):
                stored[lvl] = rng.sample(range(16, 1 << 20), 5)
                for key in stored[lvl]:
                    drv.bank_write_pair(lvl, key, 77, LabelOp.SWAP)
            drv.bank_commit()
            swaps += 1
        else:
            # reset mid-run, with a stage pending and wires driven
            sim.settle_only()
            drv.reset()
            stored = {1: [], 2: [], 3: []}
            resets += 1
        check_logs(sim)
    assert resets and swaps


# -- what tick hooks observe ---------------------------------------------------
@pytest.mark.parametrize("scenario", GOLDEN, ids=lambda s: s.__name__)
def test_recorder_and_profiler_output_unchanged(scenario):
    assert observed(scenario) == GOLDEN[scenario]


@pytest.mark.parametrize(
    "scenario", [worstcase_mix, management_mix], ids=lambda s: s.__name__
)
def test_rtl_equals_functional_model_result_by_result(scenario):
    drv, model = ModifierDriver(ib_depth=1024), FunctionalModifier(ib_depth=1024)
    drv.reset()
    model.reset()
    assert scenario(drv) == scenario(model)
    assert list(drv.stack()) == list(model.stack())
    assert drv.ib_counts() == model.ib_counts()
    for level in (1, 2, 3):
        assert drv.ib_pairs(level) == model.ib_pairs(level)
