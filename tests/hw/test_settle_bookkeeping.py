"""The simulator's activity logs on the real design.

Registers are staged and committed *inside* the tick phase
(``SyncMemory.tick``, ``HardwareStack.tick``), and ``Reg.force`` /
``unstage`` / ``reset`` drop a stage without a commit: none of that may
make a log grow, lose a signal, or change what a tick hook observes
after the edge (wires still hold the settled values of the cycle just
ended -- the waveform recorder and the cycle profiler read them).
"""

import hashlib
import json
import random

import pytest

from benchmarks.perf.workloads import RtlWorstCase
from repro.hdl.signal import Reg, Wire
from repro.hdl.waveform import WaveformRecorder, render_ascii
from repro.hw.driver import ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.mpls.label import LabelEntry, LabelOp
from repro.obs.profiling import CycleProfiler
from tests.hw.test_rtl_vs_model import _apply as apply_step

OPS = [LabelOp.PUSH, LabelOp.SWAP, LabelOp.POP]


def check_logs(sim):
    """Every log holds a signal at most once and misses none: a wire
    outside the driven log sits undriven at its default, a register
    outside the staged log has nothing staged."""
    for log in (sim._driven, sim._changed, sim._staged):
        assert len(set(map(id, log))) == len(log) <= len(sim.signals)
    driven = set(map(id, sim._driven))
    staged = set(map(id, sim._staged))
    for signal in sim.signals.values():
        if isinstance(signal, Wire) and id(signal) not in driven:
            assert signal._driven == 0 and signal.value == signal.default
        if isinstance(signal, Reg) and id(signal) not in staged:
            assert signal._staged == 0 and not signal.staged


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
def figure14(drv):
    for i in range(10):
        drv.write_pair(1, 600 + i, 500 + i, OPS[(i + 1) % 3])
    drv.search(1, 604)


def figure15(drv):
    for i in range(10):
        drv.write_pair(2, i + 1, 500 + i, OPS[i % 3])
    for old in range(1, 11):
        drv.search(2, old)


def figure16(drv):
    for i in range(10):
        drv.write_pair(2, i + 1, 500 + i, OPS[i % 3])
    drv.search(2, 5)
    drv.search(2, 27)


def worstcase_mix(dev):
    """The ``rtl_worstcase`` operation list at ``--scale 0.05``: the
    section-4 composite plus the Table 6 mix, cycles op by op."""
    return RtlWorstCase._apply(dev, RtlWorstCase().generate(7, 0.05)["ops"])


def management_mix(dev):
    """Management in orders no other test uses, result by result.

    A direct read presents its address in a later settle pass than the
    level's ``r_index`` default, so a read of entry 0 right after a
    search that left ``r_index`` elsewhere is what a kernel that loses
    a re-drive gets wrong.
    """
    seen = []

    def step(kind, arg=None):
        seen.append(apply_step(dev, (kind, arg)))

    for level in (1, 2, 3):
        for i in range(7):
            step("write", (level, 100 + i, 510 * level + i, OPS[(level + i) % 3]))
    for level in (1, 2, 3):
        step("search", (level, 104))  # leaves r_index at 4
        for address in (0, 6, 7):  # first, count - 1, one past
            step("read", (level, address))
        for index in (100, 103, 106, 999):  # first, middle, last, miss
            step("modify", (level, index, 700 + index % 10, LabelOp.POP))
        step("search", (level, 106))  # leaves r_index at 6
        step("read", (level, 0))
        # the last pair fills each hole: 100 goes, then 103, then 104
        # (last by now), then a miss
        for index in (100, 103, 104, 999):
            step("remove", (level, index))
        step("read", (level, 0))
        step("read", (level, 3))
    dev.bank_begin()
    for level in (1, 2, 3):
        seen.append(dev.bank_write_pair(level, 40 + level, 900, LabelOp.SWAP))
    dev.bank_rollback()
    step("search", (2, 42))  # never visible
    step("search", (2, 105))
    dev.bank_begin()
    for level in (1, 2, 3):
        for i in range(4):
            seen.append(
                dev.bank_write_pair(level, 40 + i, 900 + level + i, OPS[i % 3])
            )
    seen.append(dev.bank_commit())
    for level in (1, 2, 3):
        step("search", (level, 105))  # gone with the old bank
        step("search", (level, 43))  # leaves r_index at 3
        step("read", (level, 0))
        step("read", (level, 3))
    for depth, label in enumerate((40, 300, 41)):  # nested to depth 3
        step("push", LabelEntry(label=label, ttl=9, s=1 if depth == 0 else 0))
    step("update", (0, 64))  # level 3 hit: a swap
    step("pop")
    step("update", (0, 64))  # label 300 at level 2: a discard
    step("read", (2, 0))
    seen.append(dev.reset())  # mid-sequence
    step("read", (1, 0))  # nothing stored: invalid
    step("update", (41, 64))  # empty stack, empty level: a discard
    step("write", (1, 41, 901, LabelOp.PUSH))
    step("update", (41, 64))  # the ingress push
    step("search", (1, 41))
    step("read", (1, 0))
    return seen


def observed(scenario) -> str:
    """Digest of everything the recorder (every signal, every cycle) and
    the profiler saw while the scenario ran, and of what it returned."""
    drv = ModifierDriver(ib_depth=1024)
    recorder = WaveformRecorder(drv.sim)
    profiler = CycleProfiler(drv.sim)
    drv.attach_profiler(profiler)
    drv.reset()
    results = scenario(drv)
    profiler.check_conservation()
    parts = [
        render_ascii(recorder, max_width=10_000),
        json.dumps([recorder.cycles, recorder.trace], sort_keys=True),
        profiler.render(),
    ]
    if results is not None:
        parts.append(json.dumps(results, default=LabelEntry.encode))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


#: simulated-domain output, so it never moves.  The figures were computed
#: at the commit before the activity logs (sweep-and-snapshot kernel),
#: the two mixes at 3faf357, the commit before drive / stage no-ops
#: returned early.
GOLDEN = {
    figure14: "5a267a4916827cb2e27ff8537191f5d4e516dab7c9a36f1db2e0bf5612a05926",
    figure15: "4eb4061747ad0fc241e7e63264514194ef42077273f5564ac384643344b4b252",
    figure16: "756ca19b49647985408e42e12084899f490eb1106b035ca50005ffa04460570a",
    worstcase_mix: "af8d0441ee09c46bdcac975d0559492fe6f3d4745d50ebe321d181de1182a118",
    management_mix: "9cd06d5ae6eaeb26eae410e08c9e87fd3dfc5ad7910ea522acc1a62bed2e25e7",
}


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
