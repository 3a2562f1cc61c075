"""What the label-stack-modifier suites drive: op steps, scenario mixes,
and the CAM's pins.

* :data:`op_step` / :func:`apply_op` -- one random operation on any
  :class:`~repro.hw.model.ModifierBackend` (the RTL driver or the
  functional model), and what it returned, so two backends can be
  compared step by step;
* the Figures 14-16 scenarios and the two operation mixes, with
  :func:`observed` (a digest of everything a waveform recorder and a
  cycle profiler saw while one ran) and their :data:`GOLDEN` digests;
* :class:`CAMPins`, :func:`cam_write` and :func:`cam_search` -- a test
  bench for one :class:`~repro.hw.cam.CAMInfoBaseLevel`.
"""

import hashlib
import json

from hypothesis import strategies as st

from benchmarks.perf.workloads import RtlWorstCase
from repro.hdl.simulator import Component
from repro.hdl.waveform import WaveformRecorder, render_ascii
from repro.hw.driver import ModifierDriver
from repro.mpls.label import LabelEntry, LabelOp
from repro.obs.profiling import CycleProfiler

# -- one operation on either backend ------------------------------------------
# Small domains so collisions (hits) actually happen.
small_labels = st.integers(min_value=16, max_value=24)
ops = st.sampled_from(list(LabelOp))
levels = st.integers(min_value=1, max_value=3)
ttls = st.integers(min_value=0, max_value=5)
entries = st.builds(
    LabelEntry,
    label=small_labels,
    cos=st.integers(min_value=0, max_value=7),
    s=st.integers(min_value=0, max_value=1),
    ttl=ttls,
)


op_step = st.one_of(
    st.tuples(st.just("push"), entries),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("write"), st.tuples(levels, small_labels, small_labels, ops)),
    st.tuples(st.just("search"), st.tuples(levels, small_labels)),
    st.tuples(st.just("update"), st.tuples(small_labels, ttls)),
    st.tuples(
        st.just("modify"), st.tuples(levels, small_labels, small_labels, ops)
    ),
    st.tuples(st.just("remove"), st.tuples(levels, small_labels)),
    st.tuples(
        st.just("read"),
        st.tuples(levels, st.integers(min_value=0, max_value=12)),
    ),
    st.tuples(
        st.just("forward"),
        st.tuples(st.lists(entries, max_size=3), small_labels, ttls),
    ),
)


def apply_op(impl, step):
    kind, arg = step
    if kind == "push":
        return ("push", impl.user_push(arg), tuple(impl.stack()))
    if kind == "pop":
        popped, cycles = impl.user_pop()
        return ("pop", popped, cycles, tuple(impl.stack()))
    if kind == "write":
        level, index, label, op = arg
        return ("write", impl.write_pair(level, index, label, op), impl.ib_counts())
    if kind == "search":
        level, key = arg
        r = impl.search(level, key)
        return ("search", r.found, r.label, r.op, r.discarded, r.cycles)
    if kind == "modify":
        level, index, label, op = arg
        r = impl.modify_pair(level, index, label, op)
        return ("modify", r.found, r.cycles, impl.ib_counts())
    if kind == "remove":
        level, index = arg
        r = impl.remove_pair(level, index)
        return ("remove", r.found, r.cycles, impl.ib_counts())
    if kind == "read":
        level, address = arg
        r = impl.read_entry(level, address)
        return ("read", r.valid, r.index, r.label, r.op, r.cycles)
    if kind == "forward":
        stack, packet_id, ttl = arg
        log = []
        r, cycles = impl.forward(stack, packet_id=packet_id, ttl=ttl, log=log)
        # the RTL's UpdateResult reports no search/modify split of the
        # UPDATE: compare the top-level phases
        phases = [phase for phase in log if phase[1] is None]
        return (
            "forward", r.performed, r.discarded, r.cycles, r.stack, cycles,
            phases, impl.total_cycles, tuple(impl.stack()),
        )
    level_key, ttl = arg
    r = impl.update(packet_id=level_key, ttl=ttl)
    return ("update", r.performed, r.discarded, r.cycles, r.stack)


# -- the scenarios whose waveforms are pinned ----------------------------------
OPS = [LabelOp.PUSH, LabelOp.SWAP, LabelOp.POP]


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
        seen.append(apply_op(dev, (kind, arg)))

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


# -- a CAM level's test bench ------------------------------------------------------
class CAMPins(Component):
    def __init__(self, sim):
        super().__init__(sim, "drv")
        self.values = {}

    def set(self, wire, value):
        self.values[wire] = value

    def settle(self):
        for wire, value in self.values.items():
            wire.drive(value)


def cam_write(sim, drv, cam, index, label, op):
    drv.set(cam.wr_en, 1)
    drv.set(cam.wr_index, index)
    drv.set(cam.wr_label, label)
    drv.set(cam.wr_op, op)
    sim.step()
    drv.set(cam.wr_en, 0)


def cam_search(sim, drv, cam, key):
    drv.set(cam.search_en, 1)
    drv.set(cam.search_key, key)
    cycles = 0
    sim.step()
    cycles += 1
    drv.set(cam.search_en, 0)
    while not cam.done.value:
        sim.step()
        cycles += 1
    return cycles

