"""Random designs for the settle kernel.

A design is data, so it can be built twice: once on each set of
primitives (a *kit*: the ``Wire`` / ``Reg`` classes the simulator
constructs and the ``Counter`` / ``Register`` / ``SyncMemory`` / ``FSM``
components a design is assembled from).  Every builder takes the kit
first and returns ``(sim, spy, bench)``: the simulator, the
:class:`Spy` recording what each settle pass saw (or None), and per
cycle a test-bench write ``(signal index, value, forced)`` made before
the edge -- a :meth:`~repro.hdl.signal.Reg.force` if ``forced``, else a
stage -- or None (None for no bench at all).

Three families:

* :func:`designs` -- processes over a signal list (:func:`proc`,
  :func:`build_processes`): conflicts, combinational loops, conditional
  drivers and stagers, second stagers of a register, declared and
  undeclared read sets (registers listed like wires), stages and forces
  a test bench makes between edges;
* :func:`chains` -- a constant and a chain of processes that re-run,
  registered in a drawn order;
* :func:`counter_chains` / :func:`schedules` -- the hdl primitives
  themselves: a counter that a comparator clears behind a selector
  (:func:`build_chain`), and a counter + memory + register + FSM
  machine under scheduled controls (:func:`build_machine`).
"""

from typing import List, Tuple

from hypothesis import strategies as st

from repro.hdl.comparator import EqualityComparator
from repro.hdl.signal import Wire
from repro.hdl.simulator import MAX_SETTLE_PASSES, Component, Simulator
from tests.strategies import arranged, chunks, lehmer, picks

WIDTH = 4
MASK = (1 << WIDTH) - 1
MAX_PASSES = MAX_SETTLE_PASSES
#: a signal is a wire or a register
W, R = False, True


class Spy(Component):
    """Registered first, reads undeclared: records every signal as each
    settle pass begins (so every pass happens)."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "spy")
        self.seen: List[Tuple[int, ...]] = []

    def settle(self) -> None:
        self.seen.append(tuple(s.value for s in self.sim._signals.values()))


# -- processes over a signal list ---------------------------------------------
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
#: mostly conditional stagers: those get revoked
REG_KINDS = ["when", "unless", "when", "unless", "incr", "follow"]


def proc(kind, dst, a, b, c, declared=False, extra=(), dropped=None):
    """A process: ``kind`` over signals ``dst`` / ``a`` / ``b`` and the
    constant ``c``; ``declared`` (it lists its reads) or not; when
    declared, ``extra`` wires listed beyond what the kind reads, and one
    wire (``dropped``) left out of the list."""
    return (kind, dst, a, b, c, declared, extra, dropped)


class Process(Component):
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


def spec(defaults, procs, bench=None):
    """A process design: signals as ``(is_reg, default)``, processes as
    :func:`proc` tuples in registration order, per cycle a test-bench
    write or None."""
    return defaults, procs, bench or [None] * 6


def build_processes(kit, design, spy: bool = True):
    """A register belongs to the first process staging it when that one
    is declared, and is created by it (named ``p<i>.s<j>``)."""
    defaults, procs, bench = design
    sim = Simulator()
    watcher = Spy(sim) if spy else None
    made = [Process(sim, i, p[0], p[4]) for i, p in enumerate(procs)]
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
            process.reads = tuple(signals[i] for i in listed if i != dropped)
    return sim, watcher, bench


@st.composite
def designs(draw, under_declared: bool = False):
    """One process per signal in a drawn order (so drivers come late as
    often as early), sometimes none; sources may be any signal, the
    process's own output included, which closes combinational loops.
    Either no process declares its reads (every one runs every pass) or
    most do.  Mixed in: a second driver on a driven wire (a conflict
    unless the two agree; every declared driver of the wire lists it, as
    the contract asks), a second, undeclared stager of a register before
    or after the first (a change then a hold, a hold then a change), and
    test-bench stages and forces between edges.  With ``under_declared``,
    one declared process leaves a signal it reads out of its list."""
    count = draw(st.integers(2, 8))
    # the signals: whether most processes declare their reads, the
    # order the processes register in, each signal's kind and default
    drawn = draw(picks(2, *lehmer(count), *[5, MASK + 1] * count))
    mostly_declared = drawn[0] == 1
    order = arranged(range(count), drawn[1:count + 1])
    defaults = [(kind >= 3, default) for kind, default in chunks(drawn[count + 1:], 2)]
    wires = [i for i, (is_reg, _) in enumerate(defaults) if not is_reg]
    regs = [i for i, (is_reg, _) in enumerate(defaults) if is_reg]
    # a source is any signal, or (as often) a wire: chains of processes
    # that re-run
    sources = list(range(count)) + wires
    n = len(sources)
    # the processes, one per signal
    kinds = [REG_KINDS if dst in regs else WIRE_KINDS for dst in order]
    drawn = draw(picks(*[
        size for k in kinds for size in (6, len(k), 6, n, n, MASK + 1, 4)
    ]))
    procs: List[list] = []
    for dst, k, (driven, kind, loop, a, b, c, declared) in zip(
        order, kinds, chunks(drawn, 7)
    ):
        if driven:  # else left undriven: stays at its default
            procs.append(list(proc(
                k[kind], dst, dst if loop == 5 else sources[a], sources[b], c,
                mostly_declared and declared > 0,
            )))
    # a fight, a second stager, the test bench
    fought = sorted({p[1] for p in procs} & set(wires))
    drawn = draw(picks(
        3, len(procs) + 1, len(fought) or 1, 3, n, n, MASK + 1, 4,
        2, len(procs) + 2, len(regs) or 1, 4, 2, n, n, MASK + 1,
        *[5, len(regs) or 1, MASK + 1, 2] * 6,
    ))
    fight, at, dst, kind, a, b, c, declared = drawn[:8]
    if fought and fight == 2:
        dst = fought[dst]
        procs.insert(at, list(proc(
            ("const", "follow", "when")[kind], dst, sources[a], sources[b], c,
            mostly_declared and declared > 0,
        )))
        for p in procs:
            if p[1] == dst:
                p[6] = (dst,)
    second, at, dst, kind, hold, a, b, c = drawn[8:16]
    if regs and second:
        dst = regs[dst]
        # follow with a == dst and incr with a low are holds
        kind = ("follow", "incr", "when", "unless")[kind]
        a = dst if kind == "follow" and hold else sources[a]
        procs.insert(min(at, len(procs)), list(proc(kind, dst, a, sources[b], c)))
    bench = [
        (regs[reg], value, bool(forced)) if regs and written == 4 else None
        for written, reg, value, forced in chunks(drawn[16:], 4)
    ]
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
        ]
        if omissions:
            i, signal = draw(st.sampled_from(omissions))
            procs[i][7] = signal
    return defaults, [tuple(p) for p in procs], bench


@st.composite
def chains(draw):
    """``s0`` a constant, each next wire a function of the one before,
    the processes registered in a drawn order: a change reaches readers
    on both sides of its changer, pass after pass."""
    length = draw(st.integers(2, 6))
    drawn = draw(picks(
        MASK + 1, 2, *lehmer(length + 1), *[MASK + 1, 3, 4] * (length + 1)
    ))
    c, const_declared, code = drawn[0], drawn[1], drawn[2:length + 3]
    defaults, procs = [], []
    for i, (default, kind, declared) in enumerate(chunks(drawn[length + 3:], 3)):
        defaults.append((W, default))
        procs.append(
            proc("const", 0, 0, 0, c, bool(const_declared)) if i == 0
            else proc(("follow", "not", "eq")[kind], i, i - 1, 0, 0, declared > 0)
        )
    return spec(defaults, arranged(procs, code))


# -- the hdl primitives, chained ------------------------------------------------
class _Link(Component):
    def __init__(self, sim: Simulator, name: str, src, dst) -> None:
        super().__init__(sim, name)
        self.src, self.dst = src, dst

    def settle(self) -> None:
        self.dst.drive(self.src.value)


class _Select(Component):
    """A two-way selector: ``out`` is ``inputs[sel]``, reading its
    select and its inputs."""

    def __init__(self, sim: Simulator, name: str, inputs) -> None:
        super().__init__(sim, name)
        self.inputs = tuple(inputs)
        self.sel = self.wire("sel", 1)
        self.out = self.wire("out", WIDTH)
        self.reads = (self.sel, *self.inputs)

    def settle(self) -> None:
        self.out.drive(self.inputs[self.sel.value].value)


def build_chain(kit, order, limit: int, late_links: bool):
    """A counter that a comparator clears at ``limit``, its count and the
    limit behind a mux the comparator's output selects -- constructed
    (so evaluated) in the given order."""
    sim = Simulator()
    spy = Spy(sim)
    const = sim.add_wire("limit", WIDTH, limit)
    one = sim.add_wire("one", 1, 1)
    factories = {
        "counter": lambda: kit["Counter"](sim, "ctr", WIDTH),
        "cmp": lambda: EqualityComparator(sim, "cmp", WIDTH),
    }
    parts = {name: factories[name]() for name in order}
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
    mux = _Select(sim, "mux", [ctr.count, const])
    _Link(sim, "link_sel", cmp_.eq, mux.sel)
    return sim, spy, None


#: (construction order, limit, links registered last-first)
counter_chains = st.tuples(
    st.permutations(["counter", "cmp"]), st.integers(0, MASK), st.booleans()
)


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
    spy = Spy(sim)
    ctr = kit["Counter"](sim, "ctr", 3)
    mem = kit["SyncMemory"](sim, "mem", 8, 4)
    reg = kit["Register"](sim, "reg", 4)

    class Walker(kit["FSM"]):
        def __init__(self) -> None:
            super().__init__(sim, "fsm", ["IDLE", "RUN", "DONE"])
            self.go = self.wire("go", 1)

        def on_IDLE(self) -> str:
            reg.en.drive(0)
            return "RUN" if self.go.value else "IDLE"

        def on_RUN(self) -> str:
            reg.en.drive(1)
            return "DONE" if ctr.count.value & 1 else "RUN"

        def on_DONE(self) -> str:
            reg.en.drive(0)
            return "IDLE"

    fsm = Walker()
    _Stimulus(sim, schedule, [
        ctr.en, ctr.down, ctr.load, ctr.load_value, ctr.clear,
        reg.clear, mem.wr_en, mem.wr_data, fsm.go,
    ])
    _Glue(sim, ctr, mem, reg)
    return sim, spy, None


#: per cycle: ctr.en, ctr.down, ctr.load (rarely), ctr.load_value,
#: ctr.clear (rarely), reg.clear (rarely), mem.wr_en, mem.wr_data, fsm.go
CONTROLS = picks(2, 2, 8, 8, 8, 8, 2, 16, 2).map(
    lambda c: (c[0], c[1], int(c[2] == 7), c[3], int(c[4] == 7),
               int(c[5] == 7), c[6], c[7], c[8])
)
schedules = st.lists(CONTROLS, min_size=1, max_size=40)
