"""Two-phase synchronous simulator, driven by activity.

Every simulated clock cycle runs in two phases:

1. **Settle** -- the components with a ``settle`` that something they
   read has moved run, in registration order, pass after pass until
   nothing is due (a fixed point); the iteration bound catches
   combinational loops, which are modelling errors.  Wires are state:
   each holds what its driver's latest run drove onto it, across clock
   edges, so a settle starts from the last cycle's settled values, not
   from defaults.  A pass costs what it touches, not what the design
   declares: a ``Wire.drive`` / ``Reg.stage`` that changes nothing
   returns at once.

   **A component runs only in a cycle where something it reads moved.**
   A component that declares :attr:`Component.reads` is *due* when a
   signal it lists moved since it last ran:

   * a wire another run changed (or put back to its default, below) --
     a change made by a component registered earlier makes it due later
     in the same pass, any other change (its own included, so a
     self-loop still ends in :class:`CombinationalLoopError`) in the
     next pass;
   * a register that changed at the clock edge, in a ``tick``'s
     :meth:`~repro.hdl.signal.Reg.commit`, or by
     :meth:`~repro.hdl.signal.Reg.force` (which also makes its owner
     due: the force dropped the owner's stage);
   * an outside write: a wire driven between settles (its driver is due
     too), a stage made outside a settle (its owner is due),
     :meth:`Component.wake`, :meth:`Simulator.reset`.

   Skipping is exact, not a heuristic: re-run on the same signal values,
   a ``settle`` makes the same drives and stages, and a drive or stage
   that repeats the held value is a no-op.  So a cycle costs the
   components that see a change (about 6 of the label-stack modifier's
   21 per cycle), and ends as soon as nothing is due.

   **A driver that stops driving a wire puts it back to its default.**
   After a component runs, every wire it was the last to change and did
   not drive in this run (each drive stamps the wire with the run)
   returns to its default -- a change like any other, but not a drive:
   another component may take the wire over in the same pass.  That is
   what the old per-cycle revert to defaults did for a driver such as
   the search machine, which drives ``read_counter.clear`` and the
   comparator inputs only in some states.  Registers stage only in the
   run that decides them: a component's registers are unstaged just
   before it runs a second time in one settle, a register no declared
   component owns before every pass that runs an undeclared component.
   A stage made outside a settle (a test bench's) stands as if made
   before the settle's first run, and each unstage puts it back: it
   commits unless the owner's latest run stages the register (a hold
   included).  The stages :meth:`Simulator.settle_only` made are
   dropped after it, and their owners are due: the settle at the edge
   decides them again.  A settle that raises drops every stage and puts
   back to its default every wire the interrupted run changed; then all
   is due, ticks included.

   A component without ``reads`` (``None``, the default: test benches,
   toy machines, probes) runs in every pass, and the passes go on until
   one changes nothing.

2. **Tick** -- all sequential elements (registers, memories, FSM state)
   commit their staged updates atomically, then tracing hooks observe
   the new architectural state (wires still hold the settled values of
   the cycle just ended).  Ticks run in registration order.  A
   component with a ``tick`` and no ``settle`` that declares ``reads``
   promises an idempotent tick (a synchronous RAM: the same ports write
   and read the same words twice): it ticks only on an edge where one
   of its wires moved since its last tick, or after
   :meth:`Component.wake`; any other tick runs on every edge.

Components register themselves with the simulator on construction, so a
design is simply a tree of :class:`Component` objects sharing one
:class:`Simulator`.

Declaring ``reads`` for a new component
---------------------------------------
Set ``self.reads`` in ``__init__`` (a class attribute ``reads = ()``
for a component that reads no signal) to every :class:`Wire` and every
:class:`Reg` whose ``value`` its ``settle`` can read in any state, on
any branch: its own inputs, its own registers when it reads them, and
any other component's signals.  A wire it only drives is not listed,
unless another component may drive that wire while it does (a drive
compares with the value held, which is then someone else's): a
component drives a wire from a run that drives it until a run that does
not, across edges, so one that no signal re-runs drives for good.  State
that is no signal (a CAM's store, a test bench's table) is announced
with :meth:`Component.wake` where it changes.  A declared component
stages only the registers it created with :meth:`Component.reg`, and
nothing else stages them.  An FSM lists, once for the whole machine,
what every ``on_<STATE>`` handler reads (its state register is added
for it): a new state handler that reads a new signal adds it to the
machine's ``reads`` in the same change.  A signal read but not listed
is a stale read, not an error: ``tests/hw/test_read_sets.py`` records
what each evaluation reads and must stay green.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.hdl.signal import Clock, Reg, Signal, Wire


class CombinationalLoopError(RuntimeError):
    """The settle phase did not reach a fixed point.

    Raised when wires keep changing after :data:`MAX_SETTLE_PASSES`
    iterations -- the Python analogue of an unstable combinational loop
    in RTL.
    """


class Component:
    """Base class for everything that lives in the simulated design.

    Subclasses override any of:

    * :meth:`settle` -- combinational logic; read any signal, drive
      wires, stage registers.  May run several times per cycle, or not
      at all in a cycle where nothing it reads moved, and must therefore
      be side-effect free apart from signal updates.
    * :meth:`tick` -- sequential commit beyond plain :class:`Reg`
      commits (e.g. memory arrays).  Runs once per cycle (a declared
      idempotent tick: once per cycle its wires moved in).
    * :meth:`reset` -- return internal state to power-on values.
    """

    #: The signals :meth:`settle` reads (for a component with only a
    #: :meth:`tick`: the wires its idempotent tick reads), or ``None``:
    #: evaluate it in every settle pass.  Read once, when the simulator
    #: binds its hooks.
    reads: Optional[Tuple[Signal, ...]] = None
    #: the registers :meth:`reg` created, in creation order
    _regs: Tuple[Reg, ...] = ()
    #: this component's bits in the simulator's due masks (set when the
    #: simulator binds its hooks)
    _bit = _tick_bit = 0

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        #: the wires this component's settle has changed, learned as it
        #: runs: the ones it may have to put back to their default
        self._held: List[Wire] = []
        sim._register_component(self)

    # -- construction helpers ------------------------------------------------
    def wire(self, name: str, width: int = 1, default: int = 0) -> Wire:
        return self.sim.add_wire(f"{self.name}.{name}", width, default)

    def reg(self, name: str, width: int = 1, default: int = 0) -> Reg:
        reg = self.sim.add_reg(f"{self.name}.{name}", width, default)
        self._regs += (reg,)
        return reg

    def wake(self) -> None:
        """Run this component's settle and tick at the next opportunity:
        state of its own that no signal shows has moved."""
        sim = self.sim
        sim._due |= self._bit
        sim._tick_due |= self._tick_bit

    # -- simulation hooks ----------------------------------------------------
    def settle(self) -> None:  # pragma: no cover - default no-op
        """Combinational logic; may run multiple times per cycle."""

    def tick(self) -> None:  # pragma: no cover - default no-op
        """Extra sequential commit work (memories etc.)."""

    def reset(self) -> None:  # pragma: no cover - default no-op
        """Restore power-on state beyond signal defaults."""


def _overrides(component: Component, name: str) -> bool:
    return getattr(type(component), name) is not getattr(Component, name)


#: upper bound on fixed-point iterations per cycle before a
#: :class:`CombinationalLoopError` is raised; real designs here settle in
#: a handful of passes
MAX_SETTLE_PASSES = 64


class Simulator:
    """Owns the clock, the signal table, and the component list."""

    def __init__(self) -> None:
        self.cycle = 0
        self._components: List[Component] = []
        self._signals: Dict[str, Signal] = {}
        self._clock = Clock()
        # the activity logs; signals hold their bound ``append``, so
        # these lists are never rebound
        self._changed: List[Wire] = []  # by the run in progress, or outside
        self._staged: List[Reg] = []
        self._moved: List[Reg] = []  # changed by a tick's commit or a force
        # what is due at the next settle / edge (bit masks)
        self._due = self._tick_due = 0
        # what _bind_hooks() returns, built at the first edge after a
        # registration
        self._hooks: tuple = ()
        self._tick_hooks: Tuple[Callable[[int], None], ...] = ()

    # -- registration ----------------------------------------------------
    def _register_component(self, component: Component) -> None:
        self._components.append(component)
        self._hooks = ()

    def _bind_hooks(self) -> tuple:
        """``(plan, undeclared, everything, gated, always, ticks)``: the
        *i*-th component that overrides ``settle`` as ``plan[1 << i] =
        (settle, its own registers, the bits above i, the wires it
        holds)``; the bits of the components without ``reads``; the bits
        of all; the bits of the idempotent ticks and of the others (every
        edge); the *j*-th component that overrides ``tick`` as
        ``ticks[1 << j]``, so that bit order is registration order.  Each
        signal learns the bits of its declared readers, each register its
        owner's, each wire its ticks'; all of it is due."""
        settlers = [c for c in self._components if _overrides(c, "settle")]
        for signal in self._signals.values():
            signal._readers = 0
            if isinstance(signal, Wire):
                signal._tickers = 0
            else:
                signal._by = 0
        plan, undeclared = {}, 0
        for index, component in enumerate(settlers):
            bit, regs = 1 << index, ()
            component._bit = bit
            if component.reads is None:
                undeclared |= bit
            else:
                for signal in component.reads:
                    if not isinstance(signal, Signal):
                        raise TypeError(
                            f"{component.name}.reads lists {signal!r}: "
                            f"only wires and registers are read"
                        )
                    signal._readers |= bit
                regs = component._regs
                for reg in regs:
                    reg._by = bit
            plan[bit] = (component.settle, regs, -(bit << 1), component._held)
        ticks, gated, always = {}, 0, 0
        for component in self._components:
            if not _overrides(component, "tick"):
                continue
            bit = 1 << len(ticks)
            ticks[bit] = component.tick
            if component.reads is None or _overrides(component, "settle"):
                always |= bit
                continue
            component._tick_bit = bit
            gated |= bit
            for wire in component.reads:
                if not isinstance(wire, Wire):
                    raise TypeError(
                        f"{component.name}.reads lists {wire!r}: a tick "
                        f"that declares its reads lists wires only"
                    )
                wire._tickers |= bit
        everything = (1 << len(settlers)) - 1
        self._hooks = (plan, undeclared, everything, gated, always, ticks)
        self._due, self._tick_due = everything, gated
        return self._hooks

    def add_wire(self, name: str, width: int = 1, default: int = 0) -> Wire:
        wire = Wire(name, width, default)
        self._add_signal(wire)
        wire._clock = self._clock
        wire._log_changed = self._changed.append
        return wire

    def add_reg(self, name: str, width: int = 1, default: int = 0) -> Reg:
        reg = Reg(name, width, default)
        self._add_signal(reg)
        reg._log_staged = self._staged.append
        reg._log_moved = self._moved.append
        return reg

    def _add_signal(self, signal: Signal) -> None:
        if signal.name in self._signals:
            raise ValueError(f"duplicate signal name {signal.name!r}")
        self._signals[signal.name] = signal
        self._hooks = ()

    @property
    def components(self) -> List[Component]:
        """The registered components, in construction order.

        Observability tooling (:class:`repro.obs.profiling.CycleProfiler`)
        discovers FSMs and memories from this list instead of reaching
        into private state.
        """
        return list(self._components)

    def signal(self, name: str) -> Signal:
        return self._signals[name]

    def on_tick(self, hook: Callable[[int], None]) -> None:
        """Register a hook called after each clock edge with the cycle
        number just completed (used by waveform recorders and the cycle
        profiler)."""
        self._tick_hooks += (hook,)

    def remove_tick_hook(self, hook: Callable[[int], None]) -> None:
        """Detach a hook previously passed to :meth:`on_tick`.  :meth:`step`
        iterates the tuple it found, so a hook may detach itself mid-edge."""
        hooks = list(self._tick_hooks)
        hooks.remove(hook)
        self._tick_hooks = tuple(hooks)

    # -- simulation ------------------------------------------------------
    def _settle(self) -> Dict[Reg, int]:
        """Settle to a fixed point; returns the stages made outside it
        (register -> value)."""
        plan, undeclared, everything, gated, _, _ = self._hooks or self._bind_hooks()
        changed, staged, moved = self._changed, self._staged, self._moved
        clock = self._clock
        due, self._due = self._due, 0
        tickers = 0
        try:
            # the outside writes since the last settle
            for wire in changed:
                due |= wire._readers | wire._by
                tickers |= wire._tickers
            changed.clear()
            for reg in moved:
                due |= reg._readers | reg._by
            moved.clear()
            bench = {}  # each unstage below puts these back
            for reg in staged:
                if reg._staged == 2:
                    bench[reg] = reg._next
                    due |= reg._by
            ran, token, passes = 0, clock.run, 0
            while passes < MAX_SETTLE_PASSES:
                passes += 1
                clock.sweep += 1
                if undeclared:
                    due |= undeclared
                    for reg in staged:  # staged by an undeclared run: redone
                        if reg._staged == 2 and not reg._by:
                            nxt = reg._next = bench.get(reg)
                            if nxt is None:
                                reg._staged = 1
                upcoming, moving = 0, False
                while due:  # the due components, lowest bit first
                    bit = due & -due
                    due ^= bit
                    settle, regs, above, held = plan[bit]
                    if ran & bit:  # a second run: only its latest stages stand
                        for reg in regs:
                            if reg._staged == 2:
                                nxt = reg._next = bench.get(reg)
                                if nxt is None:
                                    reg._staged = 1
                    ran |= bit
                    token += 1
                    clock.run = token
                    settle()
                    readers = 0
                    if changed:
                        moving = True
                        for wire in changed:
                            readers |= wire._readers
                            tickers |= wire._tickers
                            if wire._by != bit:
                                wire._by = bit
                                if not wire._drivers & bit:
                                    wire._drivers |= bit
                                    held.append(wire)
                        changed.clear()
                    # what it changed last and did not drive now: default
                    for wire in held:
                        if (
                            wire._seen != token
                            and wire._by == bit
                            and wire.value != wire.default
                        ):
                            wire.value = wire.default
                            readers |= wire._readers
                            tickers |= wire._tickers
                            moving = True
                    if readers:
                        # readers registered later run later in this pass,
                        # the others (the changer too) in the next
                        later = readers & above
                        due |= later
                        upcoming |= readers ^ later
                if not upcoming and not (moving and undeclared):
                    self._tick_due |= tickers
                    return bench
                due = upcoming
            raise CombinationalLoopError(
                f"combinational logic failed to settle within "
                f"{MAX_SETTLE_PASSES} passes at cycle {self.cycle}"
            )
        except BaseException:
            # whatever this settle left half done, the next one redoes
            for wire in changed:  # the interrupted run's
                wire.value = wire.default
            for reg in staged:
                reg._staged = 1
                reg._next = None
            self._due, self._tick_due = everything, gated
            raise

    def step(self, cycles: int = 1) -> int:
        """Advance the clock by ``cycles`` edges; returns the new cycle
        count."""
        staged = self._staged
        for _ in range(cycles):
            self._settle()
            due = self._due
            for reg in staged:
                if reg._staged == 2:
                    nxt = reg._next
                    if nxt != reg.value:
                        reg.value = nxt
                        due |= reg._readers
                    reg._next = None
                reg._staged = 0
            staged.clear()
            self._due = due
            _, _, everything, gated, always, ticks = self._hooks
            ticked, self._tick_due = self._tick_due | always, 0
            try:
                while ticked:  # lowest bit first: in registration order
                    bit = ticked & -ticked
                    ticked ^= bit
                    ticks[bit]()
            except BaseException:
                # the ticks it did not reach run at the next edge
                self._due, self._tick_due = everything, gated
                raise
            self.cycle += 1
            for hook in self._tick_hooks:
                hook(self.cycle)
        return self.cycle

    def settle_only(self) -> None:
        """Settle combinational logic without advancing the clock.

        Useful for observing Mealy outputs that depend on inputs applied
        since the last edge.  What the settle staged, the settle at the
        edge decides again.
        """
        bench = self._settle()
        for reg in self._staged:
            if reg._staged == 2:
                if reg in bench:
                    reg._next = bench[reg]
                else:
                    reg._staged = 1
                    reg._next = None
                    self._due |= reg._by

    def reset(self) -> None:
        """Asynchronous reset: all signals to defaults, components to
        power-on state, cycle counter rezeroed; everything is due."""
        for signal in self._signals.values():
            signal.reset()
        for reg in self._staged:
            reg._staged = 0
        self._changed.clear()
        self._staged.clear()
        self._moved.clear()
        for component in self._components:
            component.reset()
        self.cycle = 0
        _, _, everything, gated, _, _ = self._hooks or self._bind_hooks()
        self._due, self._tick_due = everything, gated
