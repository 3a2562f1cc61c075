"""Two-phase synchronous simulator.

Every simulated clock cycle runs in two phases:

1. **Settle** -- components that have a ``settle`` run, in registration
   order, pass after pass until a pass changes no wire (a fixed point);
   the iteration bound catches combinational loops, which are modelling
   errors.  A pass costs what it touches, not what the design declares:
   a ``Wire.drive`` / ``Reg.stage`` that changes nothing returns at
   once, the others append to three logs.

   * *driven* -- wires a drive has changed so far this cycle.  Between
     passes these become drivable again, keeping their value (a wire
     driven in pass *k* and not again holds it for the rest of the
     cycle); at the next cycle only these revert to their default --
     every other wire is still at it, so first-pass readers see defaults.
   * *changed* -- wires whose value a drive changed this pass.  A
     second, differing drive in one pass raises, so a wire changes at
     most once per pass and never back: "nothing logged" is exactly
     "every wire's value before the pass equals its value after".
   * *staged* -- registers staged so far this cycle.  A stage whose
     condition a later pass revokes must never commit: only the final
     pass's staging is authoritative, and the edge commits only these.

   **A component re-runs only when a wire it reads changed.**  A
   component that declares :attr:`Component.reads` is evaluated in pass
   0, as every component is, and after that only when it is *due*: a
   wire in its ``reads`` changed since it last ran.  A change made by a
   component registered earlier makes it due later in the same pass;
   any other change -- its own included, so a self-loop still ends in
   :class:`CombinationalLoopError` -- in the next pass; a change made
   in pass 0, which runs everything anyway, makes every reader of the
   wire due in pass 1.  Due components run in registration order.  Skipping is
   exact, not a heuristic: re-run on the same wire values and the same
   registers (they only move at the edge), a ``settle`` makes the same
   drives and stages, and a drive or stage that repeats the held value
   is a no-op.  So every pass still happens and observes what it did,
   and the pass count per cycle is unchanged; when nothing is due and
   every component declares its reads, the next pass could not change a
   wire and the cycle is settled.  A due component's own registers are
   unstaged just before it re-runs; a register no declared component
   owns is unstaged between passes, as before.

   A component without ``reads`` (``None``, the default: test benches,
   toy machines, probes) runs in every pass.

2. **Tick** -- all sequential elements (registers, memories, FSM state)
   commit their staged updates atomically, then tracing hooks observe
   the new architectural state (wires still hold the settled values of
   the cycle just ended).

Components register themselves with the simulator on construction, so a
design is simply a tree of :class:`Component` objects sharing one
:class:`Simulator`.

Declaring ``reads`` for a new component
---------------------------------------
Set ``self.reads`` in ``__init__`` (a class attribute ``reads = ()``
for a component that reads no wire) to every :class:`Wire` whose
``value`` its ``settle`` can read in any state, on any branch: its own
input wires and any other component's.  Registers are not listed --
they hold still through the settle phase -- and neither is a wire it
only drives, unless another component may drive that wire in the same
cycle (a drive compares with the value held, which is then someone
else's).  A declared component stages only the registers it created
with :meth:`Component.reg`, and nothing else stages them.  An FSM
lists, once for the whole machine, what every ``on_<STATE>`` handler
reads: a new state handler that reads a new wire adds it to the
machine's ``reads`` in the same change.  A wire read but not listed is
a stale read, not an error: ``tests/hw/test_read_sets.py`` records what
each evaluation reads and must stay green.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.hdl.signal import Reg, Signal, Wire


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
      wires, stage registers.  May run several times per cycle and must
      therefore be side-effect free apart from signal updates.
    * :meth:`tick` -- sequential commit beyond plain :class:`Reg`
      commits (e.g. memory arrays).  Runs exactly once per cycle.
    * :meth:`reset` -- return internal state to power-on values.
    """

    #: The wires :meth:`settle` reads, or ``None``: evaluate it in every
    #: settle pass.  Read once, when the simulator binds its hooks.
    reads: Optional[Tuple[Wire, ...]] = None
    #: the registers :meth:`reg` created, in creation order
    _regs: Tuple[Reg, ...] = ()

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        sim._register_component(self)

    # -- construction helpers ------------------------------------------------
    def wire(self, name: str, width: int = 1, default: int = 0) -> Wire:
        return self.sim.add_wire(f"{self.name}.{name}", width, default)

    def reg(self, name: str, width: int = 1, default: int = 0) -> Reg:
        reg = self.sim.add_reg(f"{self.name}.{name}", width, default)
        self._regs += (reg,)
        return reg

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
        # the activity logs; signals hold their bound ``append``, so
        # these lists are never rebound
        self._driven: List[Wire] = []
        self._changed: List[Wire] = []
        self._staged: List[Reg] = []
        # what _bind_hooks() returns, built at the first edge after a
        # registration
        self._hooks: tuple = ()
        self._tick_hooks: Tuple[Callable[[int], None], ...] = ()

    # -- registration ----------------------------------------------------
    def _register_component(self, component: Component) -> None:
        self._components.append(component)
        self._hooks = ()

    def _bind_hooks(self) -> tuple:
        """``(settles, plan, undeclared, free, ticks)``: the bound
        ``settle`` of every component that overrides it, in registration
        order; the *i*-th again as ``plan[1 << i] = (settle, its own
        registers, the bits above i)``; the bits of the components
        without ``reads``; the registers no declared component owns; the
        bound ``tick``s.  Each wire learns the bits of its declared
        readers."""
        settlers = [c for c in self._components if _overrides(c, "settle")]
        for signal in self._signals.values():
            if isinstance(signal, Wire):
                signal._readers = 0
        plan, undeclared, owned = {}, 0, set()
        for index, component in enumerate(settlers):
            bit, regs = 1 << index, ()
            if component.reads is None:
                undeclared |= bit
            else:
                for wire in component.reads:
                    if not isinstance(wire, Wire):
                        raise TypeError(
                            f"{component.name}.reads lists {wire!r}: only "
                            f"wires are read during settle"
                        )
                    wire._readers |= bit
                regs = component._regs
                owned.update(map(id, regs))
            plan[bit] = (component.settle, regs, -(bit << 1))
        free = tuple(
            s for s in self._signals.values()
            if isinstance(s, Reg) and id(s) not in owned
        )
        self._hooks = (
            tuple(c.settle for c in settlers),
            plan,
            undeclared,
            free,
            tuple(c.tick for c in self._components if _overrides(c, "tick")),
        )
        return self._hooks

    def add_wire(self, name: str, width: int = 1, default: int = 0) -> Wire:
        wire = Wire(name, width, default)
        self._add_signal(wire)
        wire._log_driven = self._driven.append
        wire._log_changed = self._changed.append
        return wire

    def add_reg(self, name: str, width: int = 1, default: int = 0) -> Reg:
        reg = Reg(name, width, default)
        self._add_signal(reg)
        reg._log_staged = self._staged.append
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
    def _settle(self) -> None:
        driven, changed, staged = self._driven, self._changed, self._staged
        for wire in driven:
            wire._driven = 0
            wire.value = wire.default
        driven.clear()
        settles, plan, undeclared, free, _ = self._hooks or self._bind_hooks()
        # a stage made outside this settle (settle_only(), a cycle that
        # raised, a test bench) survives pass 0 and, as before, only
        # pass 1 if made again: then pass 1 re-runs everything
        stale = False
        for reg in staged:
            if reg._staged == 2:
                stale = True
                break
        # pass 0: every component, in registration order, on reverted
        # wires; what it changed makes every reader due in pass 1 (those
        # after the changer saw the change already and re-run as a no-op,
        # which costs less than telling them apart in this sweep)
        for settle in settles:
            settle()
        due = (1 << len(settles)) - 1 if stale else 0
        for wire in changed:
            due |= wire._readers
        moved = bool(changed)
        changed.clear()
        for _ in range(1, MAX_SETTLE_PASSES):
            if not moved:
                return
            for wire in driven:
                wire._driven = 1
            due |= undeclared
            if not due:
                return  # this pass could not change a wire
            if undeclared or stale:
                for reg in free:
                    if reg._staged == 2:
                        reg._staged = 1
                        reg._next = None
            upcoming, moved = 0, False
            while due:  # the due components, lowest bit first
                bit = due & -due
                due ^= bit
                settle, regs, above = plan[bit]
                for reg in regs:
                    if reg._staged == 2:
                        reg._staged = 1
                        reg._next = None
                settle()
                if changed:
                    moved, readers = True, 0
                    for wire in changed:
                        readers |= wire._readers
                    changed.clear()
                    # readers registered later run later in this pass,
                    # the others (the changer too) in the next
                    later = readers & above
                    due |= later
                    upcoming |= readers ^ later
            due = upcoming
        if not moved:
            return
        raise CombinationalLoopError(
            f"combinational logic failed to settle within "
            f"{MAX_SETTLE_PASSES} passes at cycle {self.cycle}"
        )

    def step(self, cycles: int = 1) -> int:
        """Advance the clock by ``cycles`` edges; returns the new cycle
        count."""
        staged = self._staged
        for _ in range(cycles):
            self._settle()
            for reg in staged:
                if reg._staged == 2:
                    reg.value = reg._next
                    reg._next = None
                reg._staged = 0
            staged.clear()
            for tick in (self._hooks or self._bind_hooks())[4]:
                tick()
            self.cycle += 1
            for hook in self._tick_hooks:
                hook(self.cycle)
        return self.cycle

    def settle_only(self) -> None:
        """Settle combinational logic without advancing the clock.

        Useful for observing Mealy outputs that depend on inputs applied
        since the last edge.
        """
        self._settle()

    def reset(self) -> None:
        """Asynchronous reset: all signals to defaults, components to
        power-on state, cycle counter rezeroed."""
        for signal in self._signals.values():
            signal.reset()
        for wire in self._driven:
            wire._driven = 0
        for reg in self._staged:
            reg._staged = 0
        self._driven.clear()
        self._changed.clear()
        self._staged.clear()
        for component in self._components:
            component.reset()
        self.cycle = 0
