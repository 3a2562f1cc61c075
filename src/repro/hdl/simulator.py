"""Two-phase synchronous simulator.

Every simulated clock cycle runs in two phases:

1. **Settle** -- every component that has a ``settle`` runs, in
   registration order, pass after pass until a pass changes no wire (a
   fixed point); the iteration bound catches combinational loops, which
   are modelling errors.  A pass costs what it touches, not what the
   design declares: a ``Wire.drive`` / ``Reg.stage`` that changes
   nothing returns at once, the others append to three logs.

   * *driven* -- wires a drive has changed so far this cycle.  Between
     passes only these become drivable again, keeping their value (a
     wire driven in pass *k* and not again holds it for the rest of the
     cycle); at the next cycle only these revert to their default --
     every other wire is still at it, so first-pass readers see defaults.
   * *changed* -- wires whose value a drive changed this pass.  A
     second, differing drive in one pass raises, so a wire changes at
     most once per pass and never back: "nothing logged" is exactly
     "every wire's value before the pass equals its value after".
   * *staged* -- registers staged so far this cycle.  Between passes
     only these are unstaged (a stage whose condition a later pass
     revokes must never commit: only the final pass's staging is
     authoritative), and the edge commits only these.

2. **Tick** -- all sequential elements (registers, memories, FSM state)
   commit their staged updates atomically, then tracing hooks observe
   the new architectural state (wires still hold the settled values of
   the cycle just ended).

Components register themselves with the simulator on construction, so a
design is simply a tree of :class:`Component` objects sharing one
:class:`Simulator`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.hdl.signal import Reg, Signal, Wire


class CombinationalLoopError(RuntimeError):
    """The settle phase did not reach a fixed point.

    Raised when wires keep changing after ``max_settle_passes``
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

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        sim._register_component(self)

    # -- construction helpers ------------------------------------------------
    def wire(self, name: str, width: int = 1, default: int = 0) -> Wire:
        return self.sim.add_wire(f"{self.name}.{name}", width, default)

    def reg(self, name: str, width: int = 1, default: int = 0) -> Reg:
        return self.sim.add_reg(f"{self.name}.{name}", width, default)

    # -- simulation hooks ----------------------------------------------------
    def settle(self) -> None:  # pragma: no cover - default no-op
        """Combinational logic; may run multiple times per cycle."""

    def tick(self) -> None:  # pragma: no cover - default no-op
        """Extra sequential commit work (memories etc.)."""

    def reset(self) -> None:  # pragma: no cover - default no-op
        """Restore power-on state beyond signal defaults."""


class Simulator:
    """Owns the clock, the signal table, and the component list.

    Parameters
    ----------
    max_settle_passes:
        Upper bound on fixed-point iterations per cycle before a
        :class:`CombinationalLoopError` is raised.  Real designs here
        settle in a handful of passes.
    """

    def __init__(self, max_settle_passes: int = 64) -> None:
        if max_settle_passes < 1:
            raise ValueError(f"max_settle_passes must be >= 1, got {max_settle_passes}")
        self.max_settle_passes = max_settle_passes
        self.cycle = 0
        self._components: List[Component] = []
        self._signals: Dict[str, Signal] = {}
        # the activity logs; signals hold their bound ``append``, so
        # these lists are never rebound
        self._driven: List[Wire] = []
        self._changed: List[Wire] = []
        self._staged: List[Reg] = []
        # (settles, ticks), built at the first edge after a registration
        self._hooks: Tuple[Tuple[Callable[[], None], ...], ...] = ()
        self._tick_hooks: Tuple[Callable[[int], None], ...] = ()

    # -- registration ----------------------------------------------------
    def _register_component(self, component: Component) -> None:
        self._components.append(component)
        self._hooks = ()

    def _bind_hooks(self) -> Tuple[Tuple[Callable[[], None], ...], ...]:
        """Bound ``settle`` / ``tick`` of the components that override them."""
        self._hooks = tuple(
            tuple(
                getattr(c, name)
                for c in self._components
                if getattr(type(c), name) is not getattr(Component, name)
            )
            for name in ("settle", "tick")
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

    @property
    def signals(self) -> Dict[str, Signal]:
        """Name -> signal mapping (read-only view by convention)."""
        return self._signals

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
        settles = (self._hooks or self._bind_hooks())[0]
        for pass_index in range(self.max_settle_passes):
            changed.clear()
            if pass_index:
                for wire in driven:
                    wire._driven = 1
                for reg in staged:
                    reg._staged = 1
                    reg._next = None
            for settle in settles:
                settle()
            if not changed:
                return
        raise CombinationalLoopError(
            f"combinational logic failed to settle within "
            f"{self.max_settle_passes} passes at cycle {self.cycle}"
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
            for tick in (self._hooks or self._bind_hooks())[1]:
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

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 100_000,
    ) -> int:
        """Step until ``condition()`` is true *after* a clock edge.

        Returns the number of cycles consumed.  Raises ``TimeoutError``
        if the condition does not become true within ``max_cycles`` --
        in a cycle-accurate model an unbounded wait is always a bug.
        """
        start = self.cycle
        for _ in range(max_cycles):
            self.step()
            if condition():
                return self.cycle - start
        raise TimeoutError(
            f"condition not met within {max_cycles} cycles "
            f"(started at cycle {start})"
        )

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
