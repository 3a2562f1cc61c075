"""Cycle-level profiling of the RTL simulation.

A :class:`CycleProfiler` attaches to a
:class:`~repro.hdl.simulator.Simulator` through its tick hook and
attributes **every** simulated clock cycle:

* to the state each control FSM occupied during that cycle (the state
  *held* across the edge, i.e. the value the state register had when
  the cycle began),
* to the activity of each memory's ports (write cycles where ``wr_en``
  was asserted; read cycles where the read address moved),
* and, when the driving code scopes transactions with
  :meth:`operation`, to the named operation -- producing the
  per-operation cycle breakdowns that generalize the static Table 6
  (``benchmarks/results/table6_cycles.txt``) into a measured profile.

The defining invariant is **conservation**: for every FSM, the per-state
totals sum exactly to the number of cycles observed, and the
per-operation totals (including ``idle``) do too.
:meth:`check_conservation` asserts this; the integration tests run it
over the Table 6 scenarios.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.hdl.fsm import FSM
from repro.hdl.memory import SyncMemory
from repro.hdl.simulator import Simulator
from repro.obs.events import FSMTransition
from repro.obs.telemetry import Telemetry

#: Cycles outside any scoped operation land here.
IDLE = "idle"


class ConservationError(AssertionError):
    """Per-state or per-operation totals do not sum to the cycles seen."""


class CycleProfiler:
    """Attributes simulated cycles to FSM states, memory ports, and
    scoped operations.

    Parameters
    ----------
    sim:
        The simulator to observe.  FSMs and memories are discovered
        from its component tree at attach time.
    telemetry:
        When given *and* enabled, every FSM state change is emitted as
        an :class:`~repro.obs.events.FSMTransition` event.
    track_memories:
        Port-activity tracking can be switched off for long runs.
    """

    def __init__(
        self,
        sim: Simulator,
        telemetry: Optional[Telemetry] = None,
        track_memories: bool = True,
    ) -> None:
        self.sim = sim
        self.telemetry = telemetry
        self.cycles = 0
        self._operation: str = IDLE
        self._fsms: List[FSM] = [
            c for c in sim.components if isinstance(c, FSM)
        ]
        self._memories: List[SyncMemory] = (
            [c for c in sim.components if isinstance(c, SyncMemory)]
            if track_memories
            else []
        )
        #: fsm name -> state name -> cycles spent in that state
        self.fsm_state_cycles: Dict[str, Dict[str, int]] = {
            f.name: {} for f in self._fsms
        }
        #: operation label -> total cycles
        self.operation_cycles: Dict[str, int] = {}
        #: operation label -> fsm name -> state name -> cycles
        self.operation_state_cycles: Dict[str, Dict[str, Dict[str, int]]] = {}
        #: memory name -> cycles with the write strobe asserted
        self.memory_write_cycles: Dict[str, int] = {
            m.name: 0 for m in self._memories
        }
        #: memory name -> cycles where the read address moved
        self.memory_read_cycles: Dict[str, int] = {
            m.name: 0 for m in self._memories
        }
        self._last_state: Dict[FSM, str] = {}
        self._last_rd_addr: Dict[SyncMemory, int] = {}
        self.resync()
        sim.on_tick(self._on_tick)

    # -- attachment --------------------------------------------------------
    def resync(self) -> None:
        """Re-read the architectural state (after an async reset, the
        state registers change without a clock edge)."""
        self._last_state = {f: f.state_name for f in self._fsms}
        self._last_rd_addr = {m: m.rd_addr.value for m in self._memories}

    def detach(self) -> None:
        self.sim.remove_tick_hook(self._on_tick)

    # -- operation scoping -------------------------------------------------
    @contextmanager
    def operation(self, name: str) -> Iterator[None]:
        """Attribute the cycles of the enclosed block to ``name``."""
        previous = self._operation
        self._operation = name
        try:
            yield
        finally:
            self._operation = previous

    # -- the per-cycle hook --------------------------------------------------
    def _on_tick(self, cycle: int) -> None:
        self.cycles += 1
        op = self._operation
        self.operation_cycles[op] = self.operation_cycles.get(op, 0) + 1
        op_states = self.operation_state_cycles.setdefault(op, {})
        emit_events = (
            self.telemetry is not None and self.telemetry.enabled
        )
        for fsm in self._fsms:
            held = self._last_state[fsm]
            per_state = self.fsm_state_cycles[fsm.name]
            per_state[held] = per_state.get(held, 0) + 1
            op_per_state = op_states.setdefault(fsm.name, {})
            op_per_state[held] = op_per_state.get(held, 0) + 1
            now = fsm.state_name
            if now != held:
                if emit_events:
                    # cycles-domain event: stamp time with the cycle
                    # number so the log never applies its sim clock
                    transition = FSMTransition(
                        fsm=fsm.name, src=held, dst=now, cycle=cycle
                    )
                    transition.time = float(cycle)
                    self.telemetry.events.emit(transition)
                self._last_state[fsm] = now
        for mem in self._memories:
            if mem.wr_en.value:
                self.memory_write_cycles[mem.name] += 1
            addr = mem.rd_addr.value
            if addr != self._last_rd_addr[mem]:
                self.memory_read_cycles[mem.name] += 1
                self._last_rd_addr[mem] = addr

    # -- invariants ----------------------------------------------------------
    def check_conservation(self) -> None:
        """Every cycle is attributed exactly once, per FSM and per
        operation.  Raises :class:`ConservationError` on violation."""
        for fsm_name, per_state in self.fsm_state_cycles.items():
            total = sum(per_state.values())
            if total != self.cycles:
                raise ConservationError(
                    f"{fsm_name}: per-state cycles sum to {total}, "
                    f"but {self.cycles} cycles were observed"
                )
        op_total = sum(self.operation_cycles.values())
        if op_total != self.cycles:
            raise ConservationError(
                f"per-operation cycles sum to {op_total}, "
                f"but {self.cycles} cycles were observed"
            )
        for op, per_fsm in self.operation_state_cycles.items():
            for fsm_name, per_state in per_fsm.items():
                total = sum(per_state.values())
                if total != self.operation_cycles[op]:
                    raise ConservationError(
                        f"{op}/{fsm_name}: {total} != "
                        f"{self.operation_cycles[op]}"
                    )

    # -- views ---------------------------------------------------------------
    def busiest_states(self, fsm_name: str) -> List[Tuple[str, int]]:
        """States of one FSM, most cycles first."""
        per_state = self.fsm_state_cycles[fsm_name]
        return sorted(per_state.items(), key=lambda kv: (-kv[1], kv[0]))

    def render(self) -> str:
        """A human-readable profile (the ``repro stats`` output)."""
        lines = [f"cycles observed: {self.cycles}"]
        lines.append("per-operation cycles:")
        for op in sorted(
            self.operation_cycles, key=lambda o: -self.operation_cycles[o]
        ):
            lines.append(f"  {op:24s} {self.operation_cycles[op]:8d}")
        for fsm_name in sorted(self.fsm_state_cycles):
            lines.append(f"FSM {fsm_name}:")
            for state, cycles in self.busiest_states(fsm_name):
                share = cycles / self.cycles if self.cycles else 0.0
                lines.append(
                    f"  {state:16s} {cycles:8d}  ({share:6.1%})"
                )
        if self.memory_write_cycles:
            lines.append("memory port activity (write/read-move cycles):")
            for name in sorted(self.memory_write_cycles):
                w = self.memory_write_cycles[name]
                r = self.memory_read_cycles[name]
                if w or r:
                    lines.append(f"  {name:28s} w={w:6d} r={r:6d}")
        return "\n".join(lines)
