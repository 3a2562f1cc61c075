"""Declarative finite state machine framework.

The paper's control unit is four communicating state machines (main,
label-stack interface, information-base interface, search).  This module
gives them a common shape:

* the current state lives in a :class:`~repro.hdl.signal.Reg`, so state
  changes take effect exactly one clock edge after the transition logic
  decides them -- matching the Moore machines in the paper's Figures
  8-11;
* subclasses implement :meth:`FSM.transition` (next-state logic, reads
  inputs, returns the next state) and :meth:`FSM.output` (output logic,
  drives wires as a function of the *current* state and, for Mealy
  outputs, the inputs);
* both run during the settle phase; the state register commits on the
  tick like every other register.

States are interned :class:`State` objects so typos fail fast instead of
silently creating new states.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.hdl.simulator import Component, Simulator


class State:
    """An interned FSM state with a stable integer encoding."""

    __slots__ = ("name", "code")

    def __init__(self, name: str, code: int) -> None:
        self.name = name
        self.code = code

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<State {self.name}={self.code}>"


class FSM(Component):
    """A clocked state machine.

    Parameters
    ----------
    sim, name:
        As for :class:`~repro.hdl.simulator.Component`.
    states:
        Iterable of state names.  The first is the reset state.
    """

    def __init__(self, sim: Simulator, name: str, states: Iterable[str]) -> None:
        super().__init__(sim, name)
        names = list(states)
        if not names:
            raise ValueError(f"{name}: an FSM needs at least one state")
        if len(set(names)) != len(names):
            raise ValueError(f"{name}: duplicate state names in {names}")
        self._states: Dict[str, State] = {
            n: State(n, i) for i, n in enumerate(names)
        }
        self._by_code: Tuple[State, ...] = tuple(self._states.values())
        # state_name runs twice per FSM per settle pass: code -> name
        self._names: Tuple[str, ...] = tuple(names)
        width = max(1, (len(names) - 1).bit_length())
        self._state_reg = self.reg("state", width=width, default=0)

    # -- state access ------------------------------------------------------
    @property
    def state(self) -> State:
        """The current (registered) state."""
        return self._by_code[self._state_reg.value]

    @property
    def state_name(self) -> str:
        return self._names[self._state_reg.value]

    def s(self, name: str) -> State:
        """Look up a state by name (typo-safe)."""
        try:
            return self._states[name]
        except KeyError:
            raise KeyError(f"{self.name}: unknown state {name!r}") from None

    def in_state(self, name: str) -> bool:
        state = self._states.get(name) or self.s(name)  # s() names the typo
        return self._state_reg.value == state.code

    # -- subclass interface --------------------------------------------------
    def transition(self) -> State:
        """Next-state logic.  Read inputs, return the next state."""
        raise NotImplementedError

    def output(self) -> None:
        """Output logic.  Drive wires from the current state/inputs."""

    # -- simulation hooks ------------------------------------------------------
    def settle(self) -> None:
        self.output()
        nxt = self.transition()
        if not isinstance(nxt, State):
            raise TypeError(
                f"{self.name}.transition() must return a State, got {nxt!r}"
            )
        if nxt.code != self._state_reg.value:
            self._state_reg.stage(nxt.code)

    def reset(self) -> None:
        self._state_reg.reset()
