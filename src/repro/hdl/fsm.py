"""Declarative finite state machine framework.

The paper's control unit is four communicating state machines (main,
label-stack interface, information-base interface, search).  This module
gives them a common shape:

* the current state lives in a :class:`~repro.hdl.signal.Reg`, so state
  changes take effect exactly one clock edge after the transition logic
  decides them -- matching the Moore machines in the paper's Figures
  8-11;
* **a state is a method; the pass indexes, it does not compare.**  A
  subclass gives state ``X`` a handler ``on_X``: it drives that state's
  outputs -- every one, *including the default drives* (a wire driven
  by an earlier pass of the cycle keeps that value until something
  re-drives it) -- stages what the state registers, and returns the
  next state's name.  Handlers are resolved once, at construction, into
  a tuple indexed by the state code; :meth:`FSM.settle` calls the
  current state's and stages the state register when the code differs;
* a state without a handler runs :meth:`FSM.output` (output logic as a
  function of the current state and, for Mealy outputs, the inputs)
  then :meth:`FSM.transition` (next-state logic, returns the next
  :class:`State`) through the same ``settle`` -- small machines and
  test oracles are written that way, and may mix the two;
* all of it runs during the settle phase; the state register commits on
  the tick like every other register.

States are interned :class:`State` objects and a handler's name is
checked against them, so typos fail fast instead of silently creating
new states or falling back.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Tuple

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

    #: the states this class (with its bases) defines ``on_<STATE>`` for;
    #: scanned once per class, not per machine built
    _handled: FrozenSet[str] = frozenset()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._handled = frozenset(
            attr[3:] for base in cls.__mro__ for attr in vars(base)
            if attr.startswith("on_")
        )

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
        self._names: Tuple[str, ...] = tuple(names)
        self._codes: Dict[str, int] = {n: i for i, n in enumerate(names)}
        stray = sorted(self._handled - self._states.keys())
        if stray:
            raise ValueError(f"{name}: on_<STATE> for {stray}, not among {names}")
        # one handler per state, indexed by the state code
        self._handlers: Tuple[Callable[[], str], ...] = tuple(
            getattr(self, "on_" + n) if n in self._handled
            else self._output_then_transition
            for n in names
        )
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

    def _output_then_transition(self) -> str:
        """The handler of every state that has no ``on_<STATE>``."""
        self.output()
        nxt = self.transition()
        if not isinstance(nxt, State):
            raise TypeError(
                f"{self.name}.transition() must return a State, got {nxt!r}"
            )
        return nxt.name

    # -- simulation hooks ------------------------------------------------------
    def settle(self) -> None:
        reg = self._state_reg
        nxt = self._handlers[reg.value]()
        try:
            code = self._codes[nxt]
        except KeyError:
            raise KeyError(f"{self.name}: unknown state {nxt!r}") from None
        if code != reg.value:
            reg.stage(code)

    def reset(self) -> None:
        self._state_reg.reset()
