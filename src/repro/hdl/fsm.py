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
  outputs (an output the state does not drive goes back to its default,
  as the simulator puts back every wire a run stops driving), stages
  what the state registers, and returns the next state's name.
  Handlers are resolved once, at construction, into a tuple indexed by
  the state code; :meth:`FSM.settle` calls the current state's and
  stages the state register when the code differs;
* all of it runs during the settle phase; the state register commits on
  the tick like every other register.  A machine that declares its
  ``reads`` lists what its handlers read; the state register the pass
  indexes by is added for it.

A state is a name with a stable code (its position in the state list).
A state without a handler, a handler for no state and a handler that
returns an unknown name are refused, naming the machine and the state,
so typos fail fast instead of silently creating new states.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.hdl.signal import Signal
from repro.hdl.simulator import Component, Simulator


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
    _reads: Optional[Tuple[Signal, ...]] = None

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
        self._names: Tuple[str, ...] = tuple(names)
        self._codes: Dict[str, int] = {n: i for i, n in enumerate(names)}
        stray = sorted(self._handled - self._codes.keys())
        if stray:
            raise ValueError(f"{name}: on_<STATE> for {stray}, not among {names}")
        missing = [n for n in names if n not in self._handled]
        if missing:
            raise ValueError(f"{name}: no on_<STATE> for {missing}")
        # one handler per state, indexed by the state code
        self._handlers: Tuple[Callable[[], str], ...] = tuple(
            getattr(self, "on_" + n) for n in names
        )
        width = max(1, (len(names) - 1).bit_length())
        self._state_reg = self.reg("state", width=width, default=0)

    @property
    def reads(self) -> Optional[Tuple[Signal, ...]]:
        """What the handlers read, after the state register, or ``None``."""
        return self._reads

    @reads.setter
    def reads(self, signals: Iterable[Signal]) -> None:
        self._reads = (self._state_reg, *signals)

    # -- state access ------------------------------------------------------
    @property
    def state_name(self) -> str:
        """The current (registered) state."""
        return self._names[self._state_reg.value]

    def _code(self, name: str) -> int:
        try:
            return self._codes[name]
        except KeyError:
            raise KeyError(f"{self.name}: unknown state {name!r}") from None

    def in_state(self, name: str) -> bool:
        return self._state_reg.value == self._code(name)

    # -- simulation hooks ------------------------------------------------------
    def settle(self) -> None:
        reg = self._state_reg
        nxt = self._handlers[reg.value]()
        try:
            code = self._codes[nxt]
        except KeyError:
            code = self._code(nxt)  # names the machine and the typo
        if code != reg.value:
            reg.stage(code)

    def reset(self) -> None:
        self._state_reg.reset()
