"""Width-checked signals: the wires and registers of the RTL model.

Two signal kinds exist, matching the two roles a net plays in a
synchronous design:

* :class:`Wire` -- a combinational net.  Its value is (re)driven during
  the settle phase of every cycle by exactly one combinational process.
  Reading an undriven wire returns its ``default``.
* :class:`Reg` -- a clocked register.  Combinational logic *stages* the
  next value via :meth:`Reg.stage`; the simulator commits all staged
  values atomically on the clock edge.  Between edges, reads always
  observe the pre-edge value, which is what gives the simulation its
  race-free, cycle-accurate semantics.

All signals carry a bit ``width`` and reject out-of-range values, so a
modelling bug that would silently truncate in Python is caught loudly
(the hardware analogue -- a too-narrow bus -- is one of the classic RTL
mistakes).

**A request that changes nothing is not a request**: holding is not
staging, re-driving the held value is not driving.  :meth:`Wire.drive`
and :meth:`Reg.stage` return at once, touching no log and no flag, when
the signal already holds the value (4 in 5 drives, 9 in 10 stages of the
label-stack modifier), so no call site guards itself.  The comparison is
with the value *held*, never with the default: a wire driven earlier in
the cycle keeps that value, and driving its default then is a real drive.
"""

from __future__ import annotations

from typing import Optional


def _unlogged(signal: "Signal") -> None:
    """The activity log of a signal that no :mod:`~repro.hdl.simulator` owns."""


class SignalError(Exception):
    """Base class for signal misuse (double-drive, bad stage, ...)."""


class WidthError(SignalError, ValueError):
    """A value does not fit in the signal's declared bit width."""


class Signal:
    """Common behaviour for wires and registers.

    Parameters
    ----------
    name:
        Hierarchical name used in traces and error messages.
    width:
        Bit width; values must satisfy ``0 <= value < 2**width``.
    default:
        Reset / undriven value.

    ``value``, the current value, is a plain slot: a read is one
    attribute load.  It is read-only by convention -- only this module
    and the simulator's inlined edge assign it, which
    ``tests/hdl/test_kernel_equivalence.py`` lints ``src/`` for.
    """

    __slots__ = ("name", "width", "default", "value", "_max")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        if width < 1:
            raise WidthError(f"{name}: width must be >= 1, got {width}")
        self.name = name
        self.width = width
        self._max = (1 << width) - 1
        self.default = self._check(default)
        self.value = self.default

    def _check(self, value: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            value = int(value)
        if value < 0 or value > self._max:
            raise WidthError(
                f"{self.name}: value {value} does not fit in {self.width} bits"
            )
        return value

    def reset(self) -> None:
        """Return the signal to its default value."""
        self.value = self.default

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}[{self.width}]={self.value}>"


class Wire(Signal):
    """A combinational net, driven during the settle phase.

    ``_driven`` is 2 once a drive has changed the wire in the current
    settle pass, 1 if only an earlier pass of this cycle did (it is in
    the simulator's driven log and keeps that value), 0 if it sits at
    its default.  Changing a wire twice in one settle pass indicates
    two processes fighting over the net and raises :class:`SignalError`.

    A drive of the value already held leaves ``_driven`` alone, so a
    fight is raised by the pass in which both processes change the wire:
    when the earlier one agrees with the held value at first (it drives
    the default onto an undriven wire, say), that is the next pass of
    the same cycle, with the same message.  Two processes that disagree
    only while the earlier one re-drives the held value are not an error.
    """

    __slots__ = ("_driven", "_log_driven", "_log_changed", "_readers")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        super().__init__(name, width, default)
        self._driven = 0
        self._log_driven = self._log_changed = _unlogged
        #: bit *i* set: the simulator's *i*-th settle component lists this
        #: wire in its ``reads`` (bound with the simulator's hooks)
        self._readers = 0

    def reset(self) -> None:
        """Revert to the default (undriven) value: what the simulator
        does inline, at the start of a cycle, to the wires in its
        driven log."""
        if self._driven:
            self._driven = 1
        self.value = self.default

    def drive(self, value: int) -> bool:
        """Drive the wire; returns True if the value changed.

        A change is also appended to the simulator's changed log, which
        is what its fixed-point iteration uses to decide whether another
        settle pass is needed.
        """
        if value == self.value:
            return False
        if type(value) is not int or value < 0 or value > self._max:
            value = self._check(value)
            if value == self.value:
                return False
        driven = self._driven
        if driven == 2:
            raise SignalError(
                f"wire {self.name} driven to conflicting values "
                f"{self.value} and {value} in one settle pass"
            )
        if not driven:
            self._log_driven(self)
        self._driven = 2
        self.value = value
        self._log_changed(self)
        return True


class Reg(Signal):
    """A clocked register with staged-next-value semantics.

    ``_staged`` is 2 while a next value is staged, 1 if the register is
    in the simulator's staged log but its stage was dropped (a later
    settle pass, :meth:`commit`, :meth:`force`, :meth:`reset`), 0
    otherwise -- so the log holds a register at most once.
    """

    __slots__ = ("_next", "_staged", "_log_staged")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        super().__init__(name, width, default)
        self._next: Optional[int] = None
        self._staged = 0
        self._log_staged = _unlogged

    def stage(self, value: int) -> None:
        """Stage ``value`` to be committed at the next clock edge.

        Staging the value already held is a hold, which needs no stage
        -- unless an earlier stage of this pass must be overridden (the
        last stage wins).
        """
        if value == self.value and self._staged != 2:
            return
        if type(value) is not int or value < 0 or value > self._max:
            value = self._check(value)
        self._next = value
        if not self._staged:
            self._log_staged(self)
        self._staged = 2

    def unstage(self) -> None:
        """Discard any staged value.

        The simulator does this (inline, for the registers in its
        staged log) between settle passes: combinational logic re-runs
        every pass, so only the final pass's staging may survive.
        Without it, a stage() performed under a condition that a later
        pass revokes (e.g. a comparator output before its inputs
        settled) would commit stale data.
        """
        self._next = None
        if self._staged:
            self._staged = 1

    def commit(self) -> bool:
        """Clock edge: adopt the staged value.  Returns True on change."""
        if self._staged != 2:
            return False
        changed = self.value != self._next
        self.value = self._next  # type: ignore[assignment]
        self.unstage()
        return changed

    def force(self, value: int) -> None:
        """Asynchronously load ``value``, bypassing the clock.

        The hardware analogue of a parallel-load / preset pin: the
        register adopts the value immediately and any staged next value
        is discarded.  Used by backdoor paths that change state without
        a clock edge (e.g. the info-base bank swap loading the write
        counter), never by ordinary combinational logic -- that must
        :meth:`stage`.
        """
        self.value = self._check(value)
        self.unstage()

    def reset(self) -> None:
        super().reset()
        self.unstage()
