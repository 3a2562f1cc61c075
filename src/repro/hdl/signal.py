"""Width-checked signals: the wires and registers of the RTL model.

Two signal kinds exist, matching the two roles a net plays in a
synchronous design:

* :class:`Wire` -- a combinational net.  It holds what its driver's
  latest ``settle`` drove onto it, across clock edges, until that
  driver re-runs; a driver that re-runs and no longer drives it puts it
  back to its ``default``.  Reading a wire nothing drives returns its
  ``default``.
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
and :meth:`Reg.stage` return at once, touching no log, when the signal
already holds the value, so no call site guards itself.  (A drive still
stamps the wire with the settle run in progress: that is how the
simulator tells a driver that re-drove the held value from one that
stopped driving.)  The comparison is with the value *held*, never with
the default: driving a wire's default while it holds something else is
a real drive.
"""

from __future__ import annotations

from typing import Optional


def _unlogged(signal: "Signal") -> None:
    """The activity log of a signal that no :mod:`~repro.hdl.simulator` owns."""


class Clock:
    """The tokens a simulator's wires read: ``run`` numbers the settle
    run in progress (every drive stamps it), ``sweep`` the settle pass
    (a wire changed twice under one sweep is a fight)."""

    __slots__ = ("run", "sweep")

    def __init__(self) -> None:
        self.run = 0
        self.sweep = 0


#: the clock of a wire no simulator owns: it never advances
_STILL = Clock()


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

    The simulator keeps two bit masks on every signal (bit *i* is its
    *i*-th settle component): ``_readers``, the components that list the
    signal in their ``reads``; and ``_by``, for a wire the component
    whose settle last changed it, for a register the declared component
    that owns it.
    """

    __slots__ = ("name", "width", "default", "value", "_max", "_readers", "_by")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        if width < 1:
            raise WidthError(f"{name}: width must be >= 1, got {width}")
        self.name = name
        self.width = width
        self._max = (1 << width) - 1
        self.default = self._check(default)
        self.value = self.default
        self._readers = self._by = 0

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

    ``_swept`` is the clock's sweep in which a drive last changed the
    wire.  Changing a wire twice in one settle pass indicates two
    processes fighting over the net and raises :class:`SignalError`.

    A drive of the value already held does not count, so a fight is
    raised by the pass in which both processes change the wire: when
    the earlier one agrees with the held value at first (it drives the
    default onto an undriven wire, say), that is a later pass, with the
    same message.  Two processes that disagree only while the earlier
    one re-drives the held value are not an error.

    ``_seen`` is the clock's run token of the last drive, changing or
    not; ``_tickers`` the bit mask of the idempotent ticks that read the
    wire; ``_drivers`` the components that learned they drive it.
    """

    __slots__ = ("_swept", "_seen", "_clock", "_log_changed", "_tickers", "_drivers")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        super().__init__(name, width, default)
        self._swept = self._seen = -1
        self._clock = _STILL
        self._log_changed = _unlogged
        self._tickers = self._drivers = 0

    def reset(self) -> None:
        """Revert to the default (undriven) value, drivable again."""
        self._swept = -1
        self.value = self.default

    def drive(self, value: int) -> bool:
        """Drive the wire; returns True if the value changed.

        A change is also appended to the simulator's changed log, which
        is how it learns whose ``reads`` to wake.
        """
        self._seen = self._clock.run
        if value == self.value:
            return False
        if type(value) is not int or value < 0 or value > self._max:
            value = self._check(value)
            if value == self.value:
                return False
        sweep = self._clock.sweep
        if self._swept == sweep:
            raise SignalError(
                f"wire {self.name} driven to conflicting values "
                f"{self.value} and {value} in one settle pass"
            )
        self._swept = sweep
        self.value = value
        self._log_changed(self)
        return True


class Reg(Signal):
    """A clocked register with staged-next-value semantics.

    ``_staged`` is 2 while a next value is staged, 1 if the register is
    in the simulator's staged log but its stage was dropped (a later
    settle run, :meth:`commit`, :meth:`force`, :meth:`reset`), 0
    otherwise -- so the log holds a register at most once.  A value
    that changes anywhere but at the simulator's own edge (a ``tick``'s
    :meth:`commit`, a :meth:`force`) is appended to its moved log, so
    the components that read the register run again.
    """

    __slots__ = ("_next", "_staged", "_log_staged", "_log_moved")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        super().__init__(name, width, default)
        self._next: Optional[int] = None
        self._staged = 0
        self._log_staged = self._log_moved = _unlogged

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

        The simulator does this (inline) to a component's registers
        before the component re-runs within one settle: only its
        latest run's staging may survive.  Without it, a stage()
        performed under a condition that a later run revokes (e.g. a
        comparator output before its inputs settled) would commit stale
        data.
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
        if changed:
            self._log_moved(self)
        return changed

    def force(self, value: int) -> None:
        """Asynchronously load ``value``, bypassing the clock.

        The hardware analogue of a parallel-load / preset pin: the
        register adopts the value immediately and any staged next value
        is discarded, so its owner runs again as well as its readers.
        Used by backdoor paths that change state without a clock edge
        (e.g. the info-base bank swap loading the write counter), never
        by ordinary combinational logic -- that must :meth:`stage`.
        """
        self.value = self._check(value)
        self.unstage()
        self._log_moved(self)

    def reset(self) -> None:
        super().reset()
        self.unstage()
