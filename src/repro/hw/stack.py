"""The hardware label stack of the datapath (Figure 12, "STACK").

A small register-file stack of 32-bit label entries with a size
counter.  All mutations are synchronous: the control unit presents a
:class:`~repro.hw.opcodes.StackOp` and a data word during a cycle, and
the stack commits at the clock edge.  ``top`` and ``size`` are
registered outputs ("Number of stack items" / "Label from stack" in the
paper's datapath figure), so they reflect pre-edge state during any
cycle -- exactly the timing the label-stack interface FSM relies on.

Misuse (pop of an empty stack, push of a full one) does not corrupt
state: the operation is dropped and a sticky ``error`` flag raised,
which is what a defensively designed hardware block would do and what
the failure-injection tests assert.
"""

from __future__ import annotations

from typing import List

from repro.hdl.simulator import Component, Simulator
from repro.hw.opcodes import StackOp

#: Stack entry width: one RFC 3032 label stack entry.
ENTRY_WIDTH = 32


#: entries the stack holds; a push beyond it sets ``error`` and is dropped
STACK_CAPACITY = 8


class HardwareStack(Component):
    """A :data:`STACK_CAPACITY`-deep stack of 32-bit entries.

    Wires (inputs): ``op`` (3 bits, a :class:`StackOp` code),
    ``data_in`` (32 bits, for PUSH and WRITE_TOP).

    Registers (outputs): ``top`` (the current top entry, 0 when empty),
    ``size``, ``error`` (sticky misuse flag).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.op = self.wire("op", 3)
        self.data_in = self.wire("data_in", ENTRY_WIDTH)
        self.top = self.reg("top", ENTRY_WIDTH)
        self.size = self.reg("size", STACK_CAPACITY.bit_length())
        self.error = self.reg("error", 1)
        self._entries: List[int] = []  # index -1 is the top

    def tick(self) -> None:
        op = self.op.value
        if op == StackOp.PUSH:
            if len(self._entries) >= STACK_CAPACITY:
                self.error.stage(1)
            else:
                self._entries.append(self.data_in.value)
        elif op == StackOp.POP:
            if not self._entries:
                self.error.stage(1)
            else:
                self._entries.pop()
        elif op == StackOp.CLEAR:
            self._entries.clear()
        elif op == StackOp.WRITE_TOP:
            if not self._entries:
                self.error.stage(1)
            else:
                self._entries[-1] = self.data_in.value
        elif op != StackOp.HOLD:
            raise ValueError(f"{self.name}: unknown stack op {op}")
        self.top.stage(self._entries[-1] if self._entries else 0)
        self.top.commit()
        self.size.stage(len(self._entries))
        self.size.commit()
        self.error.commit()

    def reset(self) -> None:
        self._entries.clear()

    # -- test/debug backdoor ------------------------------------------------
    def entries_top_first(self) -> List[int]:
        """Entries as a list, top of stack first."""
        return list(reversed(self._entries))
