"""Combinational multiplexer.

The datapath of Figure 12 is full of source selectors: the CoS bits of a
new stack entry come either from the old entry or from the control path;
the TTL comes from the decrement counter or from the control path; the
label comes from external data or from the information base; the search
index comes from memory or from a stack entry.  All are instances of an
n-way mux.
"""

from __future__ import annotations

from typing import Sequence

from repro.hdl.signal import Signal, Wire
from repro.hdl.simulator import Component, Simulator


class Mux(Component):
    """``out = inputs[sel]`` -- an n-way combinational selector.

    The inputs are existing signals (wires or registers) owned by other
    components; the mux only creates its ``sel`` input and ``out``
    output.  An out-of-range select raises, as it indicates a control
    bug rather than a don't-care.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        inputs: Sequence[Signal],
        width: int,
    ) -> None:
        super().__init__(sim, name)
        if not inputs:
            raise ValueError(f"{name}: a mux needs at least one input")
        for sig in inputs:
            if sig.width > width:
                raise ValueError(
                    f"{name}: input {sig.name} is wider ({sig.width}) than "
                    f"the mux output ({width})"
                )
        self.inputs = tuple(inputs)
        self.width = width
        sel_width = max(1, (len(inputs) - 1).bit_length())
        self.sel = self.wire("sel", sel_width)
        self.out = self.wire("out", width)
        # a register input holds still through the settle phase
        self.reads = (self.sel, *(s for s in self.inputs if isinstance(s, Wire)))

    def settle(self) -> None:
        sel = self.sel.value
        if sel >= len(self.inputs):
            raise IndexError(
                f"{self.name}: select {sel} out of range "
                f"({len(self.inputs)} inputs)"
            )
        self.out.drive(self.inputs[sel].value)
