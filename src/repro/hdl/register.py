"""Clocked register with write enable.

Models the "new label entry" register of the paper's datapath
(Figure 12): it captures a value presented on its data input whenever
the enable is asserted at a clock edge, and holds it otherwise.
"""

from __future__ import annotations

from repro.hdl.simulator import Component, Simulator


class Register(Component):
    """A ``width``-bit register with a write-enable input.

    Wires: ``d`` (data in), ``en`` (write enable), ``clear``
    (synchronous clear).  Output: ``q`` (registered value).
    """

    def __init__(self, sim: Simulator, name: str, width: int) -> None:
        super().__init__(sim, name)
        self.width = width
        self.d = self.wire("d", width)
        self.en = self.wire("en", 1)
        self.clear = self.wire("clear", 1)
        self.q = self.reg("q", width)
        self.reads = (self.d, self.en, self.clear)

    def settle(self) -> None:
        if self.clear.value:
            self.q.stage(0)
        elif self.en.value:
            self.q.stage(self.d.value)
