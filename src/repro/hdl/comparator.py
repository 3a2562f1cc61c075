"""Equality comparators.

The paper's datapath contains three comparators of different widths
(32, 20 and 10 bits) used to match packet identifiers and labels against
information-base contents, and to compare the read index against the
write index when deciding whether a search has exhausted the stored
pairs.  The comparator is purely combinational: ``eq`` follows ``a`` and
``b`` within the settle phase.
"""

from __future__ import annotations

from repro.hdl.simulator import Component, Simulator


class EqualityComparator(Component):
    """Combinational ``a == b`` over ``width`` bits.

    Wires: ``a``, ``b`` (inputs), ``eq`` (output, 1 bit).
    """

    def __init__(self, sim: Simulator, name: str, width: int) -> None:
        super().__init__(sim, name)
        self.width = width
        self.a = self.wire("a", width)
        self.b = self.wire("b", width)
        self.eq = self.wire("eq", 1)
        self.reads = (self.a, self.b)

    def settle(self) -> None:
        self.eq.drive(1 if self.a.value == self.b.value else 0)
