"""Loadable up/down counter.

The paper's datapath (Figures 12 and 13) uses counters in two roles:
read/write address generation for the information-base memory
components, and the TTL decrementer for the label entry being updated.
One parameterized counter covers both.

Control wires (inputs, sampled at the clock edge):

* ``en``   -- count enable; when high the counter increments or
  decrements according to ``down``.
* ``down`` -- direction select (0 = up, 1 = down).
* ``load`` -- when high, the counter adopts ``load_value`` instead of
  counting (load wins over ``en``).
* ``clear`` -- synchronous clear to zero (wins over everything).

Output:

* ``count`` (reg) -- the current value.

The counter wraps modulo ``2**width``, as a hardware counter would.
"""

from __future__ import annotations

from repro.hdl.simulator import Component, Simulator


class Counter(Component):
    """An up/down counter with synchronous load and clear."""

    def __init__(self, sim: Simulator, name: str, width: int) -> None:
        super().__init__(sim, name)
        self.width = width
        self._modulus = 1 << width
        self.en = self.wire("en", 1)
        self.down = self.wire("down", 1)
        self.load = self.wire("load", 1)
        self.load_value = self.wire("load_value", width)
        self.clear = self.wire("clear", 1)
        self.count = self.reg("count", width)
        self.reads = (self.en, self.down, self.load, self.load_value, self.clear)

    def settle(self) -> None:
        if self.clear.value:
            self.count.stage(0)
        elif self.load.value:
            self.count.stage(self.load_value.value)
        elif self.en.value:
            delta = -1 if self.down.value else 1
            self.count.stage((self.count.value + delta) % self._modulus)
