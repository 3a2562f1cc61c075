"""Synchronous single-port RAM, the model for FPGA block memory.

The information base of the paper (Figure 13) is built from memory
components for the index, label and operation of each stored pair.  FPGA
block RAM has *registered* reads: the read address presented in cycle
``t`` produces data in cycle ``t+1``.  That one-cycle latency is exactly
what gives the paper's search loop its 3-cycles-per-entry cost
(set address / wait for data / compare), so the model preserves it.

Writes are likewise synchronous: ``wr_en``/``wr_addr``/``wr_data``
sampled at the clock edge take effect in the array immediately after
the edge (write-first is irrelevant here because the design never reads
and writes the same address in one cycle).  The tick samples nothing
but its port wires and the array, so it runs only on an edge where a
port moved or the array was poked.
"""

from __future__ import annotations

from typing import List

from repro.hdl.signal import WidthError
from repro.hdl.simulator import Component, Simulator


class SyncMemory(Component):
    """A ``depth`` x ``width`` synchronous RAM.

    Signals (all created on construction, prefixed with the instance
    name):

    * ``rd_addr`` (wire, input) -- read address, sampled at the edge.
    * ``rd_data`` (reg, output) -- data for the address sampled at the
      previous edge.
    * ``wr_en`` (wire, input) -- write strobe.
    * ``wr_addr`` / ``wr_data`` (wires, inputs).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        depth: int,
        width: int,
    ) -> None:
        super().__init__(sim, name)
        if depth < 1:
            raise ValueError(f"{name}: depth must be >= 1, got {depth}")
        self.depth = depth
        self.width = width
        addr_width = max(1, (depth - 1).bit_length())
        self.rd_addr = self.wire("rd_addr", addr_width)
        self.rd_data = self.reg("rd_data", width)
        self.wr_en = self.wire("wr_en", 1)
        self.wr_addr = self.wire("wr_addr", addr_width)
        self.wr_data = self.wire("wr_data", width)
        self._array: List[int] = [0] * depth
        self._max = (1 << width) - 1
        # the ports the tick samples: the same ports write and read the
        # same words twice, so an edge where none moved needs no tick
        self.reads = (self.rd_addr, self.wr_en, self.wr_addr, self.wr_data)

    def tick(self) -> None:
        if self.wr_en.value:
            addr = self.wr_addr.value
            if addr >= self.depth:
                raise IndexError(
                    f"{self.name}: write address {addr} out of range "
                    f"(depth {self.depth})"
                )
            self._array[addr] = self.wr_data.value
        rd = self.rd_addr.value
        if rd >= self.depth:
            raise IndexError(
                f"{self.name}: read address {rd} out of range "
                f"(depth {self.depth})"
            )
        word = self._array[rd]
        if word != self.rd_data.value:
            self.rd_data.stage(word)
            self.rd_data.commit()

    def reset(self) -> None:
        self._array = [0] * self.depth

    # -- test/debug backdoor ------------------------------------------------
    def peek(self, addr: int) -> int:
        """Read the array directly, bypassing the clocked port."""
        return self._array[addr]

    def poke(self, addr: int, value: int) -> None:
        """Write the array directly, bypassing the clocked port."""
        if value < 0 or value > self._max:
            raise WidthError(
                f"{self.name}: poke value {value} exceeds {self.width} bits"
            )
        self._array[addr] = value
        self.wake()
