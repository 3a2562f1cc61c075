"""The FPGA device model.

The paper's Section 4: "an FPGA like the Altera Stratix EP1S40F780C5
with a 50 MHz clock could perform those operations in approximately
[0.123] ms", and Section 3: "the total memory use is easily supported
by standard reconfigurable computing environments".  This module turns
both claims into checkable numbers: cycle -> time conversion at a
configurable clock, and an information-base memory budget compared
against the device's block RAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.info_base import (
    LABEL_INDEX_WIDTH,
    LABEL_WIDTH,
    LEVEL1_INDEX_WIDTH,
    LEVEL_DEPTH,
    OP_WIDTH,
)


@dataclass(frozen=True)
class FPGADevice:
    """A reconfigurable device: clock and memory capacity."""

    name: str
    clock_hz: float
    memory_bits: int
    logic_elements: int

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.memory_bits <= 0 or self.logic_elements <= 0:
            raise ValueError("capacities must be positive")

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.clock_hz

    def time_for_cycles(self, cycles: int) -> float:
        """Wall-clock seconds for ``cycles`` at this device's clock."""
        if cycles < 0:
            raise ValueError(f"negative cycle count {cycles}")
        return cycles / self.clock_hz

    # -- memory budget ------------------------------------------------------
    def info_base_bits(self) -> int:
        """Bits of block RAM the three-level information base needs
        (:data:`LEVEL_DEPTH` pairs per level).

        Level 1 stores 32-bit indices; levels 2-3 store 20-bit indices;
        all levels store a 20-bit label and a 2-bit operation per pair
        (Figure 13).
        """
        level1 = LEVEL_DEPTH * (LEVEL1_INDEX_WIDTH + LABEL_WIDTH + OP_WIDTH)
        level23 = 2 * LEVEL_DEPTH * (LABEL_INDEX_WIDTH + LABEL_WIDTH + OP_WIDTH)
        return level1 + level23

    def fits_info_base(self) -> bool:
        """The paper's space claim, checked against this device."""
        return self.info_base_bits() <= self.memory_bits

    def memory_utilization(self) -> float:
        return self.info_base_bits() / self.memory_bits


#: The paper's target part.  Stratix EP1S40: 41,250 logic elements and
#: about 3.4 Mbit of embedded block RAM (M512 + M4K + M-RAM).
STRATIX_EP1S40 = FPGADevice(
    name="Altera Stratix EP1S40F780C5",
    clock_hz=50e6,
    memory_bits=3_423_744,
    logic_elements=41_250,
)
