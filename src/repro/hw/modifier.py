"""The assembled label stack modifier (paper Figure 7).

Wires the datapath to the four control-unit state machines and exposes
the user-facing interface: the command wires of the datapath, the
combined ``done`` pulse, the ``packet_discard`` pulse, and the search
outputs (``label_out`` / ``operation_out`` / ``lookup_done`` of
Figures 14-16).

The modifier owns its :class:`~repro.hdl.simulator.Simulator`, so a
bench can instantiate several independent modifiers.
"""

from __future__ import annotations

from typing import List

from repro.hdl.simulator import Component, Simulator
from repro.hw.datapath import Datapath, entry_fields
from repro.hw.info_base import LEVEL_DEPTH
from repro.hw.info_base_fsm import InfoBaseInterfaceFSM
from repro.hw.label_stack_fsm import LabelStackInterfaceFSM
from repro.hw.main_fsm import MainFSM
from repro.hw.search_fsm import SearchFSM
from repro.mpls.label import LabelEntry


class LabelStackModifier(Component):
    """Control unit + datapath, as one instantiable block."""

    def __init__(self, ib_depth: int = LEVEL_DEPTH) -> None:
        sim = Simulator()
        name = "lsm"
        # the datapath and FSMs register themselves with the simulator;
        # this component is registered last so its settle() (which ORs
        # status signals) still participates in the fixed point.
        self.dp = Datapath(sim, f"{name}.dp", ib_depth)
        self.search = SearchFSM(sim, self.dp, f"{name}.search")
        self.ib_iface = InfoBaseInterfaceFSM(
            sim, self.dp, self.search, f"{name}.ib_iface"
        )
        self.lbl_iface = LabelStackInterfaceFSM(
            sim, self.dp, self.search, f"{name}.lbl_iface"
        )
        self.main = MainFSM(
            sim, self.dp, self.lbl_iface, self.ib_iface, f"{name}.main"
        )
        super().__init__(sim, name)
        #: Combined transaction-done pulse (any FSM's done).
        self.done = self.wire("done", 1)
        #: Combined packet-discard pulse (search miss or verify fail).
        self.packet_discard = self.wire("packet_discard", 1)
        # settle() ORs registered pulses only
        self.reads = (
            self.search.done, self.ib_iface.done, self.lbl_iface.done,
            self.search.miss, self.lbl_iface.discard,
        )

    def settle(self) -> None:
        self.done.drive(
            1
            if (
                self.search.done.value
                or self.ib_iface.done.value
                or self.lbl_iface.done.value
            )
            else 0
        )
        self.packet_discard.drive(
            1
            if (self.search.miss.value or self.lbl_iface.discard.value)
            else 0
        )

    # -- observability helpers ------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while any control FSM is outside IDLE."""
        return not (
            self.main.in_state("IDLE")
            and self.lbl_iface.in_state("IDLE")
            and self.ib_iface.in_state("IDLE")
            and self.search.in_state("IDLE")
        )

    def stack_entries(self) -> List[LabelEntry]:
        """The current label stack decoded, top first."""
        out = []
        for word in self.dp.stack.entries_top_first():
            label, cos, s, ttl = entry_fields(word)
            out.append(LabelEntry(label=label, cos=cos, s=s, ttl=ttl))
        return out

    def ib_counts(self):
        return self.dp.info_base.counts()
