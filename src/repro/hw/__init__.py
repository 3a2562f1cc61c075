"""The paper's hardware: the MPLS label stack modifier as RTL.

This subpackage is the register-transfer-level model of the paper's
Figures 6-13, built on the :mod:`repro.hdl` simulation kernel:

* :mod:`repro.hw.stack` -- the hardware label stack of the datapath,
* :mod:`repro.hw.info_base` -- the three-level information base with
  its index / label / operation memory components (Figure 13),
* :mod:`repro.hw.datapath` -- the datapath of Figure 12: stack,
  information base, new-label register, TTL counter, and the three
  comparators (32 / 20 / 10 bits),
* :mod:`repro.hw.search_fsm` -- the search state machine (Figure 11),
* :mod:`repro.hw.info_base_fsm` -- the information-base interface
  state machine (Figure 10),
* :mod:`repro.hw.label_stack_fsm` -- the label-stack interface state
  machine (Figure 9),
* :mod:`repro.hw.main_fsm` -- the main state machine (Figure 8),
* :mod:`repro.hw.modifier` -- the assembled label stack modifier,
* :mod:`repro.hw.driver` -- a transaction-level driver that issues
  operations and counts exact clock cycles.

Cycle-count contract (Table 6): reset, user push, user pop and
label-pair writes each take 3 cycles; a search over a level holding
``n`` pairs takes ``3n + 5`` cycles worst case; the information-base
driven swap costs 6 further cycles.
"""

from repro.hw.opcodes import (
    UserOp,
    StackOp,
    SearchResult,
    UpdateResult,
    MgmtResult,
    ReadEntryResult,
)
from repro.hw.stack import HardwareStack
from repro.hw.info_base import InfoBase, InfoBaseLevel
from repro.hw.datapath import Datapath
from repro.hw.modifier import LabelStackModifier
from repro.hw.driver import ModifierDriver

__all__ = [
    "UserOp",
    "StackOp",
    "SearchResult",
    "UpdateResult",
    "MgmtResult",
    "ReadEntryResult",
    "HardwareStack",
    "InfoBase",
    "InfoBaseLevel",
    "Datapath",
    "LabelStackModifier",
    "ModifierDriver",
]
