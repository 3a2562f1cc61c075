"""The main state machine (paper Figure 8).

"It is used to ensure that the remaining state machines are not working
at the same time and possibly generate inconsistent results."  The main
FSM sits in IDLE until the user presents an operation, captures the
command operands into the datapath latches, enables exactly one of the
two interface machines, and waits for it to finish.

The mutual-exclusion invariant -- never both interfaces enabled -- is a
direct consequence of the three-state structure and is property-tested
in ``tests/hw/test_fsm_invariants.py``.
"""

from __future__ import annotations

from repro.hdl.fsm import FSM
from repro.hdl.simulator import Simulator
from repro.hw.datapath import Datapath
from repro.hw.info_base_fsm import InfoBaseInterfaceFSM
from repro.hw.label_stack_fsm import LabelStackInterfaceFSM
from repro.hw.opcodes import UserOp

STATES = ["IDLE", "LBL_ACTIVE", "IB_ACTIVE"]

#: Operations routed to the label-stack interface.
_LBL_OPS = (UserOp.USER_PUSH, UserOp.USER_POP, UserOp.UPDATE)
#: Operations routed to the information-base interface.
_IB_OPS = (
    UserOp.WRITE_PAIR,
    UserOp.SEARCH,
    UserOp.MODIFY_PAIR,
    UserOp.REMOVE_PAIR,
    UserOp.READ_ENTRY,
)


class MainFSM(FSM):
    """Figure 8: IDLE / LABEL INTERFACE ACTIVE / INFO BASE INTERFACE
    ACTIVE."""

    def __init__(
        self,
        sim: Simulator,
        dp: Datapath,
        lbl_iface: LabelStackInterfaceFSM,
        ib_iface: InfoBaseInterfaceFSM,
        name: str = "main",
    ) -> None:
        super().__init__(sim, name, STATES)
        self.dp = dp
        self.lbl_iface = lbl_iface
        self.ib_iface = ib_iface
        self.reads = (dp.operation, lbl_iface.finishing, ib_iface.finishing)

    def on_IDLE(self) -> str:
        op = self.dp.operation.value
        if op != UserOp.NONE:
            # capture the operands the moment a command appears
            self.dp.capture.drive(1)
        if op in _LBL_OPS:
            return "LBL_ACTIVE"
        if op in _IB_OPS:
            return "IB_ACTIVE"
        return "IDLE"

    def on_LBL_ACTIVE(self) -> str:
        self.lbl_iface.enable.drive(1)
        # retire on the same edge as the interface machine
        return "IDLE" if self.lbl_iface.finishing.value else "LBL_ACTIVE"

    def on_IB_ACTIVE(self) -> str:
        self.ib_iface.enable.drive(1)
        return "IDLE" if self.ib_iface.finishing.value else "IB_ACTIVE"
