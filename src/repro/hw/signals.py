"""Signal inventory: the paper's Tables 1-5 mapped to this model.

Each entry maps a signal name from the paper's tables to where the same
role lives in the Python RTL, so the implementation can be audited
against the paper line by line.  It is a reading aid only: no module,
benchmark or waveform trace imports it.
"""

from __future__ import annotations

from typing import Dict

#: Table 1 -- signals of the main state machine.
MAIN_SIGNALS: Dict[str, str] = {
    "clk": "implicit in Simulator.step()",
    "enable": "dp.operation != NONE while main is IDLE",
    "enableibint": "ib_iface.enable (driven in IB_ACTIVE)",
    "enablelblint": "lbl_iface.enable (driven in LBL_ACTIVE)",
    "extoperation": "dp.operation / dp.lat_op",
    "ibready": "ib_iface.finishing",
    "lblstckready": "lbl_iface.finishing",
    "readdata": "UserOp.SEARCH routing in MainFSM.transition",
    "reset": "Simulator.reset() via ModifierDriver.reset()",
    "savedata": "UserOp.WRITE_PAIR routing in MainFSM.transition",
    "updatelblstk": "UserOp.UPDATE routing in MainFSM.transition",
}

#: Tables 2-3 -- signals of the label stack interface.
LABEL_STACK_SIGNALS: Dict[str, str] = {
    "bttmstckbit": "S bit computed in PUSH_NEW (stack occupancy)",
    "cosbits": "cos field of dp.entry_reg",
    "cosbitssrc": "REMOVE_TOP: stack entry vs control path (lat_cos)",
    "dpoperation": "search.op_out consumed in VERIFY_INFO",
    "donelblupdt": "lbl_iface.done",
    "enable": "lbl_iface.enable",
    "extoperation": "dp.lat_op",
    "indexsource": "_drive_search_request: packet id vs top label",
    "itemfound": "search.found",
    "lblop": "dp.stack.op (StackOp encoding)",
    "newlblsrc": "PUSH_NEW: label from search.label_out (memory)",
    "pktdcrd": "lbl_iface.discard",
    "rtrtype": "dp.rtrtype (0 = LER, 1 = LSR)",
    "srchdone": "search.finishing / search.done",
    "srchenbl": "search.req (driven in SEARCH_ENABLE)",
    "svstkval": "dp.entry_reg.en (driven in REMOVE_TOP)",
    "stckctrl": "dp.stack.op",
    "stkentsrc": "PUSH_OLD (entry register) vs USER_PUSH (external)",
    "stacksize": "dp.stack.size",
    "ttl": "dp.ttl_counter.count",
    "ttlcntctrl": "dp.ttl_counter.{load,en,down}",
    "ttlsource": "REMOVE_TOP: stack entry TTL vs control path (lat_ttl)",
    "ttlvalue": "TTL field written in PUSH_NEW/UPDATE_TOP/PUSH_OLD",
}

#: Table 4 -- signals of the information base interface.
INFO_BASE_SIGNALS: Dict[str, str] = {
    "clk": "implicit",
    "dnibupdate": "ib_iface.done",
    "enable": "ib_iface.enable",
    "savedata": "WRITE_PAIR state (drives level wr_* wires)",
    "readdata": "SEARCH state (drives search.req)",
    "reset": "Simulator.reset()",
    "srchdone": "search.finishing",
    "srchenbl": "search.req",
    "writecontrol": "InfoBaseLevel.settle write routing",
}

#: Table 5 -- signals of the search module.
SEARCH_SIGNALS: Dict[str, str] = {
    "aeb_10b": "dp.cmp10.eq (read index vs last stored index)",
    "aeb_20b": "dp.cmp20.eq (label key compare, levels 2-3)",
    "aeb_32b": "dp.cmp32.eq (packet identifier compare, level 1)",
    "clk": "implicit",
    "infoenbl": "InfoBaseLevel read routing (always-on registered read)",
    "item_found": "search.found",
    "lsi_enable": "search.req from lbl_iface (update path)",
    "level": "search.level_num",
    "level_source": "lbl_iface._drive_search_request vs ib_iface",
    "readaddrctrl": "level.read_counter.{clear,en}",
    "readvals": "level.rd_index / rd_label / rd_op",
    "reset": "Simulator.reset()",
    "searchdone": "search.done",
}

#: The simulation-facing names used in Figures 14-16, mapped to traced
#: signals of this model (see the figure benchmarks).
FIGURE_SIGNALS: Dict[str, str] = {
    "level": "search.level_num",
    "old_label": "index half of dp.data_in",
    "new_label": "label half of dp.data_in",
    "operation_in": "dp.op_in",
    "packetid": "dp.packet_id",
    "save": "UserOp.WRITE_PAIR issue",
    "lookup": "UserOp.SEARCH issue",
    "label_lookup": "dp.label_lookup",
    "r_index": "level.read_counter.count",
    "w_index": "level.write_counter.count",
    "label_out": "search.label_out",
    "operation_out": "search.op_out",
    "lookup_done": "search.done",
    "packetdiscard": "search.miss (pure lookups) / modifier.packet_discard",
}
