"""Transaction-level driver for the label stack modifier.

The driver plays the role of the paper's "user" (and of the ingress
packet-processing module): it presents a command on the modifier's
input wires for one clock cycle, then steps the simulator until the
combined ``done`` pulse is observed with every control FSM back in
IDLE.  The number of clock edges from command issue to completion is
the transaction's exact cycle count -- the quantity Table 6 reports.

Transactions:

=====================  =======================================
:meth:`reset`          3 cycles (Table 6 "Reset")
:meth:`user_push`      3 cycles ("push from the user")
:meth:`user_pop`       3 cycles ("pop from the user")
:meth:`write_pair`     3 cycles ("Write label pair")
:meth:`search`         3n + 5 worst case ("Search information base")
:meth:`update`         search + 6 for swap/pop ("swap from the
                       information base"), +7 for a nested push
=====================  =======================================

The driver is a :class:`~repro.hw.model.ModifierBackend`, like the
functional model: the double-buffered bank protocol (a shadow-bank
write costs WRITE_PAIR's 3 cycles, the swap one edge), the scrub and
the packet pass (:meth:`~repro.hw.model.ModifierBackend.forward`) come
from the base.  The driver's two hooks step the simulator through the
bank cycles with no command presented, under the profiler labels
``BANK_WRITE`` / ``BANK_SWAP``, and bulk-load the staged pairs into the
information-base memories within the swap cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hdl.signal import Wire
from repro.hdl.simulator import Component, Simulator
from repro.hw.info_base import LEVEL_DEPTH
from repro.hw.model import PUSH_TAIL_CYCLES, ModifierBackend, search_cycles
from repro.hw.modifier import LabelStackModifier
from repro.hw.opcodes import (
    MgmtResult,
    ReadEntryResult,
    SearchResult,
    UpdateResult,
    UserOp,
    check_address,
    check_corruption,
    check_key,
    check_level,
    check_pair,
    check_update,
)
from repro.mpls.label import LabelEntry, LabelOp

#: Table 6's fixed reset cost.
RESET_CYCLES = 3

#: A transaction is a hang once it has run this many times the worst
#: legitimate one of the design: a nested push found at the last pair
#: of a full level (3077 + 7 cycles at the paper's depth of 1024).
HANG_FACTOR = 4


class _WireDriver(Component):
    """Holds requested wire values and drives them; a released wire
    goes back to its default."""

    #: the values are set between edges, never by a signal: each change
    #: of the table wakes it
    reads = ()

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._values: Dict[Wire, int] = {}

    def set(self, wire: Wire, value: int) -> None:
        self._values[wire] = value
        self.wake()

    def release(self, *wires: Wire) -> None:
        for wire in wires:
            self._values.pop(wire, None)
        self.wake()

    def clear(self) -> None:
        self._values.clear()
        self.wake()

    def settle(self) -> None:
        for wire, value in self._values.items():
            wire.drive(value)


class ModifierDriver(ModifierBackend):
    """Issues operations against a :class:`LabelStackModifier` and
    reports exact cycle counts."""

    def __init__(self, ib_depth: int = LEVEL_DEPTH) -> None:
        self.modifier = LabelStackModifier(ib_depth)
        self.sim = self.modifier.sim
        self._pins = _WireDriver(self.sim, "pins")
        #: pairs per information-base level, as the RTL was built
        self.ib_depth = self.modifier.dp.info_base.depth
        #: the hang bound, from the depth this information base was built with
        self.max_transaction_cycles = HANG_FACTOR * (
            search_cycles(self.ib_depth, None) + PUSH_TAIL_CYCLES
        )
        super().__init__()
        #: Optional :class:`repro.obs.profiling.CycleProfiler`; when
        #: attached, every transaction's cycles are scoped under the
        #: operation's name for per-operation breakdowns.
        self.profiler = None

    def attach_profiler(self, profiler) -> None:
        """Scope subsequent transactions under the profiler's
        operation labels (see :mod:`repro.obs.profiling`)."""
        self.profiler = profiler

    # -- low-level transaction plumbing -----------------------------------
    def _issue(self, op: UserOp, **operands: int) -> int:
        """Present a command for one cycle, run to completion, return
        the cycle count."""
        if self.profiler is not None:
            with self.profiler.operation(op.name):
                return self._issue_unprofiled(op, **operands)
        return self._issue_unprofiled(op, **operands)

    def _issue_unprofiled(self, op: UserOp, **operands: int) -> int:
        if self.modifier.busy:
            raise RuntimeError("modifier is busy; cannot issue a command")
        dp = self.modifier.dp
        command = {dp.operation: int(op)}
        command.update((getattr(dp, field), v) for field, v in operands.items())
        for pin, value in command.items():
            self._pins.set(pin, value)
        try:
            self.sim.step()  # edge 1: the main FSM accepts and latches
            cycles = 1
            # the command wires only need to be valid in the accept cycle
            self._pins.set(dp.operation, int(UserOp.NONE))
            while cycles < self.max_transaction_cycles:
                self.sim.step()
                cycles += 1
                # Read the registered done pulses directly: registers are
                # up to date immediately after the edge, whereas the OR'd
                # `done` wire only refreshes during the next settle phase.
                done = (
                    self.modifier.search.done.value
                    or self.modifier.ib_iface.done.value
                    or self.modifier.lbl_iface.done.value
                )
                if done and not self.modifier.busy:
                    self.total_cycles += cycles
                    return cycles
            raise TimeoutError(
                f"{op.name} did not complete within "
                f"{self.max_transaction_cycles} cycles"
            )
        except BaseException:
            # whatever stopped it, the next transaction must not meet
            # this one's command on the pins
            self._pins.release(*command)
            raise

    def set_router_type(self, is_lsr: bool) -> None:
        """Configure the ``rtrtype`` pin (Table 3: low = LER, high = LSR)."""
        self._pins.set(self.modifier.dp.rtrtype, 1 if is_lsr else 0)

    # -- transactions ------------------------------------------------------
    def reset(self) -> int:
        """The 3-cycle reset sequence of Table 6."""
        self.sim.reset()
        self._pins.clear()
        if self.profiler is not None:
            # the async reset changed state without a clock edge
            self.profiler.resync()
            with self.profiler.operation("RESET"):
                self.sim.step(RESET_CYCLES)
        else:
            self.sim.step(RESET_CYCLES)
        self.state_version += 1
        self.total_cycles += RESET_CYCLES
        return RESET_CYCLES

    def user_push(self, entry: LabelEntry) -> int:
        """Push a stack entry supplied directly by the user."""
        return self._issue(UserOp.USER_PUSH, data_in=entry.encode())

    def user_pop(self) -> Tuple[Optional[LabelEntry], int]:
        """Pop the top entry; returns (popped entry or None, cycles)."""
        entries = self.modifier.stack_entries()
        popped = entries[0] if entries else None
        cycles = self._issue(UserOp.USER_POP)
        return popped, cycles

    def write_pair(
        self,
        level: int,
        index: int,
        new_label: int,
        op: LabelOp,
    ) -> int:
        """Store a label pair + operation at an information-base level.

        ``index`` is the 32-bit packet identifier at level 1 and a
        20-bit label at levels 2-3 (they travel over different input
        pins, as in the paper's datapath).
        """
        check_pair(level, index, new_label, op)
        operands = dict(level_in=level, op_in=int(op))
        if level == 1:
            operands["packet_id"] = index
            operands["data_in"] = new_label
        else:
            operands["data_in"] = (index << 20) | new_label
        self.state_version += 1
        return self._issue(UserOp.WRITE_PAIR, **operands)

    def search(self, level: int, key: int) -> SearchResult:
        """Look up a label pair (the read path of Figures 14-16)."""
        check_key(level, "key", key)
        operands = dict(level_in=level)
        if level == 1:
            operands["packet_id"] = key
        else:
            operands["label_lookup"] = key
        cycles = self._issue(UserOp.SEARCH, **operands)
        found = bool(self.modifier.search.found.value)
        return SearchResult(
            found=found,
            label=self.modifier.search.label_out.value if found else None,
            op=LabelOp(self.modifier.search.op_out.value) if found else None,
            discarded=bool(self.modifier.search.miss.value),
            cycles=cycles,
        )

    def update(
        self,
        packet_id: int = 0,
        ttl: int = 64,
        cos: int = 0,
    ) -> UpdateResult:
        """Run the full Figure 9 update flow.

        ``packet_id``/``ttl``/``cos`` are only consulted when the stack
        is empty (the LER ingress case); otherwise the top label keys
        the search and the TTL comes from the stack entry.
        """
        check_update(packet_id, ttl, cos)
        cycles = self._issue(
            UserOp.UPDATE,
            packet_id=packet_id,
            ttl_in=ttl,
            cos_in=cos,
        )
        lbl = self.modifier.lbl_iface
        discarded = bool(lbl.discard.value)
        performed = (
            LabelOp(lbl.performed.value)
            if lbl.performed_valid.value and not discarded
            else None
        )
        return UpdateResult(
            performed=performed,
            discarded=discarded,
            cycles=cycles,
            stack=tuple(self.modifier.stack_entries()),
        )

    # -- the bank hooks ------------------------------------------------------
    def _spend(self, label: str, cycles: int) -> int:
        """Advance the clock with no command presented (the FSMs sit in
        IDLE), keeping the cycle accounting and any attached profiler
        in lock-step with the simulator."""
        if self.profiler is not None:
            with self.profiler.operation(label):
                self.sim.step(cycles)
        else:
            self.sim.step(cycles)
        self.total_cycles += cycles
        return cycles

    def _swap_in(self, staged: List[List[Tuple[int, int, int]]]) -> None:
        """Every level's memories and write counter adopt the staged
        contents within the one swap cycle."""
        for level, pairs in enumerate(staged, start=1):
            self.modifier.dp.info_base.level(level).load_pairs(pairs)

    # -- information-base management ---------------------------------------
    def modify_pair(
        self, level: int, index: int, new_label: int, op: LabelOp
    ) -> MgmtResult:
        """Rewrite an existing pair's label and operation in place.

        The pair is located by a search on ``index``; an absent index
        reports ``found=False`` and changes nothing.
        """
        check_pair(level, index, new_label, op)
        operands = dict(level_in=level, op_in=int(op))
        if level == 1:
            operands["packet_id"] = index
            operands["data_in"] = new_label
        else:
            operands["label_lookup"] = index
            operands["data_in"] = (index << 20) | new_label
        cycles = self._issue(UserOp.MODIFY_PAIR, **operands)
        self.state_version += 1
        return MgmtResult(
            found=bool(self.modifier.ib_iface.mgmt_found.value),
            cycles=cycles,
        )

    def remove_pair(self, level: int, index: int) -> MgmtResult:
        """Delete the pair keyed by ``index`` (the last stored pair
        fills the hole, keeping the array dense)."""
        check_key(level, "index", index)
        operands = dict(level_in=level)
        if level == 1:
            operands["packet_id"] = index
        else:
            operands["label_lookup"] = index
        cycles = self._issue(UserOp.REMOVE_PAIR, **operands)
        self.state_version += 1
        return MgmtResult(
            found=bool(self.modifier.ib_iface.mgmt_found.value),
            cycles=cycles,
        )

    def read_entry(self, level: int, address: int) -> ReadEntryResult:
        """Read the pair stored at ``address`` directly (no search)."""
        check_level(level)
        check_address(self.ib_depth, address)
        cycles = self._issue(UserOp.READ_ENTRY, level_in=level, data_in=address)
        iface = self.modifier.ib_iface
        valid = bool(iface.mgmt_found.value)
        return ReadEntryResult(
            valid=valid,
            index=iface.rd_out_index.value if valid else None,
            label=iface.rd_out_label.value if valid else None,
            op=LabelOp(iface.rd_out_op.value) if valid else None,
            cycles=cycles,
        )

    # -- fault injection ----------------------------------------------------
    def corrupt_pair(
        self,
        level: int,
        address: int,
        index_xor: int = 0,
        label_xor: int = 0,
        op_xor: int = 0,
    ) -> bool:
        """Flip bits directly in the information-base memories (an SEU
        model: no transaction, no cycles).  Returns False when
        ``address`` holds no pair."""
        check_corruption(level, index_xor, label_xor, op_xor)
        lvl = self.modifier.dp.info_base.level(level)
        if not 0 <= address < lvl.count:
            return False
        if index_xor:
            lvl.index_mem.poke(
                address, lvl.index_mem.peek(address) ^ index_xor
            )
        if label_xor:
            lvl.label_mem.poke(
                address, lvl.label_mem.peek(address) ^ label_xor
            )
        if op_xor:
            lvl.op_mem.poke(address, lvl.op_mem.peek(address) ^ op_xor)
        self.state_version += 1
        return True

    # -- inspection ---------------------------------------------------------
    def stack(self):
        return self.modifier.stack_entries()

    def ib_counts(self):
        return self.modifier.ib_counts()

    def ib_pairs(self, level: int):
        """The stored (index, label, op) triples of one level."""
        return self.modifier.dp.info_base.level(level).dump_pairs()
