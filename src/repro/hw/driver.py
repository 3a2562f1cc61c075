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
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.hdl.signal import Wire
from repro.hdl.simulator import Component, Simulator
from repro.hw.model import PUSH_TAIL_CYCLES, StagingBackpressure, search_cycles
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
from repro.obs.telemetry import get_telemetry

#: Table 6's fixed reset cost.
RESET_CYCLES = 3

#: Cost of one shadow-bank write (same write port as WRITE_PAIR).
BANK_WRITE_CYCLES = 3
#: Cost of the atomic bank swap (one clock edge).
BANK_SWAP_CYCLES = 1

#: A transaction is a hang once it has run this many times the worst
#: legitimate one of the design: a nested push found at the last pair
#: of a full level (3077 + 7 cycles at the paper's depth of 1024).
HANG_FACTOR = 4


class _WireDriver(Component):
    """Holds requested wire values and drives them each cycle."""

    #: the values are set between edges, never by a wire
    reads = ()

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._values: Dict[Wire, int] = {}

    def set(self, wire: Wire, value: int) -> None:
        self._values[wire] = value

    def release(self, *wires: Wire) -> None:
        for wire in wires:
            self._values.pop(wire, None)

    def clear(self) -> None:
        self._values.clear()

    def settle(self) -> None:
        for wire, value in self._values.items():
            wire.drive(value)


class ModifierDriver:
    """Issues operations against a :class:`LabelStackModifier` and
    reports exact cycle counts."""

    def __init__(
        self,
        modifier: Optional[LabelStackModifier] = None,
        staging_limit: Optional[int] = None,
        **kwargs,
    ) -> None:
        self.modifier = modifier if modifier is not None else LabelStackModifier(**kwargs)
        self.sim = self.modifier.sim
        self._pins = _WireDriver(self.sim, "pins")
        #: the hang bound, from the depth this information base was built with
        self.max_transaction_cycles = HANG_FACTOR * (
            search_cycles(self.modifier.dp.info_base.depth, None)
            + PUSH_TAIL_CYCLES
        )
        if staging_limit is not None and staging_limit < 1:
            raise ValueError("staging_limit must be >= 1")
        #: bound on bank writes in flight between drains (None = legacy
        #: unbounded staging); full queue raises StagingBackpressure
        self.staging_limit = staging_limit
        self._staged_since_drain = 0
        #: per-level staged pairs while a bank transaction is open
        self._staged_banks: Optional[List[List[Tuple[int, int, int]]]] = None
        self.total_cycles = 0
        #: mirrors :attr:`repro.hw.model.FunctionalModifier.state_version`:
        #: bumped whenever the active information base may have changed,
        #: so batched nodes can key memoized lookups on it.  Bumps are
        #: conservative (a no-op modify still bumps) -- over-invalidating
        #: a memo is safe, under-invalidating is not.
        self.state_version = 0
        #: Optional :class:`repro.obs.profiling.CycleProfiler`; when
        #: attached, every transaction's cycles are scoped under the
        #: operation's name for per-operation breakdowns.
        self.profiler = None
        #: Open :meth:`span_scope` context, or None (the default: no
        #: per-transaction span events are emitted).
        self._span_ctx = None
        self.telemetry = get_telemetry()

    def attach_profiler(self, profiler) -> None:
        """Scope subsequent transactions under the profiler's
        operation labels (see :mod:`repro.obs.profiling`)."""
        self.profiler = profiler

    @contextmanager
    def span_scope(
        self,
        node: str = "rtl",
        uid: int = 0,
        flow_id: int = 0,
        anchor_time: float = 0.0,
        clock_hz: float = 50e6,
    ) -> Iterator[None]:
        """Attribute the transactions inside the block to one packet.

        While open, every completed transaction is emitted as a
        cycles-domain :class:`~repro.obs.events.HWOpExecuted` event
        (when telemetry is enabled and a span recorder is attached),
        with cycle offsets relative to the scope start -- the RTL
        driver's half of the cycle-to-time correlation.
        """
        if self._span_ctx is not None:
            raise RuntimeError("span scope already open")
        self._span_ctx = {
            "node": node,
            "uid": uid,
            "flow_id": flow_id,
            "anchor_time": anchor_time,
            "clock_hz": clock_hz,
            "base_cycle": self.sim.cycle,
        }
        try:
            yield
        finally:
            self._span_ctx = None

    def _emit_span(self, op_name: str, start_cycle: int, end_cycle: int) -> None:
        ctx = self._span_ctx
        tel = self.telemetry
        if not tel.enabled or tel.spans is None:
            return
        base = ctx["base_cycle"]
        phase = op_name.lower().replace("_", "-")
        tel.events.emit_phases(
            ctx["node"], ctx["uid"], ctx["flow_id"],
            ctx["anchor_time"], ctx["clock_hz"],
            [(phase, None, start_cycle - base, end_cycle - base)],
        )

    # -- low-level transaction plumbing -----------------------------------
    def _issue(self, op: UserOp, **operands: int) -> int:
        """Present a command for one cycle, run to completion, return
        the cycle count."""
        start_cycle = self.sim.cycle
        if self.profiler is not None:
            with self.profiler.operation(op.name):
                cycles = self._issue_unprofiled(op, **operands)
        else:
            cycles = self._issue_unprofiled(op, **operands)
        if self._span_ctx is not None:
            self._emit_span(op.name, start_cycle, self.sim.cycle)
        return cycles

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

    # -- double-buffered bank programming ------------------------------------
    def _burn(self, label: str, cycles: int) -> int:
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

    def bank_begin(self) -> None:
        """Open the shadow banks: :meth:`bank_write_pair` assembles a
        fresh information base that stays invisible to searches and
        updates until :meth:`bank_commit` flips it in."""
        if self._staged_banks is not None:
            raise RuntimeError("bank transaction already open")
        self._staged_banks = [[], [], []]
        self._staged_since_drain = 0

    def bank_write_pair(
        self, level: int, index: int, new_label: int, op: LabelOp
    ) -> int:
        """Write one pair into the shadow bank.  The write burns the
        same 3 cycles as WRITE_PAIR -- the pair travels over the same
        write port -- but lands in the inactive bank."""
        if self._staged_banks is None:
            raise RuntimeError("no bank transaction open")
        check_pair(level, index, new_label, op)
        if (
            self.staging_limit is not None
            and self._staged_since_drain >= self.staging_limit
        ):
            raise StagingBackpressure(
                f"bank command queue full ({self.staging_limit} writes "
                f"since last drain)"
            )
        self._staged_since_drain += 1
        self._staged_banks[level - 1].append((index, new_label, int(op)))
        return self._burn("BANK_WRITE", BANK_WRITE_CYCLES)

    def bank_commit(self) -> int:
        """Flip the bank select in one cycle: every level's memories
        and write counter adopt the staged contents atomically."""
        if self._staged_banks is None:
            raise RuntimeError("no bank transaction open")
        staged, self._staged_banks = self._staged_banks, None
        self._staged_since_drain = 0
        for level, pairs in enumerate(staged, start=1):
            self.modifier.dp.info_base.level(level).load_pairs(pairs)
        self.state_version += 1
        return self._burn("BANK_SWAP", BANK_SWAP_CYCLES)

    def bank_drain(self) -> int:
        """Wait for the bounded bank-write command queue to empty.

        Zero extra cycles: each pair\'s 3-cycle BANK_WRITE already
        covers its drain into the shadow-bank memories; this only
        re-opens the queue.  Returns how many writes were outstanding."""
        if self._staged_banks is None:
            raise RuntimeError("no bank transaction open")
        drained = self._staged_since_drain
        self._staged_since_drain = 0
        return drained

    def bank_rollback(self) -> None:
        """Abandon the shadow banks (zero cycles: the live memories
        were never touched)."""
        if self._staged_banks is None:
            raise RuntimeError("no bank transaction open")
        self._staged_banks = None
        self._staged_since_drain = 0

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
        check_address(self.modifier.dp.info_base.depth, address)
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

    def scrub(self, level: int, expected, repair: bool = True):
        """Verify (and repair) one level against the control plane's
        shadow; same semantics as
        :meth:`repro.hw.model.FunctionalModifier.scrub`, measured in
        real RTL transaction cycles."""
        from repro.hw.model import scrub_level

        return scrub_level(self, level, expected, repair=repair)

    # -- inspection ---------------------------------------------------------
    def stack(self):
        return self.modifier.stack_entries()

    def ib_counts(self):
        return self.modifier.ib_counts()

    def ib_pairs(self, level: int):
        """The stored (index, label, op) triples of one level."""
        return self.modifier.dp.info_base.level(level).dump_pairs()
