"""A fast functional model of the label stack modifier.

Implements exactly the same transaction semantics as the RTL
(:mod:`repro.hw.modifier` driven by :mod:`repro.hw.driver`) with cycle
counts computed from the Table 6 formulas instead of simulated clock
edges.  Two uses:

* as the *golden reference* the RTL is checked against on randomized
  operation sequences (``tests/hw/test_rtl_vs_model.py``), and
* as the per-packet hardware cost model inside network-scale
  simulations (:mod:`repro.core.architecture`), where stepping the RTL
  for every packet would dominate the run time without changing any
  result -- the equivalence tests are what justify the substitution.

The model mirrors the hardware's quirks deliberately: linear search
with first-match-wins, discard-clears-the-stack, level-1 keys that are
either packet identifiers (ingress) or zero-extended labels (depth-1
lookups), and the LER/LSR consistency checks of VERIFY_INFO.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.hw.opcodes import (
    MgmtResult,
    ReadEntryResult,
    SearchResult,
    UpdateResult,
    check_address,
    check_corruption,
    check_key,
    check_level,
    check_pair,
    check_update,
)
from repro.mpls.label import LabelEntry, LabelOp

#: Table 6 constants.
RESET_CYCLES = 3
USER_PUSH_CYCLES = 3
USER_POP_CYCLES = 3
WRITE_PAIR_CYCLES = 3

#: The double-buffered information base commits a whole staged bank by
#: flipping the active-bank select -- one clock edge, regardless of how
#: many pairs the bank holds.
BANK_SWAP_CYCLES = 1

#: Fixed overhead of a search (the +5 of "3n + 5").
SEARCH_OVERHEAD = 5
#: Cycles per examined entry.
SEARCH_PER_ENTRY = 3
#: A hit at 0-based entry ``k`` costs ``3k + 8``; an exhaustive miss
#: over ``n`` entries costs ``3n + 5`` (the two agree at k = n-1).
SEARCH_HIT_BASE = 8

#: Post-search costs of the update flow (GET_RESULT through DONE).
SWAP_TAIL_CYCLES = 6
POP_TAIL_CYCLES = 6
PUSH_TAIL_CYCLES = 7        # visits PUSH_OLD as well
INGRESS_PUSH_TAIL_CYCLES = 6
MISS_TAIL_CYCLES = 2        # GET_RESULT + DISCARD
VERIFY_FAIL_TAIL_CYCLES = 5  # GET_RESULT..VERIFY_INFO + DISCARD

#: Management extension costs beyond the search (measured on the RTL,
#: asserted equal in the equivalence tests).
MODIFY_TAIL_CYCLES = 2
REMOVE_TAIL_CYCLES = 4
MGMT_MISS_TAIL_CYCLES = 1
READ_ENTRY_CYCLES = 5

#: Architecture limits.
MAX_LEVELS = 3


def search_cycles(n_entries: int, hit_position: Optional[int]) -> int:
    """The Table 6 search cost for a level holding ``n_entries``.

    ``hit_position`` is the 0-based index of the matching pair, or
    ``None`` for a miss (exhaustive scan).
    """
    if hit_position is None:
        return SEARCH_PER_ENTRY * n_entries + SEARCH_OVERHEAD
    return SEARCH_PER_ENTRY * hit_position + SEARCH_HIT_BASE


@dataclass
class _Level:
    pairs: List[Tuple[int, int, int]] = field(default_factory=list)
    overflow: bool = False


@dataclass
class ScrubReport:
    """Outcome of one information-base scrub (see :func:`scrub_level`)."""

    level: int
    checked: int = 0
    corrupted: int = 0
    repaired: int = 0
    passes: int = 0
    cycles: int = 0
    clean: bool = True


def _normalize_pairs(
    level: int, pairs: Iterable[Tuple[int, int, object]]
) -> List[Tuple[int, int, int]]:
    mask = 0xFFFFFFFF if level == 1 else 0xFFFFF
    return [
        (index & mask, label & 0xFFFFF, int(op))
        for index, label, op in pairs
    ]


def scrub_level(
    device,
    level: int,
    expected: Iterable[Tuple[int, int, object]],
    repair: bool = True,
    max_passes: int = 3,
) -> ScrubReport:
    """Walk one information-base level and repair corrupted pairs.

    The software side of the VERIFY_INFO idea: the control plane knows
    every (index, label, operation) triple it programmed, so a scrub
    reads each occupied address back through the management port
    (READ_ENTRY), diffs against that shadow, and repairs divergence in
    place -- MODIFY_PAIR when only the label/operation flipped,
    REMOVE_PAIR + WRITE_PAIR when the index itself was hit.  Every
    transaction's cycles are accounted, so the repair cost is
    comparable against a full reprogram.

    ``device`` is anything speaking the driver transaction protocol
    (:class:`FunctionalModifier` or
    :class:`~repro.hw.driver.ModifierDriver`).  A repair that needs
    more than ``max_passes`` detection/repair rounds (possible when a
    corrupted index collides with a healthy entry) reports
    ``clean=False``.
    """
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1..3, got {level}")
    want = Counter(_normalize_pairs(level, expected))
    report = ScrubReport(level=level)
    for _ in range(max_passes):
        report.passes += 1
        count = device.ib_counts()[level - 1]
        stored: List[Tuple[int, int, int]] = []
        for address in range(count):
            entry = device.read_entry(level, address)
            report.cycles += entry.cycles
            if entry.valid:
                stored.append((entry.index, entry.label, int(entry.op)))
        report.checked += len(stored)
        have = Counter(stored)
        bad = list((have - want).elements())
        missing = list((want - have).elements())
        if not bad and not missing:
            report.clean = True
            return report
        report.corrupted += len(bad)
        if not repair:
            report.clean = False
            return report
        for entry in bad:
            match = next(
                (m for m in missing if m[0] == entry[0]), None
            )
            if match is not None:
                # same key, flipped payload: rewrite in place
                result = device.modify_pair(
                    level, match[0], match[1], LabelOp(match[2])
                )
                report.cycles += result.cycles
                if result.found:
                    report.repaired += 1
                missing.remove(match)
            else:
                # the index itself flipped: drop the orphan pair
                result = device.remove_pair(level, entry[0])
                report.cycles += result.cycles
                if result.found:
                    report.repaired += 1
        for index, label, op in missing:
            report.cycles += device.write_pair(
                level, index, label, LabelOp(op)
            )
    # out of passes: one final verification read
    count = device.ib_counts()[level - 1]
    final: List[Tuple[int, int, int]] = []
    for address in range(count):
        entry = device.read_entry(level, address)
        report.cycles += entry.cycles
        if entry.valid:
            final.append((entry.index, entry.label, int(entry.op)))
    report.clean = Counter(final) == want
    return report


class StagingBackpressure(RuntimeError):
    """The bounded bank-write command queue is full.

    The write port drains staged pairs into the shadow bank at a fixed
    rate; when the control plane issues writes faster than the queue
    bound (``staging_limit``) allows, the next write raises instead of
    growing an unbounded staging list.  The caller must yield --
    :meth:`FunctionalModifier.bank_drain` models waiting for the queue
    to empty -- and retry the write.
    """


class FunctionalModifier:
    """Drop-in functional equivalent of
    :class:`~repro.hw.driver.ModifierDriver`."""

    def __init__(
        self,
        ib_depth: int = 1024,
        stack_capacity: int = 8,
        staging_limit: Optional[int] = None,
    ) -> None:
        if ib_depth < 1:
            raise ValueError(f"information base: depth must be >= 1, got {ib_depth}")
        self.ib_depth = ib_depth
        self.stack_capacity = stack_capacity
        if staging_limit is not None and staging_limit < 1:
            raise ValueError("staging_limit must be >= 1")
        #: bound on bank writes in flight between drains (None = legacy
        #: unbounded staging)
        self.staging_limit = staging_limit
        self._staged_since_drain = 0
        self._levels = [_Level(), _Level(), _Level()]
        #: shadow banks while a bank transaction is open, else None
        self._staged_levels: Optional[List[_Level]] = None
        self._stack: List[LabelEntry] = []  # index 0 is the top
        self._is_lsr = False
        self.stack_error = False
        self.total_cycles = 0
        #: bumped whenever the *active* information base changes shape
        #: (writes, bank flips, management ops, corruption, reset);
        #: batched nodes key memoized search results on this, since pair
        #: positions -- and therefore search cycle counts -- depend on it
        self.state_version = 0

    # -- configuration ------------------------------------------------------
    def set_router_type(self, is_lsr: bool) -> None:
        self._is_lsr = is_lsr

    # -- transactions ------------------------------------------------------
    def reset(self) -> int:
        self._levels = [_Level(), _Level(), _Level()]
        self._stack = []
        self._is_lsr = False
        self.stack_error = False
        self.state_version += 1
        self.total_cycles += RESET_CYCLES
        return RESET_CYCLES

    def user_push(self, entry: LabelEntry) -> int:
        if len(self._stack) >= self.stack_capacity:
            self.stack_error = True
        else:
            self._stack.insert(0, entry)
        self.total_cycles += USER_PUSH_CYCLES
        return USER_PUSH_CYCLES

    def user_pop(self) -> Tuple[Optional[LabelEntry], int]:
        popped = None
        if self._stack:
            popped = self._stack.pop(0)
        else:
            self.stack_error = True
        self.total_cycles += USER_POP_CYCLES
        return popped, USER_POP_CYCLES

    def write_pair(
        self, level: int, index: int, new_label: int, op: LabelOp
    ) -> int:
        check_pair(level, index, new_label, op)
        lvl = self._levels[level - 1]
        if len(lvl.pairs) >= self.ib_depth:
            lvl.overflow = True
        else:
            lvl.pairs.append((index, new_label, int(op)))
            self.state_version += 1
        self.total_cycles += WRITE_PAIR_CYCLES
        return WRITE_PAIR_CYCLES

    # -- double-buffered bank programming ------------------------------------
    def bank_begin(self) -> None:
        """Open the shadow banks: subsequent :meth:`bank_write_pair`
        calls assemble a fresh information base off to the side while
        searches and updates keep hitting the active banks."""
        if self._staged_levels is not None:
            raise RuntimeError("bank transaction already open")
        self._staged_levels = [_Level(), _Level(), _Level()]
        self._staged_since_drain = 0

    def bank_write_pair(
        self, level: int, index: int, new_label: int, op: LabelOp
    ) -> int:
        """Append a pair to the *shadow* bank (same 3-cycle write port
        as :meth:`write_pair`, but invisible to the data path until
        :meth:`bank_commit`)."""
        if self._staged_levels is None:
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
        lvl = self._staged_levels[level - 1]
        if len(lvl.pairs) >= self.ib_depth:
            lvl.overflow = True
        else:
            lvl.pairs.append((index, new_label, int(op)))
        self.total_cycles += WRITE_PAIR_CYCLES
        return WRITE_PAIR_CYCLES

    def bank_commit(self) -> int:
        """Flip the bank select: the shadow banks become active in a
        single cycle.  No search ever observes a half-written table."""
        if self._staged_levels is None:
            raise RuntimeError("no bank transaction open")
        for old, new in zip(self._levels, self._staged_levels):
            new.overflow = new.overflow or old.overflow
        self._levels = self._staged_levels
        self._staged_levels = None
        self._staged_since_drain = 0
        self.state_version += 1
        self.total_cycles += BANK_SWAP_CYCLES
        return BANK_SWAP_CYCLES

    def bank_drain(self) -> int:
        """Wait for the bounded bank-write command queue to empty.

        Zero extra cycles: each pair's 3-cycle write already covers its
        drain into the shadow-bank RAM; this only re-opens the queue.
        Returns how many writes were outstanding."""
        if self._staged_levels is None:
            raise RuntimeError("no bank transaction open")
        drained = self._staged_since_drain
        self._staged_since_drain = 0
        return drained

    def bank_rollback(self) -> None:
        """Abandon the shadow banks (zero cycles: nothing was ever
        visible to the data path)."""
        if self._staged_levels is None:
            raise RuntimeError("no bank transaction open")
        self._staged_levels = None
        self._staged_since_drain = 0

    def _scan(self, level: int, key: int):
        """Linear first-match scan; returns (position, label, op) or
        (None, None, None)."""
        for pos, (index, label, op) in enumerate(self._levels[level - 1].pairs):
            if index == key:
                return pos, label, op
        return None, None, None

    def search(self, level: int, key: int) -> SearchResult:
        check_key(level, "key", key)
        n = len(self._levels[level - 1].pairs)
        pos, label, op = self._scan(level, key)
        cycles = search_cycles(n, pos)
        self.total_cycles += cycles
        if pos is None:
            return SearchResult(
                found=False, label=None, op=None, discarded=True, cycles=cycles
            )
        return SearchResult(
            found=True,
            label=label,
            op=LabelOp(op),
            discarded=False,
            cycles=cycles,
        )

    # -- information-base management ---------------------------------------
    def modify_pair(
        self, level: int, index: int, new_label: int, op: LabelOp
    ) -> MgmtResult:
        """Rewrite an existing pair in place (search + 2 cycles)."""
        check_pair(level, index, new_label, op)
        lvl = self._levels[level - 1]
        n = len(lvl.pairs)
        pos, _, _ = self._scan(level, index)
        if pos is None:
            cycles = search_cycles(n, None) + MGMT_MISS_TAIL_CYCLES
            self.total_cycles += cycles
            return MgmtResult(found=False, cycles=cycles)
        lvl.pairs[pos] = (index, new_label, int(op))
        self.state_version += 1
        cycles = search_cycles(n, pos) + MODIFY_TAIL_CYCLES
        self.total_cycles += cycles
        return MgmtResult(found=True, cycles=cycles)

    def remove_pair(self, level: int, index: int) -> MgmtResult:
        """Delete a pair; the last stored pair fills the hole (search
        + 4 cycles)."""
        check_key(level, "index", index)
        lvl = self._levels[level - 1]
        n = len(lvl.pairs)
        pos, _, _ = self._scan(level, index)
        if pos is None:
            cycles = search_cycles(n, None) + MGMT_MISS_TAIL_CYCLES
            self.total_cycles += cycles
            return MgmtResult(found=False, cycles=cycles)
        lvl.pairs[pos] = lvl.pairs[-1]
        lvl.pairs.pop()
        self.state_version += 1
        cycles = search_cycles(n, pos) + REMOVE_TAIL_CYCLES
        self.total_cycles += cycles
        return MgmtResult(found=True, cycles=cycles)

    def read_entry(self, level: int, address: int) -> ReadEntryResult:
        """Direct read of the pair at ``address`` (5 fixed cycles)."""
        check_level(level)
        check_address(self.ib_depth, address)
        # the RTL clamps the presented address to the memory depth
        address = min(address, self.ib_depth - 1)
        lvl = self._levels[level - 1]
        self.total_cycles += READ_ENTRY_CYCLES
        if address >= len(lvl.pairs):
            return ReadEntryResult(
                valid=False, index=None, label=None, op=None,
                cycles=READ_ENTRY_CYCLES,
            )
        index, label, op = lvl.pairs[address]
        return ReadEntryResult(
            valid=True,
            index=index,
            label=label,
            op=LabelOp(op),
            cycles=READ_ENTRY_CYCLES,
        )

    def update(
        self, packet_id: int = 0, ttl: int = 64, cos: int = 0
    ) -> UpdateResult:
        check_update(packet_id, ttl, cos)
        was_empty = not self._stack
        if was_empty:
            level, key = 1, packet_id
            old_ttl, old_cos = ttl, cos
        else:
            top = self._stack[0]
            level = min(len(self._stack), MAX_LEVELS)
            key = top.label
            old_ttl, old_cos = top.ttl, top.cos
        n = len(self._levels[level - 1].pairs)
        pos, label, op_code = self._scan(level, key)

        if pos is None:
            searched = search_cycles(n, None)
            cycles = searched + MISS_TAIL_CYCLES
            self._stack = []
            self.total_cycles += cycles
            return UpdateResult(
                performed=None,
                discarded=True,
                cycles=cycles,
                stack=(),
                search_cycles=searched,
            )

        base = search_cycles(n, pos)
        op = LabelOp(op_code)
        new_ttl = (old_ttl - 1) & 0xFF

        def fail() -> UpdateResult:
            cycles = base + VERIFY_FAIL_TAIL_CYCLES
            self._stack = []
            self.total_cycles += cycles
            return UpdateResult(
                performed=None,
                discarded=True,
                cycles=cycles,
                stack=(),
                search_cycles=base,
            )

        # VERIFY_INFO checks, in the same order as the RTL
        if old_ttl <= 1:
            return fail()
        if op is LabelOp.NOOP:
            return fail()
        if was_empty and op is not LabelOp.PUSH:
            return fail()
        if was_empty and self._is_lsr:
            return fail()
        if op is LabelOp.PUSH and len(self._stack) >= MAX_LEVELS:
            return fail()

        if op is LabelOp.SWAP:
            old = self._stack.pop(0)
            # like PUSH_NEW in the RTL, the S bit is recomputed from
            # the stack occupancy rather than copied from the old entry
            s_bit = 1 if not self._stack else 0
            self._stack.insert(
                0, LabelEntry(label=label, cos=old.cos, s=s_bit, ttl=new_ttl)
            )
            cycles = base + SWAP_TAIL_CYCLES
        elif op is LabelOp.POP:
            self._stack.pop(0)
            if self._stack:
                exposed = self._stack[0]
                self._stack[0] = LabelEntry(
                    label=exposed.label,
                    cos=exposed.cos,
                    s=exposed.s,
                    ttl=new_ttl,
                )
            cycles = base + POP_TAIL_CYCLES
        else:  # PUSH
            if was_empty:
                self._stack.insert(
                    0, LabelEntry(label=label, cos=old_cos, s=1, ttl=new_ttl)
                )
                cycles = base + INGRESS_PUSH_TAIL_CYCLES
            else:
                old = self._stack.pop(0)
                self._stack.insert(
                    0,
                    LabelEntry(label=old.label, cos=old.cos, s=old.s, ttl=new_ttl),
                )
                self._stack.insert(
                    0, LabelEntry(label=label, cos=old.cos, s=0, ttl=new_ttl)
                )
                cycles = base + PUSH_TAIL_CYCLES
        self.total_cycles += cycles
        return UpdateResult(
            performed=op,
            discarded=False,
            cycles=cycles,
            stack=tuple(self._stack),
            search_cycles=base,
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
        """Flip bits in the stored pair at ``address`` (a soft-error /
        SEU model, not a hardware transaction: zero cycles).  Returns
        False when the address holds no pair."""
        check_corruption(level, index_xor, label_xor, op_xor)
        lvl = self._levels[level - 1]
        if not 0 <= address < len(lvl.pairs):
            return False
        index, label, op = lvl.pairs[address]
        lvl.pairs[address] = (index ^ index_xor, label ^ label_xor, op ^ op_xor)
        self.state_version += 1
        return True

    def scrub(
        self,
        level: int,
        expected: Iterable[Tuple[int, int, object]],
        repair: bool = True,
    ) -> ScrubReport:
        """Verify (and repair) one level against the control plane's
        shadow of what it programmed; see :func:`scrub_level`."""
        return scrub_level(self, level, expected, repair=repair)

    # -- inspection ---------------------------------------------------------
    def stack(self) -> List[LabelEntry]:
        return list(self._stack)

    def ib_counts(self) -> Tuple[int, int, int]:
        return tuple(len(lvl.pairs) for lvl in self._levels)  # type: ignore[return-value]

    def ib_pairs(self, level: int) -> List[Tuple[int, int, int]]:
        """The stored (index, label, op) triples of one level."""
        check_level(level)
        return list(self._levels[level - 1].pairs)
