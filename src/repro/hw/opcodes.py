"""Operation encodings and transaction result records.

The user-facing operation alphabet corresponds to the paper's
``extoperation`` signal ("Indicates the desired operation from the
user", Tables 1-2); the stack micro-operations are the ``stckctrl``
encoding of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

from repro.mpls.label import LABEL_MAX, LabelEntry, LabelOp


class UserOp(IntEnum):
    """The ``extoperation`` input: what the user asks the modifier to do.

    Operations 6-8 are the management extensions the paper names but
    does not detail ("Entries can be added, modified, or removed from
    the information base" and the direct read path of its datapath
    description).
    """

    NONE = 0
    USER_PUSH = 1    # push a stack entry supplied on data_in
    USER_POP = 2     # pop the top stack entry
    WRITE_PAIR = 3   # store a label pair + operation in the info base
    SEARCH = 4       # look up a label pair (read path of Figs 14-16)
    UPDATE = 5       # full update: search + verify + push/swap/pop
    MODIFY_PAIR = 6  # rewrite an existing pair's label/operation in place
    REMOVE_PAIR = 7  # delete a pair (last entry fills the hole)
    READ_ENTRY = 8   # read the pair stored at a given address directly


class StackOp(IntEnum):
    """The stack control micro-operations (``stckctrl``/``lblop``)."""

    HOLD = 0
    PUSH = 1
    POP = 2
    CLEAR = 3
    WRITE_TOP = 4  # rewrite the top entry in place (pop's TTL fix-up)


# -- the operand contract of the transaction interface -------------------------
# The widths of the datapath's input pins.  The RTL driver and the
# functional model both check here, at the transaction boundary, before
# anything changes: a refused operand costs no cycle, bumps no version,
# sets no pin, and reads the same from either.  The model is the
# per-packet cost model of network-scale runs, so an accepted operand
# costs one call and one chained comparison; the names are for the refusal.
#: a level-1 key is the 32-bit packet identifier, a level-2/3 key a label
KEY_MAX = {1: 0xFFFFFFFF, 2: LABEL_MAX, 3: LABEL_MAX}


def _refuse(*operands: Tuple[str, int, int]) -> None:
    for name, value, top in operands:
        if not 0 <= value <= top:
            raise ValueError(f"{name} must be 0..{top}, got {value}")


def check_level(level: int) -> None:
    if level not in KEY_MAX:
        raise ValueError(f"level must be 1..3, got {level}")


def check_key(level: int, name: str, value: int) -> None:
    top = KEY_MAX.get(level)
    if top is None or not 0 <= value <= top:
        check_level(level)
        _refuse((name, value, top))


def check_pair(level: int, index: int, new_label: int, op: int) -> None:
    top = KEY_MAX.get(level)
    if top is None or not (
        0 <= index <= top and 0 <= new_label <= LABEL_MAX and 0 <= op <= 3
    ):
        check_level(level)
        _refuse(("index", index, top), ("new_label", new_label, LABEL_MAX), ("op", op, 3))


def check_update(packet_id: int, ttl: int, cos: int) -> None:
    if not (0 <= packet_id <= 0xFFFFFFFF and 0 <= ttl <= 0xFF and 0 <= cos <= 7):
        _refuse(("packet_id", packet_id, 0xFFFFFFFF), ("ttl", ttl, 0xFF), ("cos", cos, 7))


def address_bits(depth: int) -> int:
    """The direct-read address bus: 11 bits (the paper's 1 K levels,
    with room to spare), or what the last address of a deeper level
    needs."""
    return max(11, (depth - 1).bit_length())


def check_address(depth: int, address: int) -> None:
    bits = address_bits(depth)
    if not 0 <= address < 1 << bits:
        raise ValueError(f"address {address} outside the {bits}-bit address bus")


def check_corruption(level: int, index_xor: int, label_xor: int, op_xor: int) -> None:
    check_key(level, "index_xor", index_xor)
    _refuse(("label_xor", label_xor, LABEL_MAX), ("op_xor", op_xor, 3))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a SEARCH transaction (Figures 14-16).

    ``cycles`` is the exact clock-cycle count from command issue to the
    registered ``lookup_done`` pulse.
    """

    found: bool
    label: Optional[int]
    op: Optional[LabelOp]
    discarded: bool
    cycles: int


@dataclass(frozen=True)
class MgmtResult:
    """Outcome of a MODIFY_PAIR / REMOVE_PAIR transaction."""

    found: bool
    cycles: int


@dataclass(frozen=True)
class ReadEntryResult:
    """Outcome of a READ_ENTRY transaction (direct memory read)."""

    valid: bool
    index: Optional[int]
    label: Optional[int]
    op: Optional[LabelOp]
    cycles: int


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of an UPDATE transaction (the Figure 9 flow).

    ``search_cycles`` is the portion of ``cycles`` spent in the SEARCH
    sub-flow (the Figures 14-16 lookup); the remainder is the
    verify/modify tail.  The functional model fills it in for span
    tracing; None means the split was not measured.
    """

    performed: Optional[LabelOp]
    discarded: bool
    cycles: int
    stack: Tuple[LabelEntry, ...]
    search_cycles: Optional[int] = None
