"""The 32-bit MPLS label stack entry (paper Figure 5, RFC 3032).

Layout, most significant bit first::

    +--------------------+-----+---+----------+
    |   label (20 bits)  | CoS | S | TTL (8)  |
    +--------------------+-----+---+----------+
     31               12  11-9  8   7        0

The paper calls the 3-bit experimental field "CoS" (class of service),
following the original RFC 3032 terminology; later RFCs renamed it EXP
and then TC.  We keep the paper's name.

This module also defines :class:`LabelOp`, the 2-bit operation alphabet
stored in the hardware information base's operation memory component
(push / pop / swap / no-operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.mpls.errors import InvalidLabelError

#: Largest encodable label value (20 bits).
LABEL_MAX = (1 << 20) - 1

#: Labels 0-15 are reserved by IANA (RFC 3032 section 2.1).
RESERVED_LABEL_MAX = 15

#: "IPv4 Explicit NULL": legal anywhere in the stack (RFC 4182, which
#: lifted RFC 3032's bottom-only rule); the receiving router pops it and
#: processes what it exposes -- the next entry, or the IPv4 header -- in
#: the same hop (``mpls.forwarding.reserved_step``).
IPV4_EXPLICIT_NULL = 0

#: "Router Alert": on top of the stack, delivered to the local software
#: path on receipt.
ROUTER_ALERT = 1

#: "IPv6 Explicit NULL" (as IPv4 Explicit NULL, for IPv6 payloads).
IPV6_EXPLICIT_NULL = 2

#: "Implicit NULL": never appears on the wire (a router receiving it
#: discards the packet); advertised by an egress LER to request
#: penultimate-hop popping.
IMPLICIT_NULL = 3

#: Alias for the S bit semantics: entries with ``s == BOTTOM_OF_STACK``
#: terminate the stack.
BOTTOM_OF_STACK = 1

#: Field widths, used by both the codec here and the hardware datapath.
LABEL_BITS = 20
COS_BITS = 3
S_BITS = 1
TTL_BITS = 8
ENTRY_BITS = LABEL_BITS + COS_BITS + S_BITS + TTL_BITS  # 32

_COS_MAX = (1 << COS_BITS) - 1
_TTL_MAX = (1 << TTL_BITS) - 1
_new = object.__new__


class LabelOp(IntEnum):
    """The 2-bit operation stored per label pair in the information base.

    The numeric values are part of the hardware contract: the operation
    memory component of the paper's Figure 13 is 2 bits wide.
    """

    NOOP = 0
    PUSH = 1
    SWAP = 2
    POP = 3


@dataclass(frozen=True, slots=True)
class LabelEntry:
    """One 32-bit label stack entry.

    Instances are immutable; the mutating operations of the data plane
    (TTL decrement, label rewrite) return new entries, which keeps
    packets safe to share between simulated nodes.  A derived copy is
    built slot by slot: the field that changed passes the constructor's
    own range check (same exception, same message), the fields it
    copies were checked when their entry was constructed.
    """

    label: int
    cos: int = 0
    s: int = 0
    ttl: int = 64

    def __post_init__(self) -> None:
        if not 0 <= self.label <= LABEL_MAX:
            raise InvalidLabelError(
                f"label {self.label} outside 20-bit range 0..{LABEL_MAX}"
            )
        if not 0 <= self.cos <= _COS_MAX:
            raise InvalidLabelError(f"CoS {self.cos} outside 3-bit range")
        if self.s not in (0, 1):
            raise InvalidLabelError(f"S bit must be 0 or 1, got {self.s}")
        if not 0 <= self.ttl <= _TTL_MAX:
            raise InvalidLabelError(f"TTL {self.ttl} outside 8-bit range")

    # -- wire format ------------------------------------------------------
    def encode(self) -> int:
        """Pack into the 32-bit wire representation."""
        return (
            (self.label << (COS_BITS + S_BITS + TTL_BITS))
            | (self.cos << (S_BITS + TTL_BITS))
            | (self.s << TTL_BITS)
            | self.ttl
        )

    def encode_bytes(self) -> bytes:
        """Big-endian 4-byte wire encoding (network byte order)."""
        return self.encode().to_bytes(4, "big")

    @classmethod
    def decode(cls, word: int) -> "LabelEntry":
        """Unpack a 32-bit word into a label entry."""
        if not 0 <= word < (1 << ENTRY_BITS):
            raise InvalidLabelError(f"{word} is not a 32-bit word")
        return cls(
            label=(word >> (COS_BITS + S_BITS + TTL_BITS)) & LABEL_MAX,
            cos=(word >> (S_BITS + TTL_BITS)) & _COS_MAX,
            s=(word >> TTL_BITS) & 1,
            ttl=word & _TTL_MAX,
        )

    @classmethod
    def decode_bytes(cls, data: bytes) -> "LabelEntry":
        if len(data) != 4:
            raise InvalidLabelError(
                f"a label stack entry is exactly 4 bytes, got {len(data)}"
            )
        return cls.decode(int.from_bytes(data, "big"))

    # -- data plane helpers -----------------------------------------------
    @property
    def is_bottom(self) -> bool:
        return self.s == BOTTOM_OF_STACK

    def decremented(self) -> "LabelEntry":
        """Return a copy with TTL reduced by one (RFC 3443 behaviour).

        Raises :class:`InvalidLabelError` if the TTL is already zero --
        callers must check for expiry (TTL would *become* zero) before
        forwarding, not after.
        """
        if self.ttl == 0:
            raise InvalidLabelError("cannot decrement a zero TTL")
        return _copy(self.label, self.cos, self.s, self.ttl - 1)

    def with_ttl(self, ttl: int) -> "LabelEntry":
        if not 0 <= ttl <= _TTL_MAX:
            raise InvalidLabelError(f"TTL {ttl} outside 8-bit range")
        return _copy(self.label, self.cos, self.s, ttl)

    def with_s(self, s: int) -> "LabelEntry":
        if s not in (0, 1):
            raise InvalidLabelError(f"S bit must be 0 or 1, got {s}")
        return _copy(self.label, self.cos, s, self.ttl)

    def with_cos(self, cos: int) -> "LabelEntry":
        if not 0 <= cos <= _COS_MAX:
            raise InvalidLabelError(f"CoS {cos} outside 3-bit range")
        return _copy(self.label, cos, self.s, self.ttl)

    def rewritten(self, label: int, ttl: int) -> "LabelEntry":
        """The swap: a new label and a new TTL in one entry, CoS and S
        bit kept."""
        if not 0 <= label <= LABEL_MAX:
            raise InvalidLabelError(
                f"label {label} outside 20-bit range 0..{LABEL_MAX}"
            )
        if not 0 <= ttl <= _TTL_MAX:
            raise InvalidLabelError(f"TTL {ttl} outside 8-bit range")
        return _copy(label, self.cos, self.s, ttl)

    def __str__(self) -> str:
        return (
            f"[label={self.label} cos={self.cos} s={self.s} ttl={self.ttl}]"
        )


_set_label, _set_cos, _set_s, _set_ttl = (
    getattr(LabelEntry, name).__set__ for name in LabelEntry.__slots__
)


def _copy(label: int, cos: int, s: int, ttl: int) -> LabelEntry:
    """An entry from fields its caller has checked: no ``__init__``."""
    entry = _new(LabelEntry)
    _set_label(entry, label)
    _set_cos(entry, cos)
    _set_s(entry, s)
    _set_ttl(entry, ttl)
    return entry


def require_real_label(label: int) -> int:
    """Validate that ``label`` may be installed in a forwarding table.

    Reserved labels (0-15) have fixed semantics and may not be assigned
    to LSPs; passing one here is a control-plane bug.
    """
    if not 0 <= label <= LABEL_MAX:
        raise InvalidLabelError(f"label {label} outside 20-bit range")
    if label <= RESERVED_LABEL_MAX:
        raise InvalidLabelError(
            f"label {label} is reserved (0..{RESERVED_LABEL_MAX}) and cannot "
            "be assigned to an LSP"
        )
    return label
