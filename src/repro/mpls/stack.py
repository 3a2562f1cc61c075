"""Label stack semantics (paper Figure 4, RFC 3032 section 3).

A :class:`LabelStack` is an immutable sequence of
:class:`~repro.mpls.label.LabelEntry` with the top of the stack first.
The class enforces the S-bit invariant -- exactly the bottom entry has
``s == 1`` -- by *computing* the S bits rather than trusting callers:
the constructor derives the bit of every entry it is given (rewriting
only an entry whose bit is wrong) and checks the depth limit.  A stack
is therefore well-formed by construction, and ``push``/``pop``/``swap``
rely on that: they reuse the tuple they already hold and fix the S bit
of the one entry that enters, so a hop costs one new entry and one new
stack, whatever the depth.

The paper notes that real MPLS networks rarely nest more than two or
three levels; the hardware information base supports exactly three.  The
software stack takes the depth limit as a parameter (default 3 to match
the hardware) but the limit is enforced at push time, not baked into the
representation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from repro.mpls.errors import StackDepthExceeded, StackUnderflow
from repro.mpls.label import LabelEntry

#: The stack depth the paper's hardware supports (three IB levels).
DEFAULT_MAX_DEPTH = 3


class LabelStack:
    """An immutable MPLS label stack; index 0 is the top entry.

    ``entries`` (the tuple of entries) and ``max_depth`` are plain
    slots the hop reads directly; nothing writes them after the stack
    is built, which is what keeps its :meth:`key` memo current."""

    __slots__ = ("entries", "max_depth", "_key")

    def __init__(
        self,
        entries: Iterable[LabelEntry] = (),
        max_depth: Optional[int] = DEFAULT_MAX_DEPTH,
    ) -> None:
        fixed = list(entries)
        bottom = len(fixed) - 1
        for i, entry in enumerate(fixed):
            s = 1 if i == bottom else 0
            if entry.s != s:
                fixed[i] = entry.with_s(s)
        self.entries: Tuple[LabelEntry, ...] = tuple(fixed)
        self.max_depth = max_depth
        self._key: Optional[tuple] = None
        if max_depth is not None and len(self.entries) > max_depth:
            raise StackDepthExceeded(
                f"stack of depth {len(self.entries)} exceeds limit {max_depth}"
            )

    @classmethod
    def _of(
        cls, entries: Tuple[LabelEntry, ...], max_depth: Optional[int]
    ) -> "LabelStack":
        """A stack over a tuple that is already well-formed (S bits
        right, depth within ``max_depth``): no per-entry work."""
        stack = cls.__new__(cls)
        stack.entries = entries
        stack.max_depth = max_depth
        stack._key = None
        return stack

    # -- the memo ---------------------------------------------------------
    def key(self) -> tuple:
        """The stack as plain ints, worked out on first use and kept:
        ``(labels, cos, s, ttl, max_depth)``, one column per entry
        field, top first.  Two stacks have equal keys exactly when
        their entries and depth limits are equal.

        The key cannot go stale: a stack is never changed after it is
        built (``push`` / ``pop`` / ``swap`` build a new one, which
        starts without a key).  The flow cache hashes it per hop
        (:func:`repro.mpls.fastpath.key_of`) and telemetry takes its
        label column (:func:`repro.mpls.router.stack_labels`); both
        read ``_key`` first and call this only while it is None.
        """
        entries = self.entries
        key = self._key = (
            tuple([e.label for e in entries]),
            tuple([e.cos for e in entries]),
            tuple([e.s for e in entries]),
            tuple([e.ttl for e in entries]),
            self.max_depth,
        )
        return key

    # -- inspection -------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def top(self) -> LabelEntry:
        """The top (most recently pushed) entry."""
        if not self.entries:
            raise StackUnderflow("top of an empty label stack")
        return self.entries[0]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[LabelEntry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelStack):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = " ".join(str(e) for e in self.entries) or "empty"
        return f"<LabelStack {inner}>"

    # -- operations (all return new stacks) --------------------------------
    def push(self, entry: LabelEntry) -> "LabelStack":
        """Push ``entry`` on top; raises if the depth limit is hit."""
        if self.max_depth is not None and self.depth + 1 > self.max_depth:
            raise StackDepthExceeded(
                f"push would exceed max depth {self.max_depth}"
            )
        return self._on_top(entry, self.entries)

    def pop(self) -> Tuple[LabelEntry, "LabelStack"]:
        """Remove the top entry; returns ``(entry, rest)``."""
        if not self.entries:
            raise StackUnderflow("pop of an empty label stack")
        return self.entries[0], self._of(self.entries[1:], self.max_depth)

    def swap(self, new_top: LabelEntry) -> "LabelStack":
        """Replace the top entry (a pop immediately followed by a push)."""
        if not self.entries:
            raise StackUnderflow("swap on an empty label stack")
        return self._on_top(new_top, self.entries[1:])

    def _on_top(
        self, entry: LabelEntry, rest: Tuple[LabelEntry, ...]
    ) -> "LabelStack":
        """``entry`` above the well-formed ``rest``: only the entering
        entry's S bit can be wrong."""
        s = 0 if rest else 1
        if entry.s != s:
            entry = entry.with_s(s)
        return self._of((entry,) + rest, self.max_depth)

    # -- wire format ------------------------------------------------------
    def encode_bytes(self) -> bytes:
        """Concatenated big-endian entries, top first (wire order)."""
        return b"".join(e.encode_bytes() for e in self.entries)

    @classmethod
    def decode_bytes(
        cls,
        data: bytes,
        max_depth: Optional[int] = DEFAULT_MAX_DEPTH,
    ) -> "LabelStack":
        """Parse a wire-format stack; consumes entries until the S bit.

        ``data`` must contain exactly the stack (S bit set on the final
        4-byte group); trailing bytes indicate a framing bug and raise.
        """
        entries = []
        offset = 0
        while offset < len(data):
            entry = LabelEntry.decode_bytes(data[offset : offset + 4])
            entries.append(entry)
            offset += 4
            if entry.is_bottom:
                break
        if offset != len(data):
            raise ValueError(
                f"{len(data) - offset} trailing bytes after bottom of stack"
            )
        if entries and not entries[-1].is_bottom:
            raise ValueError("stack data ended before a bottom-of-stack entry")
        return cls(entries, max_depth)

    @classmethod
    def wire_length(cls, data: bytes) -> int:
        """Number of bytes occupied by the stack at the head of ``data``."""
        offset = 0
        while offset + 4 <= len(data):
            if LabelEntry.decode_bytes(data[offset : offset + 4]).is_bottom:
                return offset + 4
            offset += 4
        raise ValueError("no bottom-of-stack entry found")
