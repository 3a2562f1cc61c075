"""Next Hop Label Forwarding Entries (RFC 3031 section 3.10).

An NHLFE says what to do with a packet once its label (or FEC) has been
resolved: which operation to apply to the stack, the outgoing label for
push/swap, the next hop, and the outgoing interface.  The operation
alphabet is shared with the hardware information base
(:class:`~repro.mpls.label.LabelOp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mpls.errors import InvalidLabelError
from repro.mpls.label import IMPLICIT_NULL, LabelOp, require_real_label


@dataclass(frozen=True)
class NHLFE:
    """One forwarding action.

    Parameters
    ----------
    op:
        Stack operation.  ``PUSH`` and ``SWAP`` require ``out_label``;
        ``POP`` and ``NOOP`` forbid it.  An ``out_label`` of
        ``IMPLICIT_NULL`` is penultimate-hop popping (RFC 3032) and is
        normalized at construction: a swap to it becomes a POP, and a
        push of it becomes a NOOP (no label, no CoS) -- so a control
        plane derives every entry of a binding the same way, PHP or not.
    out_label:
        Label to push or swap in.
    next_hop:
        Name of the neighbouring node the packet goes to; ``None`` for
        local delivery (egress to the layer-2 side).
    out_interface:
        Interface identifier on this node.
    cos:
        Optional CoS override applied to a pushed label entry.
    """

    op: LabelOp
    out_label: Optional[int] = None
    next_hop: Optional[str] = None
    out_interface: Optional[str] = None
    cos: Optional[int] = None

    def __post_init__(self) -> None:
        op = self.op
        label = self.out_label
        if op in (LabelOp.PUSH, LabelOp.SWAP):
            if label is None:
                raise InvalidLabelError(f"{op.name} requires an out_label")
            if label == IMPLICIT_NULL:
                # Penultimate-hop popping: the downstream egress
                # advertised implicit null, meaning "don't send me a
                # label at all" -- a transit swap pops, an ingress
                # next to the egress pushes nothing.
                object.__setattr__(self, "out_label", None)
                if op is LabelOp.SWAP:
                    object.__setattr__(self, "op", LabelOp.POP)
                else:
                    object.__setattr__(self, "op", LabelOp.NOOP)
                    object.__setattr__(self, "cos", None)
            else:
                require_real_label(label)
        elif label is not None:
            raise InvalidLabelError(f"{op.name} must not carry an out_label")
        if self.cos is not None and not 0 <= self.cos <= 7:
            raise InvalidLabelError(f"CoS {self.cos} out of 3-bit range")

    @property
    def is_php(self) -> bool:
        """True if this entry performs penultimate-hop popping
        (constructed as a swap to implicit null)."""
        return self.op is LabelOp.POP and self.next_hop is not None

    def __str__(self) -> str:
        parts = [self.op.name]
        if self.out_label is not None:
            parts.append(f"label={self.out_label}")
        if self.next_hop is not None:
            parts.append(f"nh={self.next_hop}")
        if self.out_interface is not None:
            parts.append(f"if={self.out_interface}")
        return f"NHLFE({' '.join(parts)})"
