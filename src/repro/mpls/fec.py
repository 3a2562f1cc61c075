"""Forwarding Equivalence Classes (RFC 3031 section 2.1).

A FEC groups packets that are forwarded the same way -- over the same
LSP with the same treatment.  The ingress LER classifies each unlabelled
packet into a FEC and maps the FEC to a label via the FTN table.

Two classifiers are provided:

* :class:`PrefixFEC` -- destination address falls in an IPv4 prefix
  (the common IGP-driven case),
* :class:`CoSFEC` -- a wrapper adding a DSCP requirement to another
  FEC, which is how the paper's QoS motivation (classifying VoIP onto a
  priority LSP) is expressed.

FECs are ordered by :attr:`FEC.specificity`; the FTN resolves overlaps
longest-match-first, as an IP RIB would.
"""

from __future__ import annotations

from typing import Union

from repro.net.addressing import IPv4Prefix
from repro.net.packet import IPv4Packet


class FEC:
    """Base class: a predicate over IPv4 packets with a specificity.
    A subclass defines ``matches(packet)``."""

    #: Higher wins when several FECs match one packet.
    specificity: int = 0


class PrefixFEC(FEC):
    """Packets whose destination lies in ``prefix``."""

    __slots__ = ("prefix", "specificity")

    def __init__(self, prefix: Union[str, IPv4Prefix]) -> None:
        self.prefix = (
            prefix if isinstance(prefix, IPv4Prefix) else IPv4Prefix(prefix)
        )
        self.specificity = self.prefix.length

    def matches(self, packet: IPv4Packet) -> bool:
        return self.prefix.contains(packet.dst)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrefixFEC) and self.prefix == other.prefix

    def __hash__(self) -> int:
        return hash(("prefix", self.prefix))

    def __repr__(self) -> str:
        return f"PrefixFEC('{self.prefix}')"


class CoSFEC(FEC):
    """An inner FEC further restricted to one DSCP.

    Used to steer marked traffic (e.g. EF-marked VoIP) onto a dedicated
    LSP while best-effort traffic to the same destinations takes
    another.  A CoS-qualified FEC is always more specific than its
    unqualified inner FEC.
    """

    __slots__ = ("inner", "dscp", "specificity")

    def __init__(self, inner: FEC, dscp: int) -> None:
        if not 0 <= dscp <= 63:
            raise ValueError(f"bad DSCP {dscp} (must be within 0..63)")
        self.inner = inner
        self.dscp = dscp
        self.specificity = inner.specificity + 64

    def matches(self, packet: IPv4Packet) -> bool:
        return packet.dscp == self.dscp and self.inner.matches(packet)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CoSFEC)
            and self.inner == other.inner
            and self.dscp == other.dscp
        )

    def __hash__(self) -> int:
        return hash(("cos", self.inner, self.dscp))

    def __repr__(self) -> str:
        return f"CoSFEC({self.inner!r}, {self.dscp})"
