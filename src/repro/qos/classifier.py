"""Packet classification: deciding a packet's class of service.

QoS functions the paper lists start with "packet classification".  The
classifier maps a packet to a 3-bit CoS value -- the same 3 bits the
MPLS label entry carries -- from ordered match rules over the fields
the data plane can see (addresses, DSCP, protocol).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.mpls.forwarding import dscp_to_cos
from repro.net.addressing import IPv4Prefix
from repro.net.packet import IPv4Packet, MPLSPacket


def cos_of_packet(packet: Union[IPv4Packet, MPLSPacket]) -> int:
    """The CoS a queueing element should use for ``packet``.

    Labelled packets carry it in the top stack entry; unlabelled
    packets derive it from the DSCP class-selector bits.
    """
    if isinstance(packet, MPLSPacket):
        if packet.stack.is_empty:
            return dscp_to_cos(packet.inner.dscp)
        return packet.stack.top.cos
    return dscp_to_cos(packet.dscp)


@dataclass
class Rule:
    """One ordered classification rule."""

    cos: int
    src: Optional[IPv4Prefix] = None
    dst: Optional[IPv4Prefix] = None
    dscp_min: int = 0
    dscp_max: int = 63
    protocol: Optional[int] = None

    def matches(self, packet: IPv4Packet) -> bool:
        if self.src is not None and not self.src.contains(packet.src):
            return False
        if self.dst is not None and not self.dst.contains(packet.dst):
            return False
        if not self.dscp_min <= packet.dscp <= self.dscp_max:
            return False
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        return True


class Classifier:
    """Ordered-rule classifier with a default class."""

    def __init__(self, default_cos: int = 0) -> None:
        if not 0 <= default_cos <= 7:
            raise ValueError(f"CoS {default_cos} out of 3-bit range")
        self.default_cos = default_cos
        self._rules: List[Rule] = []
        self.hits = 0
        self.defaults = 0

    def add_rule(
        self,
        cos: int,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        dscp_min: int = 0,
        dscp_max: int = 63,
        protocol: Optional[int] = None,
    ) -> None:
        if not 0 <= cos <= 7:
            raise ValueError(f"CoS {cos} out of 3-bit range")
        self._rules.append(
            Rule(
                cos=cos,
                src=IPv4Prefix(src) if src else None,
                dst=IPv4Prefix(dst) if dst else None,
                dscp_min=dscp_min,
                dscp_max=dscp_max,
                protocol=protocol,
            )
        )

    def classify(self, packet: IPv4Packet) -> int:
        for rule in self._rules:
            if rule.matches(packet):
                self.hits += 1
                return rule.cos
        self.defaults += 1
        return self.default_cos
