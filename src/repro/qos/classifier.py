"""Packet classification: deciding a packet's class of service.

QoS functions the paper lists start with "packet classification".  The
classifier maps a packet to a 3-bit CoS value -- the same 3 bits the
MPLS label entry carries -- from ordered match rules over destination
prefixes; a packet no rule matches is class 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.addressing import IPv4Prefix
from repro.net.packet import IPv4Packet


@dataclass
class Rule:
    """One ordered classification rule; without ``dst`` it matches
    every packet."""

    cos: int
    dst: Optional[IPv4Prefix] = None

    def matches(self, packet: IPv4Packet) -> bool:
        return self.dst is None or self.dst.contains(packet.dst)


class Classifier:
    """Ordered-rule classifier; an unmatched packet is class 0."""

    def __init__(self) -> None:
        self._rules: List[Rule] = []
        self.hits = 0
        self.defaults = 0

    def add_rule(self, cos: int, dst: Optional[str] = None) -> None:
        if not 0 <= cos <= 7:
            raise ValueError(f"CoS {cos} out of 3-bit range")
        self._rules.append(Rule(cos=cos, dst=IPv4Prefix(dst) if dst else None))

    def classify(self, packet: IPv4Packet) -> int:
        for rule in self._rules:
            if rule.matches(packet):
                self.hits += 1
                return rule.cos
        self.defaults += 1
        return 0
