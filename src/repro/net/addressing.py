"""IPv4 addresses and prefixes.

A tiny, dependency-free reimplementation of the parts of
``ipaddress`` the simulator needs, tuned for the hot path: addresses
are plain 32-bit integers wrapped in a value type, and longest-prefix
matching is a mask-and-compare.  (The stdlib module would work but
allocates noticeably more per packet; the forwarding engine calls
these on every simulated packet.)
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union


class IPv4Address:
    """A 32-bit IPv4 address value type."""

    #: ``value`` is the address as an int, a plain slot (the flow
    #: cache reads it per packet); nothing writes it after ``__init__``
    __slots__ = ("value",)

    def __init__(self, value: Union[int, str, "IPv4Address"]) -> None:
        if isinstance(value, IPv4Address):
            self.value = value.value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"{value} is not a 32-bit address")
            self.value = value
        elif isinstance(value, str):
            self.value = _parse_dotted(value)
        else:
            raise TypeError(f"cannot build an IPv4Address from {value!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, str):
            try:
                return self.value == _parse_dotted(other)
            except ValueError:  # not an address at all: simply unequal
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise ValueError("an IPv4 address is 4 bytes")
        return cls(int.from_bytes(data, "big"))


#: The flow working set the simulator is sized for: 64k distinct flow
#: shapes cover the 100k-concurrent-flow target (many flows share a
#: shape mid-path).  It bounds each node's flow cache
#: (:data:`repro.mpls.fastpath.DEFAULT_CAPACITY`) and the parsed-address
#: memo below, so a run that rotates through more destinations than a
#: smaller bound holds does not miss on every parse.
FLOW_WORKING_SET = 65_536


@lru_cache(maxsize=FLOW_WORKING_SET)
def _parse_dotted(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"{text!r} is not dotted-quad IPv4")
    value = 0
    for part in parts:
        # ASCII decimal only: str.isdigit alone admits other scripts'
        # digits and superscripts, and int() caps the digits it takes
        if not (part.isascii() and part.isdigit() and len(part) <= 3):
            raise ValueError(f"{text!r} is not dotted-quad IPv4")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value


class IPv4Prefix:
    """An IPv4 prefix ``network/length`` supporting containment tests.

    The network address is canonicalized (host bits cleared) on
    construction, so ``IPv4Prefix('10.1.2.3/16')`` equals
    ``IPv4Prefix('10.1.0.0/16')``.
    """

    __slots__ = ("network", "length", "_mask")

    def __init__(
        self,
        network: Union[str, int, IPv4Address],
        length: int = None,  # type: ignore[assignment]
    ) -> None:
        if isinstance(network, str) and "/" in network:
            if length is not None:
                raise ValueError("prefix length given twice")
            network, length_text = network.split("/", 1)
            length = int(length_text)
        if length is None:
            length = 32
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length {length} out of range 0..32")
        self.length = length
        self._mask = 0 if length == 0 else (~0 << (32 - length)) & 0xFFFFFFFF
        self.network = IPv4Address(IPv4Address(network).value & self._mask)

    def contains(self, address: Union[str, int, IPv4Address]) -> bool:
        if not isinstance(address, IPv4Address):
            address = IPv4Address(address)
        return (address.value & self._mask) == self.network.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Prefix):
            return (
                self.network == other.network and self.length == other.length
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.network.value, self.length))

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"
