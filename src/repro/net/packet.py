"""Packets: IPv4 datagrams and MPLS-labelled packets.

The simulator moves two packet shapes around:

* :class:`IPv4Packet` -- the layer-3 payload the layer-2 networks
  generate and receive (paper Figure 2: "LAYER 2 NETWORK (generates L2
  packet)").  Only the fields the MPLS data plane consults are modelled
  (addresses, TTL, DSCP, protocol, length, payload); everything is
  still serializable so the framing codecs have real bytes to carry.
* :class:`MPLSPacket` -- an IPv4 packet with a label stack attached,
  the unit the LSRs switch (paper Figure 4).

Both are immutable value objects; data-plane transformations produce
new packets, which keeps multi-node simulations free of aliasing bugs.

A derived packet (``with_ttl``, ``decremented``, ``with_stack``) is built
slot by slot, not through ``__init__``: it re-checks the field that
changed, with the constructor's exception and message, and copies the rest.
A traffic source builds its packets the same way, through
:func:`_build_ipv4` -- its addresses are already :class:`IPv4Address` and
its payload one shared ``bytes`` per size, so only the TTL and DSCP are
checked per packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.net.addressing import IPv4Address

if TYPE_CHECKING:  # deferred to break the net <-> mpls import cycle
    from repro.mpls.stack import LabelStack

_packet_ids = itertools.count(1)
_new = object.__new__


@dataclass(frozen=True, slots=True)
class IPv4Packet:
    """A simplified IPv4 datagram.

    ``packet_id`` is the arbitrary per-packet identifier the paper's
    architecture feeds into the information base at level 1; for IP
    packets the paper uses the destination address, which is what
    :meth:`identifier` returns.
    """

    src: IPv4Address
    dst: IPv4Address
    ttl: int = 64
    dscp: int = 0
    protocol: int = 17  # UDP by default; the sources mostly model UDP flows
    payload: bytes = b""
    flow_id: int = 0
    seq: int = 0
    created_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_packet_ids))

    #: class marker: a packet is not a flow aggregate (the link and
    #: network layers read this instead of importing the aggregate type)
    is_aggregate = False

    def __post_init__(self) -> None:
        if not isinstance(self.src, IPv4Address):
            object.__setattr__(self, "src", IPv4Address(self.src))
        if not isinstance(self.dst, IPv4Address):
            object.__setattr__(self, "dst", IPv4Address(self.dst))
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"IPv4 TTL {self.ttl} out of range")
        if not 0 <= self.dscp <= 63:
            raise ValueError(f"DSCP {self.dscp} out of range")

    @property
    def length(self) -> int:
        """Total datagram length: 20-byte header + payload."""
        return 20 + len(self.payload)

    def identifier(self) -> int:
        """The 32-bit packet identifier used at information-base level 1
        (the destination address, per the paper)."""
        return self.dst.value

    def decremented(self) -> "IPv4Packet":
        if self.ttl == 0:
            raise ValueError("cannot decrement a zero IPv4 TTL")
        return self.with_ttl(self.ttl - 1)

    def with_ttl(self, ttl: int) -> "IPv4Packet":
        """A copy with the TTL rewritten (identity -- uid, flow, seq --
        preserved; used when the MPLS TTL is copied back at an egress)."""
        return _build_ipv4(
            self.src, self.dst, ttl, self.dscp, self.protocol, self.payload,
            self.flow_id, self.seq, self.created_at, self.uid,
        )

    def serialize(self) -> bytes:
        """A compact but faithful-enough header encoding + payload.

        Version/IHL and checksum are synthesized; the fields the data
        plane reads round-trip exactly.  The identification field (bytes
        4-5) is the low 16 bits of ``uid``.
        """
        header = bytearray(20)
        header[0] = 0x45  # version 4, IHL 5
        header[1] = self.dscp << 2
        total = self.length
        header[2:4] = total.to_bytes(2, "big")
        header[4:6] = (self.uid & 0xFFFF).to_bytes(2, "big")
        header[8] = self.ttl
        header[9] = self.protocol
        header[12:16] = self.src.to_bytes()
        header[16:20] = self.dst.to_bytes()
        return bytes(header) + self.payload

    @classmethod
    def deserialize(cls, data: bytes) -> "IPv4Packet":
        """Parse a datagram; its ``uid`` is the identification field, so
        :meth:`serialize` rebuilds the same header (a router does not
        rewrite the field fragment reassembly keys on)."""
        if len(data) < 20:
            raise ValueError("IPv4 packet shorter than a header")
        if data[0] >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        total = int.from_bytes(data[2:4], "big")
        if total < 20:
            raise ValueError(
                f"IPv4 total length {total} is shorter than the 20-byte header"
            )
        if total > len(data):
            raise ValueError("truncated IPv4 packet")
        return cls(
            src=IPv4Address.from_bytes(data[12:16]),
            dst=IPv4Address.from_bytes(data[16:20]),
            ttl=data[8],
            dscp=data[1] >> 2,
            protocol=data[9],
            payload=data[20:total],
            uid=int.from_bytes(data[4:6], "big"),
        )


# the slot descriptors' setters: how a frozen instance gets its fields
# without ``__init__`` (one per field, in declaration order)
(
    _set_src, _set_dst, _set_ttl, _set_dscp, _set_protocol, _set_payload,
    _set_flow_id, _set_seq, _set_created_at, _set_uid,
) = (getattr(IPv4Packet, name).__set__ for name in IPv4Packet.__slots__)


def _build_ipv4(
    src: IPv4Address,
    dst: IPv4Address,
    ttl: int,
    dscp: int,
    protocol: int,
    payload: bytes,
    flow_id: int,
    seq: int,
    created_at: float,
    uid: Optional[int] = None,
) -> IPv4Packet:
    """An :class:`IPv4Packet` set slot by slot from fields the caller
    has already checked: ``src`` / ``dst`` are addresses and ``payload``
    is stored as given (a source shares one object among its packets).
    Without ``uid`` it draws the next one first, as ``__init__`` does;
    the TTL and DSCP are range-checked with ``__init__``'s messages."""
    if uid is None:
        uid = next(_packet_ids)
    if not 0 <= ttl <= 255:
        raise ValueError(f"IPv4 TTL {ttl} out of range")
    if not 0 <= dscp <= 63:
        raise ValueError(f"DSCP {dscp} out of range")
    packet = _new(IPv4Packet)
    _set_src(packet, src)
    _set_dst(packet, dst)
    _set_ttl(packet, ttl)
    _set_dscp(packet, dscp)
    _set_protocol(packet, protocol)
    _set_payload(packet, payload)
    _set_flow_id(packet, flow_id)
    _set_seq(packet, seq)
    _set_created_at(packet, created_at)
    _set_uid(packet, uid)
    return packet


@dataclass(frozen=True, slots=True)
class MPLSPacket:
    """An IPv4 packet carrying an MPLS label stack."""

    stack: LabelStack
    inner: IPv4Packet

    is_aggregate = False

    @property
    def length(self) -> int:
        return 4 * self.stack.depth + self.inner.length

    def with_stack(self, stack: LabelStack) -> "MPLSPacket":
        copy = _new(MPLSPacket)
        _set_stack(copy, stack)
        _set_inner(copy, self.inner)
        return copy

    def serialize(self) -> bytes:
        return self.stack.encode_bytes() + self.inner.serialize()

    def __repr__(self) -> str:
        return f"<MPLSPacket {self.stack!r} {self.inner.src}->{self.inner.dst}>"


_set_stack, _set_inner = (
    getattr(MPLSPacket, name).__set__ for name in MPLSPacket.__slots__
)
