"""Ethernet II framing with MPLS encapsulation (RFC 3032 section 5).

The paper's Figure 1 shows Ethernet as one of the layer-2 networks an
LER borders.  MPLS-over-Ethernet uses dedicated ethertypes: 0x8847 for
unicast labelled packets, 0x0800 for plain IPv4.  The codec here is a
real byte-level encoder/decoder (including the FCS placeholder) so the
ingress/egress packet-processing modules operate on genuine frames.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Union

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_MPLS = 0x8847
ETHERTYPE_MPLS_MCAST = 0x8848

#: Minimum payload length; shorter payloads are zero-padded per 802.3.
MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500


class FramingError(ValueError):
    """A frame failed to parse or validate."""


def _mac_bytes(mac: Union[str, bytes]) -> bytes:
    if isinstance(mac, bytes):
        if len(mac) != 6:
            raise FramingError(f"MAC must be 6 bytes, got {len(mac)}")
        return mac
    parts = mac.split(":")
    if len(parts) != 6:
        raise FramingError(f"{mac!r} is not a MAC address")
    try:
        return bytes(int(p, 16) for p in parts)
    except ValueError as exc:
        raise FramingError(f"{mac!r} is not a MAC address") from exc


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame.

    ``payload`` carries either a serialized IPv4 packet
    (``ethertype == ETHERTYPE_IPV4``) or an MPLS label stack followed by
    the IPv4 packet (``ethertype == ETHERTYPE_MPLS``).
    """

    dst_mac: bytes
    src_mac: bytes
    ethertype: int
    payload: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "dst_mac", _mac_bytes(self.dst_mac))
        object.__setattr__(self, "src_mac", _mac_bytes(self.src_mac))
        if not 0 <= self.ethertype <= 0xFFFF:
            raise FramingError(f"ethertype {self.ethertype:#x} out of range")
        if len(self.payload) > MAX_PAYLOAD:
            raise FramingError(
                f"payload of {len(self.payload)} bytes exceeds the "
                f"{MAX_PAYLOAD}-byte Ethernet MTU"
            )

    @property
    def is_mpls(self) -> bool:
        return self.ethertype in (ETHERTYPE_MPLS, ETHERTYPE_MPLS_MCAST)

    def serialize(self) -> bytes:
        """Wire bytes: header + padded payload + CRC32 FCS."""
        payload = self.payload
        if len(payload) < MIN_PAYLOAD:
            payload = payload + b"\x00" * (MIN_PAYLOAD - len(payload))
        body = (
            self.dst_mac
            + self.src_mac
            + self.ethertype.to_bytes(2, "big")
            + payload
        )
        fcs = zlib.crc32(body).to_bytes(4, "little")
        return body + fcs

    @classmethod
    def deserialize(cls, data: bytes) -> "EthernetFrame":
        """Parse wire bytes, verifying the FCS.  802.3 padding stays in
        the payload: the inner packet's own length field delimits it."""
        if len(data) < 14 + MIN_PAYLOAD + 4:
            raise FramingError(f"frame of {len(data)} bytes is too short")
        body, fcs = data[:-4], data[-4:]
        if zlib.crc32(body).to_bytes(4, "little") != fcs:
            raise FramingError("FCS mismatch: corrupt frame")
        payload = body[14:]
        return cls(
            dst_mac=body[0:6],
            src_mac=body[6:12],
            ethertype=int.from_bytes(body[12:14], "big"),
            payload=payload,
        )
