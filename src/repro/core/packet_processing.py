"""Ingress and egress packet processing modules (paper Figure 6).

"The ingress packet processing module is used to deliver the label
stack and a packet identifier to the label stack modifier. ... Once the
label stack has been modified, it is delivered to the egress packet
processing module that replaces the label stack in the initial packet
and generates the new packet."

The processors speak real layer-2 frames: Ethernet II (IPv4 or MPLS
ethertypes), AAL5 cell trains, and Frame Relay frames, using the codecs
of :mod:`repro.net`.  Ingress output is a :class:`ParsedPacket` -- the
packet identifier, the decoded label stack, and the retained payload;
egress rebuilds the same frame type around the modified stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.mpls.stack import LabelStack
from repro.net.atm import ATMCell, reassemble_aal5, segment_aal5
from repro.net.ethernet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_MPLS,
    EthernetFrame,
)
from repro.net.frame_relay import FrameRelayFrame
from repro.net.packet import IPv4Packet, MPLSPacket

Frame = Union[EthernetFrame, FrameRelayFrame, Sequence[ATMCell]]


class PacketProcessingError(Exception):
    """A frame could not be parsed or rebuilt."""


@dataclass(frozen=True)
class ParsedPacket:
    """The ingress module's product.

    ``packet_identifier`` is what the paper's architecture feeds to
    information-base level 1 ("For IP packets, the packet identifier is
    typically the destination address"); ``stack`` is the label stack
    (possibly empty for a packet arriving from a layer-2 network); the
    inner packet is retained for the egress module.
    """

    packet_identifier: int
    stack: LabelStack
    inner: IPv4Packet
    l2_kind: str  # "ethernet" | "atm" | "frame-relay"
    l2_context: Tuple  # addressing needed to rebuild the frame


class IngressPacketProcessor:
    """Parses layer-2 frames into (identifier, stack, payload)."""

    def __init__(self) -> None:
        self.parsed = 0
        self.errors = 0

    def parse(self, frame: Frame) -> ParsedPacket:
        try:
            if isinstance(frame, EthernetFrame):
                return self._parse_ethernet(frame)
            if isinstance(frame, FrameRelayFrame):
                return self._parse_frame_relay(frame)
            if isinstance(frame, (list, tuple)) and frame and isinstance(
                frame[0], ATMCell
            ):
                return self._parse_atm(frame)
        except PacketProcessingError:
            self.errors += 1
            raise
        except Exception as exc:
            self.errors += 1
            raise PacketProcessingError(str(exc)) from exc
        self.errors += 1
        raise PacketProcessingError(f"unrecognized frame {type(frame).__name__}")

    def _finish(
        self, payload: bytes, labelled: bool, l2_kind: str, l2_context: Tuple
    ) -> ParsedPacket:
        if labelled:
            stack_len = LabelStack.wire_length(payload)
            stack = LabelStack.decode_bytes(payload[:stack_len])
            inner = IPv4Packet.deserialize(payload[stack_len:])
        else:
            stack = LabelStack()
            inner = IPv4Packet.deserialize(payload)
        self.parsed += 1
        return ParsedPacket(
            packet_identifier=inner.identifier(),
            stack=stack,
            inner=inner,
            l2_kind=l2_kind,
            l2_context=l2_context,
        )

    def _parse_ethernet(self, frame: EthernetFrame) -> ParsedPacket:
        if frame.ethertype not in (ETHERTYPE_IPV4, ETHERTYPE_MPLS):
            raise PacketProcessingError(
                f"unsupported ethertype {frame.ethertype:#06x}"
            )
        return self._finish(
            frame.payload,
            labelled=frame.is_mpls,
            l2_kind="ethernet",
            l2_context=(frame.src_mac, frame.dst_mac),
        )

    def _parse_atm(self, cells: Sequence[ATMCell]) -> ParsedPacket:
        pdu = reassemble_aal5(cells)
        labelled = self._looks_labelled(pdu.payload)
        return self._finish(
            pdu.payload,
            labelled=labelled,
            l2_kind="atm",
            l2_context=(pdu.vpi, pdu.vci),
        )

    def _parse_frame_relay(self, frame: FrameRelayFrame) -> ParsedPacket:
        labelled = self._looks_labelled(frame.payload)
        return self._finish(
            frame.payload,
            labelled=labelled,
            l2_kind="frame-relay",
            l2_context=(frame.dlci,),
        )

    @staticmethod
    def _looks_labelled(payload: bytes) -> bool:
        """ATM and Frame Relay lack an ethertype; distinguish labelled
        from plain IPv4 by the version nibble (an MPLS label stack's
        first nibble is the label's top bits -- for allocated labels
        below 2^16 it is 0, never 4)."""
        return bool(payload) and (payload[0] >> 4) != 4


class EgressPacketProcessor:
    """Rebuilds the output frame around a modified label stack."""

    def build(
        self,
        parsed: ParsedPacket,
        new_stack: LabelStack,
        new_ttl: Optional[int] = None,
    ) -> Frame:
        """Replace the stack in the original packet and re-frame it.

        ``new_ttl`` overwrites the inner IPv4 TTL when the stack became
        empty (the egress-LER case, where the MPLS TTL is copied back).
        """
        inner = parsed.inner
        if new_ttl is not None:
            inner = inner.with_ttl(new_ttl)
        if new_stack.is_empty:
            payload = inner.serialize()
            labelled = False
        else:
            payload = MPLSPacket(new_stack, inner).serialize()
            labelled = True
        if parsed.l2_kind == "ethernet":
            src_mac, dst_mac = parsed.l2_context
            return EthernetFrame(
                dst_mac=dst_mac,
                src_mac=src_mac,
                ethertype=ETHERTYPE_MPLS if labelled else ETHERTYPE_IPV4,
                payload=payload,
            )
        if parsed.l2_kind == "atm":
            vpi, vci = parsed.l2_context
            return segment_aal5(payload, vpi=vpi, vci=vci)
        if parsed.l2_kind == "frame-relay":
            (dlci,) = parsed.l2_context
            return FrameRelayFrame(dlci=dlci, payload=payload)
        raise PacketProcessingError(f"unknown l2 kind {parsed.l2_kind!r}")
