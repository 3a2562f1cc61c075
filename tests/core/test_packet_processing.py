"""Tests for the ingress/egress packet processing modules."""

import pytest

from repro.core.packet_processing import (
    EgressPacketProcessor,
    IngressPacketProcessor,
    PacketProcessingError,
)
from repro.mpls.label import LabelEntry
from repro.mpls.stack import LabelStack
from repro.net.atm import segment_aal5
from repro.net.ethernet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_MPLS,
    EthernetFrame,
)
from repro.net.frame_relay import FrameRelayFrame
from repro.net.packet import IPv4Packet, MPLSPacket


def ip_packet(dst="10.2.0.9", ttl=64):
    return IPv4Packet(src="10.1.0.5", dst=dst, ttl=ttl, payload=b"data")


def mpls_payload(label=777, ttl=63):
    stack = LabelStack([LabelEntry(label=label, ttl=ttl)])
    return MPLSPacket(stack, ip_packet()).serialize()


def eth(payload, labelled):
    return EthernetFrame(
        dst_mac="aa:aa:aa:aa:aa:aa",
        src_mac="bb:bb:bb:bb:bb:bb",
        ethertype=ETHERTYPE_MPLS if labelled else ETHERTYPE_IPV4,
        payload=payload,
    )


class TestIngress:
    def test_plain_ipv4_ethernet(self):
        ingress = IngressPacketProcessor()
        parsed = ingress.parse(eth(ip_packet().serialize(), labelled=False))
        assert parsed.stack.is_empty
        assert parsed.packet_identifier == ip_packet().identifier()
        assert parsed.l2_kind == "ethernet"

    def test_labelled_ethernet(self):
        ingress = IngressPacketProcessor()
        parsed = ingress.parse(eth(mpls_payload(), labelled=True))
        assert parsed.stack.depth == 1
        assert parsed.stack.top.label == 777

    def test_unsupported_ethertype(self):
        ingress = IngressPacketProcessor()
        frame = EthernetFrame(
            dst_mac="aa:aa:aa:aa:aa:aa",
            src_mac="bb:bb:bb:bb:bb:bb",
            ethertype=0x0806,  # ARP
            payload=b"x" * 46,
        )
        with pytest.raises(PacketProcessingError):
            ingress.parse(frame)
        assert ingress.errors == 1

    def test_atm_cells(self):
        ingress = IngressPacketProcessor()
        cells = segment_aal5(mpls_payload(), vpi=1, vci=42)
        parsed = ingress.parse(cells)
        assert parsed.l2_kind == "atm"
        assert parsed.l2_context == (1, 42)
        assert parsed.stack.top.label == 777

    def test_atm_plain_ip(self):
        ingress = IngressPacketProcessor()
        cells = segment_aal5(ip_packet().serialize(), vpi=0, vci=33)
        parsed = ingress.parse(cells)
        assert parsed.stack.is_empty

    def test_frame_relay(self):
        ingress = IngressPacketProcessor()
        frame = FrameRelayFrame(dlci=123, payload=mpls_payload())
        parsed = ingress.parse(frame)
        assert parsed.l2_kind == "frame-relay"
        assert parsed.l2_context == (123,)
        assert parsed.stack.top.label == 777

    def test_garbage_frame(self):
        ingress = IngressPacketProcessor()
        with pytest.raises(PacketProcessingError):
            ingress.parse("not a frame")

    def test_corrupt_payload(self):
        ingress = IngressPacketProcessor()
        with pytest.raises(PacketProcessingError):
            ingress.parse(eth(b"\xff" * 50, labelled=True))
        assert ingress.errors == 1

    def test_parsed_counter(self):
        ingress = IngressPacketProcessor()
        ingress.parse(eth(ip_packet().serialize(), labelled=False))
        assert ingress.parsed == 1


class TestEgress:
    def _roundtrip(self, frame, new_stack, new_ttl=None):
        ingress = IngressPacketProcessor()
        egress = EgressPacketProcessor()
        parsed = ingress.parse(frame)
        return egress.build(parsed, new_stack, new_ttl=new_ttl)

    def test_ethernet_label_swap(self):
        new_stack = LabelStack([LabelEntry(label=888, ttl=62)])
        out = self._roundtrip(eth(mpls_payload(), labelled=True), new_stack)
        assert out.is_mpls
        reparsed = IngressPacketProcessor().parse(out)
        assert reparsed.stack.top.label == 888

    def test_ethernet_pop_to_ip(self):
        out = self._roundtrip(
            eth(mpls_payload(ttl=40), labelled=True), LabelStack(), new_ttl=39
        )
        assert out.ethertype == ETHERTYPE_IPV4
        inner = IPv4Packet.deserialize(out.payload)
        assert inner.ttl == 39

    def test_ethernet_push_onto_ip(self):
        new_stack = LabelStack([LabelEntry(label=777, ttl=63)])
        out = self._roundtrip(
            eth(ip_packet().serialize(), labelled=False), new_stack
        )
        assert out.is_mpls

    def test_macs_preserved(self):
        new_stack = LabelStack([LabelEntry(label=888, ttl=62)])
        out = self._roundtrip(eth(mpls_payload(), labelled=True), new_stack)
        assert out.src_mac == bytes.fromhex("bbbbbbbbbbbb")
        assert out.dst_mac == bytes.fromhex("aaaaaaaaaaaa")

    def test_atm_roundtrip(self):
        cells = segment_aal5(mpls_payload(), vpi=3, vci=77)
        new_stack = LabelStack([LabelEntry(label=888, ttl=62)])
        out = self._roundtrip(cells, new_stack)
        assert isinstance(out, list)
        assert out[0].vpi == 3 and out[0].vci == 77
        reparsed = IngressPacketProcessor().parse(out)
        assert reparsed.stack.top.label == 888

    def test_frame_relay_roundtrip(self):
        frame = FrameRelayFrame(dlci=55, payload=mpls_payload())
        new_stack = LabelStack([LabelEntry(label=888, ttl=62)])
        out = self._roundtrip(frame, new_stack)
        assert out.dlci == 55
        reparsed = IngressPacketProcessor().parse(out)
        assert reparsed.stack.top.label == 888

    def test_payload_survives_modification(self):
        new_stack = LabelStack([LabelEntry(label=888, ttl=62)])
        out = self._roundtrip(eth(mpls_payload(), labelled=True), new_stack)
        reparsed = IngressPacketProcessor().parse(out)
        assert reparsed.inner.payload == b"data"
        assert reparsed.inner.dst == ip_packet().dst


def _frame_of(l2_kind, payload, labelled):
    if l2_kind == "ethernet":
        return eth(payload, labelled)
    if l2_kind == "atm":
        return segment_aal5(payload, vpi=3, vci=77)
    return FrameRelayFrame(dlci=55, payload=payload)


class TestIdentification:
    """The egress module rebuilds the inner datagram from what ingress
    parsed: only the TTL (and so the checksum) may differ, never the
    identification field or any other header byte."""

    @pytest.mark.parametrize("l2_kind", ["ethernet", "atm", "frame-relay"])
    @pytest.mark.parametrize(
        "labelled,new_stack,new_ttl",
        [
            (False, [777], None),  # push onto IP
            (True, [888], None),  # swap
            (True, [], 62),  # pop to IP
        ],
        ids=["push", "swap", "pop"],
    )
    def test_a_hop_keeps_the_identification_field(
        self, l2_kind, labelled, new_stack, new_ttl
    ):
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9", ttl=64,
                            payload=b"data", uid=0x2468ACE1)
        payload = (
            MPLSPacket(LabelStack([LabelEntry(label=777, ttl=63)]),
                       packet).serialize()
            if labelled else packet.serialize()
        )
        stack = LabelStack([LabelEntry(label=label, ttl=62)
                            for label in new_stack])
        parsed = IngressPacketProcessor().parse(
            _frame_of(l2_kind, payload, labelled)
        )
        out = EgressPacketProcessor().build(parsed, stack, new_ttl=new_ttl)
        inner = IngressPacketProcessor().parse(out).inner.serialize()
        wire = packet.serialize()
        assert inner[4:6] == wire[4:6] == b"\xac\xe1"
        assert inner[:8] == wire[:8]
        assert inner[9:10] + inner[12:] == wire[9:10] + wire[12:]
