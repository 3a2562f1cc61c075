"""Tests for IPv4 and MPLS packet types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpls.label import LabelEntry
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket


class TestIPv4Packet:
    def test_basic_fields(self):
        p = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", ttl=10, dscp=46)
        assert str(p.src) == "1.1.1.1"
        assert p.ttl == 10

    def test_length_includes_header(self):
        p = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", payload=b"x" * 100)
        assert p.length == 120

    def test_identifier_is_destination(self):
        """The paper: 'For IP packets, the packet identifier is
        typically the destination address.'"""
        p = IPv4Packet(src="1.1.1.1", dst="10.0.0.5")
        assert p.identifier() == (10 << 24) | 5

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            IPv4Packet(src="1.1.1.1", dst="2.2.2.2", ttl=256)

    def test_dscp_validation(self):
        with pytest.raises(ValueError):
            IPv4Packet(src="1.1.1.1", dst="2.2.2.2", dscp=64)

    def test_decrement(self):
        p = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", ttl=5)
        assert p.decremented().ttl == 4

    def test_decrement_zero_raises(self):
        p = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", ttl=0)
        with pytest.raises(ValueError):
            p.decremented()

    def test_uids_unique(self):
        a = IPv4Packet(src="1.1.1.1", dst="2.2.2.2")
        b = IPv4Packet(src="1.1.1.1", dst="2.2.2.2")
        assert a.uid != b.uid

    def test_serialize_roundtrip(self):
        p = IPv4Packet(
            src="10.1.2.3",
            dst="172.16.0.9",
            ttl=33,
            dscp=46,
            protocol=6,
            payload=b"hello world",
        )
        q = IPv4Packet.deserialize(p.serialize())
        assert (q.src, q.dst, q.ttl, q.dscp, q.protocol, q.payload) == (
            p.src,
            p.dst,
            p.ttl,
            p.dscp,
            p.protocol,
            p.payload,
        )

    def test_parse_then_rebuild_keeps_every_header_byte(self):
        # the identification field (bytes 4-5) too: a hop that parses
        # and rebuilds a datagram must not rewrite it
        p = IPv4Packet(src="10.1.2.3", dst="172.16.0.9", ttl=33, dscp=46,
                       protocol=6, payload=b"hello world", uid=0x1234ABCD)
        wire = p.serialize()
        assert wire[4:6] == b"\xab\xcd"
        assert IPv4Packet.deserialize(wire).serialize() == wire

    @pytest.mark.parametrize(
        "uid,field", [(0, 0), (1, 1), (0xFFFF, 0xFFFF), (0x10000, 0)]
    )
    def test_the_identification_field_is_the_low_16_bits_of_uid(
        self, uid, field
    ):
        wire = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", uid=uid).serialize()
        assert int.from_bytes(wire[4:6], "big") == field
        parsed = IPv4Packet.deserialize(wire)
        assert parsed.uid == field
        assert parsed.serialize() == wire

    def test_a_header_only_datagram_is_accepted(self):
        wire = IPv4Packet(src="1.1.1.1", dst="2.2.2.2").serialize()
        assert int.from_bytes(wire[2:4], "big") == 20
        assert IPv4Packet.deserialize(wire).payload == b""

    def test_bytes_past_the_total_length_are_not_payload(self):
        # 802.3 padding rides behind a short datagram; the total-length
        # field delimits it, and the rebuild drops it
        wire = IPv4Packet(src="1.1.1.1", dst="2.2.2.2",
                          payload=b"tiny").serialize()
        parsed = IPv4Packet.deserialize(wire + bytes(22))
        assert parsed.payload == b"tiny"
        assert parsed.serialize() == wire

    @pytest.mark.parametrize("total", [0, 10, 19])
    def test_a_total_length_below_the_header_is_refused(self, total):
        wire = bytearray(IPv4Packet(src="1.1.1.1", dst="2.2.2.2").serialize())
        wire[2:4] = total.to_bytes(2, "big")
        with pytest.raises(ValueError, match=(
            f"^IPv4 total length {total} is shorter than the 20-byte header$"
        )):
            IPv4Packet.deserialize(bytes(wire))

    def test_deserialize_short(self):
        with pytest.raises(ValueError):
            IPv4Packet.deserialize(b"\x45" + b"\x00" * 10)

    def test_deserialize_not_v4(self):
        with pytest.raises(ValueError):
            IPv4Packet.deserialize(b"\x65" + b"\x00" * 19)

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=63),
        st.binary(max_size=64),
    )
    def test_roundtrip_property(self, src, dst, ttl, dscp, payload):
        p = IPv4Packet(src=src, dst=dst, ttl=ttl, dscp=dscp, payload=payload)
        q = IPv4Packet.deserialize(p.serialize())
        assert (q.src, q.dst, q.ttl, q.dscp, q.payload) == (
            p.src,
            p.dst,
            p.ttl,
            p.dscp,
            p.payload,
        )


class TestMPLSPacket:
    def _packet(self):
        stack = LabelStack(
            [LabelEntry(label=100, ttl=9), LabelEntry(label=200, ttl=8)]
        )
        inner = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", payload=b"data")
        return MPLSPacket(stack, inner)

    def test_length(self):
        p = self._packet()
        assert p.length == 8 + p.inner.length

    def test_serialize_roundtrip(self):
        p = self._packet()
        data = p.serialize()
        length = LabelStack.wire_length(data)
        assert LabelStack.decode_bytes(data[:length]) == p.stack
        inner = IPv4Packet.deserialize(data[length:])
        assert inner.dst == p.inner.dst
        assert inner.payload == p.inner.payload

    def test_with_stack(self):
        p = self._packet()
        new_stack = LabelStack([LabelEntry(label=300)])
        q = p.with_stack(new_stack)
        assert q.stack.top.label == 300
        assert q.inner is p.inner
