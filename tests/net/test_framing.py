"""Tests for the layer-2 codecs: Ethernet, ATM/AAL5, Frame Relay."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.atm import (
    ATMError,
    ATMCell,
    CELL_PAYLOAD,
    CELL_SIZE,
    reassemble_aal5,
    segment_aal5,
)
from repro.net.ethernet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_MPLS,
    EthernetFrame,
    FramingError,
)
from repro.net.frame_relay import FrameRelayError, FrameRelayFrame
from repro.net.packet import IPv4Packet


class TestEthernet:
    def _frame(self, payload=b"p" * 50, ethertype=ETHERTYPE_MPLS):
        return EthernetFrame(
            dst_mac="aa:bb:cc:dd:ee:ff",
            src_mac="11:22:33:44:55:66",
            ethertype=ethertype,
            payload=payload,
        )

    def test_mac_parsing(self):
        f = self._frame()
        assert f.dst_mac == bytes.fromhex("aabbccddeeff")
        assert f.src_mac == bytes.fromhex("112233445566")

    def test_bad_mac(self):
        with pytest.raises(FramingError):
            EthernetFrame(
                dst_mac="aa:bb",
                src_mac="11:22:33:44:55:66",
                ethertype=ETHERTYPE_IPV4,
                payload=b"x" * 50,
            )

    def test_is_mpls(self):
        assert self._frame().is_mpls
        assert not self._frame(ethertype=ETHERTYPE_IPV4).is_mpls

    def test_serialize_roundtrip(self):
        f = self._frame()
        g = EthernetFrame.deserialize(f.serialize())
        assert g == f

    def test_short_payload_padded(self):
        f = self._frame(payload=b"tiny")
        wire = f.serialize()
        # 14 header + 46 min payload + 4 FCS
        assert len(wire) == 64
        g = EthernetFrame.deserialize(wire)
        assert g.payload == b"tiny" + bytes(42)

    def test_mtu_enforced(self):
        with pytest.raises(FramingError):
            self._frame(payload=b"x" * 1501)

    def test_fcs_detects_corruption(self):
        wire = bytearray(self._frame().serialize())
        wire[20] ^= 0xFF
        with pytest.raises(FramingError):
            EthernetFrame.deserialize(bytes(wire))

    def test_truncated_frame(self):
        with pytest.raises(FramingError):
            EthernetFrame.deserialize(b"\x00" * 20)

    @pytest.mark.parametrize("size", [0, 1, 25, 26, 27, 1480])
    def test_the_inner_length_field_delimits_the_padding(self, size):
        # a 20-byte header plus 26 bytes fills the 46-byte minimum;
        # anything shorter arrives padded, and IPv4's total length
        # recovers the datagram exactly
        packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9",
                            payload=b"\x5a" * size, uid=77)
        frame = self._frame(payload=packet.serialize(),
                            ethertype=ETHERTYPE_IPV4)
        g = EthernetFrame.deserialize(frame.serialize())
        assert len(g.payload) == max(46, 20 + size)
        parsed = IPv4Packet.deserialize(g.payload)
        assert parsed.payload == packet.payload
        assert parsed.serialize() == packet.serialize()

    @given(st.binary(min_size=1, max_size=1500))
    def test_roundtrip_property(self, payload):
        f = EthernetFrame(
            dst_mac=b"\x01\x02\x03\x04\x05\x06",
            src_mac=b"\x0a\x0b\x0c\x0d\x0e\x0f",
            ethertype=ETHERTYPE_MPLS,
            payload=payload,
        )
        g = EthernetFrame.deserialize(f.serialize())
        assert g.payload == payload + bytes(max(0, 46 - len(payload)))


class TestATM:
    def test_cell_size(self):
        cells = segment_aal5(b"x" * 100, vpi=1, vci=42)
        for cell in cells:
            assert len(cell.serialize()) == CELL_SIZE

    def test_segmentation_counts(self):
        # 100 bytes + 8 trailer = 108 -> 3 cells of 48
        cells = segment_aal5(b"x" * 100, vpi=1, vci=42)
        assert len(cells) == 3
        assert [c.pti_last for c in cells] == [False, False, True]

    def test_exact_fit(self):
        # 40 payload + 8 trailer = exactly one cell
        cells = segment_aal5(b"x" * 40, vpi=0, vci=1)
        assert len(cells) == 1

    def test_reassembly_roundtrip(self):
        payload = bytes(range(256)) * 3
        cells = segment_aal5(payload, vpi=7, vci=77)
        frame = reassemble_aal5(cells)
        assert frame.payload == payload
        assert (frame.vpi, frame.vci) == (7, 77)

    def test_cell_wire_roundtrip(self):
        cell = ATMCell(vpi=5, vci=1234, pti_last=True, payload=b"z" * 48)
        assert ATMCell.deserialize(cell.serialize()) == cell

    @pytest.mark.parametrize("vci", [0, 0x000F, 0x0FF0, 0xF000, 0xFFFF])
    @pytest.mark.parametrize("vpi", [0, 0x0F, 0xF0, 0xFF])
    def test_header_fields_at_every_nibble_edge(self, vpi, vci):
        """VPI and VCI straddle byte boundaries in the 4-byte header:
        each lands in its UNI bits and comes back whole."""
        for last in (False, True):
            cell = ATMCell(vpi=vpi, vci=vci, pti_last=last, payload=b"q" * 48)
            wire = cell.serialize()
            assert len(wire) == CELL_SIZE
            header = int.from_bytes(wire[:4], "big")
            assert header >> 28 == 0  # GFC
            assert (header >> 20) & 0xFF == vpi
            assert (header >> 4) & 0xFFFF == vci
            assert ATMCell.deserialize(wire) == cell

    @pytest.mark.parametrize(
        "vpi,vci", [(-1, 0), (256, 0), (0, -1), (0, 1 << 16)]
    )
    def test_header_field_one_past_its_range(self, vpi, vci):
        with pytest.raises(ATMError, match="out of (8|16)-bit range"):
            ATMCell(vpi=vpi, vci=vci, pti_last=False, payload=b"x" * 48)

    def test_lost_cell_detected(self):
        cells = segment_aal5(b"x" * 200, vpi=1, vci=42)
        with pytest.raises(ATMError):
            reassemble_aal5(cells[:1] + cells[2:])  # drop a middle cell

    def test_corrupt_cell_detected(self):
        cells = segment_aal5(b"x" * 100, vpi=1, vci=42)
        bad = ATMCell(
            vpi=1, vci=42, pti_last=False, payload=b"\xff" * CELL_PAYLOAD
        )
        with pytest.raises(ATMError):
            reassemble_aal5([bad] + cells[1:])

    def test_interleaved_circuits_rejected(self):
        a = segment_aal5(b"x" * 40, vpi=1, vci=1)
        b = segment_aal5(b"y" * 40, vpi=1, vci=2)
        with pytest.raises(ATMError):
            reassemble_aal5([a[0], b[0]])

    def test_missing_last_flag(self):
        cells = segment_aal5(b"x" * 100, vpi=1, vci=42)
        with pytest.raises(ATMError):
            reassemble_aal5(cells[:-1])

    def test_early_last_flag(self):
        c1 = segment_aal5(b"x" * 40, vpi=1, vci=1)[0]
        c2 = segment_aal5(b"y" * 40, vpi=1, vci=1)[0]
        with pytest.raises(ATMError):
            reassemble_aal5([c1, c2])

    def test_empty_payload_rejected(self):
        with pytest.raises(ATMError):
            segment_aal5(b"", vpi=1, vci=1)

    def test_vpi_vci_validation(self):
        with pytest.raises(ATMError):
            ATMCell(vpi=256, vci=0, pti_last=False, payload=b"x" * 48)
        with pytest.raises(ATMError):
            ATMCell(vpi=0, vci=1 << 16, pti_last=False, payload=b"x" * 48)

    @given(st.binary(min_size=1, max_size=4000))
    def test_roundtrip_property(self, payload):
        cells = segment_aal5(payload, vpi=3, vci=300)
        assert reassemble_aal5(cells).payload == payload


class TestFrameRelay:
    def test_roundtrip(self):
        f = FrameRelayFrame(dlci=123, payload=b"hello", fecn=True, de=True)
        g = FrameRelayFrame.deserialize(f.serialize())
        assert g == f

    def test_dlci_range(self):
        with pytest.raises(FrameRelayError):
            FrameRelayFrame(dlci=1024, payload=b"x")

    def test_empty_payload(self):
        with pytest.raises(FrameRelayError):
            FrameRelayFrame(dlci=1, payload=b"")

    def test_fcs_detects_corruption(self):
        wire = bytearray(FrameRelayFrame(dlci=5, payload=b"abc").serialize())
        wire[3] ^= 0x01
        with pytest.raises(FrameRelayError):
            FrameRelayFrame.deserialize(bytes(wire))

    def test_too_short(self):
        with pytest.raises(FrameRelayError):
            FrameRelayFrame.deserialize(b"\x00\x01\x02")

    def test_congestion_bits(self):
        f = FrameRelayFrame(dlci=9, payload=b"x", fecn=True, becn=True, de=False)
        g = FrameRelayFrame.deserialize(f.serialize())
        assert (g.fecn, g.becn, g.de) == (True, True, False)

    @given(
        st.integers(min_value=0, max_value=1023),
        st.binary(min_size=1, max_size=1500),
    )
    def test_roundtrip_property(self, dlci, payload):
        f = FrameRelayFrame(dlci=dlci, payload=payload)
        assert FrameRelayFrame.deserialize(f.serialize()) == f
