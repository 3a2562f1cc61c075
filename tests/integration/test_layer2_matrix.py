"""Integration: every layer-2 technology through the full chain.

The paper's Figure 1 shows LERs bridging Ethernet, ATM and Frame Relay
into one MPLS core.  This matrix drives a packet through
ingress LER -> LSR -> egress LER for every (ingress tech, egress tech)
combination, with genuine frame bytes at both edges.
"""

import pytest

from repro.core.hwnode import HardwareLSRNode
from repro.core.packet_processing import IngressPacketProcessor
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import RouterRole
from repro.net.atm import reassemble_aal5, segment_aal5
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_MPLS, EthernetFrame
from repro.net.frame_relay import FrameRelayFrame
from repro.net.packet import IPv4Packet

DST = int.from_bytes(bytes([10, 2, 0, 9]), "big")
TECHS = ("ethernet", "atm", "frame-relay")


def make_ingress_frame(tech, payload_bytes):
    if tech == "ethernet":
        return EthernetFrame(
            dst_mac="02:00:00:00:00:01",
            src_mac="02:00:00:00:00:02",
            ethertype=ETHERTYPE_IPV4,
            payload=payload_bytes,
        )
    if tech == "atm":
        return segment_aal5(payload_bytes, vpi=1, vci=42)
    return FrameRelayFrame(dlci=77, payload=payload_bytes)


def reframe(frame, tech):
    """Move a labelled payload onto a different layer-2 technology
    (what the far-side attachment circuit would carry)."""
    if isinstance(frame, EthernetFrame):
        payload = frame.payload
    elif isinstance(frame, list):
        payload = reassemble_aal5(frame).payload
    else:
        payload = frame.payload
    if tech == "ethernet":
        return EthernetFrame(
            dst_mac="02:00:00:00:00:03",
            src_mac="02:00:00:00:00:04",
            ethertype=ETHERTYPE_MPLS,
            payload=payload,
        )
    if tech == "atm":
        return segment_aal5(payload, vpi=9, vci=99)
    return FrameRelayFrame(dlci=99, payload=payload)


def extract_ip(frame):
    if isinstance(frame, EthernetFrame):
        return IPv4Packet.deserialize(frame.payload)
    if isinstance(frame, list):
        return IPv4Packet.deserialize(reassemble_aal5(frame).payload)
    return IPv4Packet.deserialize(frame.payload)


@pytest.mark.parametrize("backend", ["model", "rtl"])
@pytest.mark.parametrize("ingress_tech", TECHS)
@pytest.mark.parametrize("egress_tech", TECHS)
def test_cross_technology_journey(ingress_tech, egress_tech, backend):
    packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9", ttl=32,
                        payload=b"cross-tech payload")
    ingress = HardwareLSRNode("ingress", RouterRole.LER, backend=backend)
    ingress.ftn.install(
        PrefixFEC("10.2.0.9/32"), NHLFE(LabelOp.PUSH, out_label=100)
    )
    lsr = HardwareLSRNode("lsr", RouterRole.LSR, backend=backend)
    lsr.ilm.install(100, NHLFE(LabelOp.SWAP, out_label=200))
    egress = HardwareLSRNode("egress", RouterRole.LER, backend=backend)
    egress.ilm.install(200, NHLFE(LabelOp.POP))

    frame = make_ingress_frame(ingress_tech, packet.serialize())
    labelled = ingress.process_frame(frame)
    assert not labelled.discarded
    swapped = lsr.process_frame(labelled.frame)
    assert [e.label for e in swapped.stack_after] == [200]
    # the last segment hands the labelled packet to the egress LER on
    # its own attachment technology
    final = egress.process_frame(reframe(swapped.frame, egress_tech))
    assert final.stack_after == ()

    inner = extract_ip(final.frame)
    assert inner.payload == b"cross-tech payload"
    assert str(inner.dst) == "10.2.0.9"
    assert inner.ttl == 32 - 3  # one decrement per router


@pytest.mark.parametrize("tech", TECHS)
def test_ingress_parses_every_technology(tech):
    packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
    parsed = IngressPacketProcessor().parse(
        make_ingress_frame(tech, packet.serialize())
    )
    assert parsed.packet_identifier == DST
    assert parsed.stack.is_empty
