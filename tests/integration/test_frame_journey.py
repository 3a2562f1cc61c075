"""Integration: a frame's full journey through a chain of embedded
MPLS routers, crossing layer-2 technologies.

This is the paper's Figure 2 end to end: a layer-2 network generates a
packet, the ingress LER labels it, LSRs swap the label, and the egress
LER strips it and hands it to a different layer-2 network (Ethernet in,
ATM out) -- all through hardware nodes' ``process_frame`` (the Figure 6
router) with real frame bytes at every hop.
"""

import pytest

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import RouterRole
from repro.net.atm import reassemble_aal5, segment_aal5
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.packet import IPv4Packet

def build_chain(backend="model"):
    """ingress LER -> lsr1 -> lsr2 -> egress LER, labels 100->200->300."""
    ingress = HardwareLSRNode("ingress", RouterRole.LER, backend=backend)
    ingress.ftn.install(
        PrefixFEC("10.2.0.9/32"), NHLFE(LabelOp.PUSH, out_label=100)
    )
    lsr1 = HardwareLSRNode("lsr1", RouterRole.LSR, backend=backend)
    lsr1.ilm.install(100, NHLFE(LabelOp.SWAP, out_label=200))
    lsr2 = HardwareLSRNode("lsr2", RouterRole.LSR, backend=backend)
    lsr2.ilm.install(200, NHLFE(LabelOp.SWAP, out_label=300))
    egress = HardwareLSRNode("egress", RouterRole.LER, backend=backend)
    egress.ilm.install(300, NHLFE(LabelOp.POP))
    return ingress, lsr1, lsr2, egress


def original_packet(ttl=64):
    return IPv4Packet(
        src="10.1.0.5", dst="10.2.0.9", ttl=ttl, dscp=46,
        payload=b"voice sample bytes",
    )


def ethernet_in(packet):
    return EthernetFrame(
        dst_mac="02:00:00:00:00:01",
        src_mac="02:00:00:00:00:02",
        ethertype=ETHERTYPE_IPV4,
        payload=packet.serialize(),
    )


@pytest.mark.parametrize("backend", ["model", "rtl"])
class TestFullChain:
    def test_labels_along_the_path(self, backend):
        ingress, lsr1, lsr2, egress = build_chain(backend)
        r1 = ingress.process_frame(ethernet_in(original_packet()))
        assert [e.label for e in r1.stack_after] == [100]
        r2 = lsr1.process_frame(r1.frame)
        assert [e.label for e in r2.stack_after] == [200]
        r3 = lsr2.process_frame(r2.frame)
        assert [e.label for e in r3.stack_after] == [300]
        r4 = egress.process_frame(r3.frame)
        assert r4.stack_after == ()
        assert r4.decision.action is Action.FORWARD_IP

    def test_payload_integrity_end_to_end(self, backend):
        ingress, lsr1, lsr2, egress = build_chain(backend)
        frame = ethernet_in(original_packet())
        for node in (ingress, lsr1, lsr2, egress):
            frame = node.process_frame(frame).frame
        inner = IPv4Packet.deserialize(frame.payload)
        assert inner.payload == b"voice sample bytes"
        assert inner.dst == "10.2.0.9"
        assert inner.dscp == 46

    def test_ttl_accounting(self, backend):
        """One decrement per router, uniform model."""
        ingress, lsr1, lsr2, egress = build_chain(backend)
        frame = ethernet_in(original_packet(ttl=64))
        for node in (ingress, lsr1, lsr2, egress):
            frame = node.process_frame(frame).frame
        inner = IPv4Packet.deserialize(frame.payload)
        assert inner.ttl == 64 - 4

    def test_cos_preserved_across_swaps(self, backend):
        """'The CoS bits are not modified by the embedded
        implementation of MPLS.'"""
        ingress, lsr1, lsr2, _ = build_chain(backend)
        r1 = ingress.process_frame(ethernet_in(original_packet()))
        assert r1.stack_after[0].cos == 5  # EF -> CoS 5
        r2 = lsr1.process_frame(r1.frame)
        r3 = lsr2.process_frame(r2.frame)
        assert r2.stack_after[0].cos == 5
        assert r3.stack_after[0].cos == 5


class TestCrossTechnology:
    def test_ethernet_in_atm_out(self):
        """The egress LER forwards into an ATM attachment circuit."""
        ingress, lsr1, lsr2, egress = build_chain()
        frame = ethernet_in(original_packet())
        for node in (ingress, lsr1, lsr2):
            frame = node.process_frame(frame).frame
        # re-frame the labelled packet onto ATM before the egress LER
        labelled_bytes = frame.payload
        cells = segment_aal5(labelled_bytes, vpi=2, vci=99)
        result = egress.process_frame(cells)
        assert isinstance(result.frame, list)
        pdu = reassemble_aal5(result.frame)
        inner = IPv4Packet.deserialize(pdu.payload)
        assert inner.payload == b"voice sample bytes"

    def test_expired_packet_never_reaches_egress(self):
        ingress, lsr1, _, _ = build_chain()
        r1 = ingress.process_frame(ethernet_in(original_packet(ttl=2)))
        assert not r1.discarded  # ttl 2 -> 1 at ingress
        r2 = lsr1.process_frame(r1.frame)
        assert r2.discarded  # 1 -> would be 0 at the first LSR
