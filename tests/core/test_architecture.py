"""Tests for the assembled Figure 6 router: a HardwareLSRNode's
process_frame (ingress packet processing, the node's hop, egress packet
processing) on both modifier backends."""

import pytest

from repro.core.architecture import EmbeddedMPLS
from repro.core.device import STRATIX_EP1S40
from repro.core.hwnode import HardwareLSRNode
from repro.core.hybrid import TABLE_SIZES, compare_partitions
from repro.core.packet_processing import IngressPacketProcessor
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.stack import LabelStack
from repro.mpls.router import RouterRole
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_MPLS, EthernetFrame
from repro.net.packet import IPv4Packet, MPLSPacket


def ip_frame(ttl=64, dscp=0):
    packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9", ttl=ttl, dscp=dscp,
                        payload=b"payload")
    return EthernetFrame(
        dst_mac="aa:aa:aa:aa:aa:aa",
        src_mac="bb:bb:bb:bb:bb:bb",
        ethertype=ETHERTYPE_IPV4,
        payload=packet.serialize(),
    )


def mpls_frame(*labels, ttl=20, ip_ttl=64):
    stack = LabelStack(
        [LabelEntry(label=label, ttl=ttl) for label in labels]
    )
    packet = MPLSPacket(
        stack, IPv4Packet(src="10.1.0.5", dst="10.2.0.9", ttl=ip_ttl,
                          payload=b"payload")
    )
    return EthernetFrame(
        dst_mac="aa:aa:aa:aa:aa:aa",
        src_mac="bb:bb:bb:bb:bb:bb",
        ethertype=ETHERTYPE_MPLS,
        payload=packet.serialize(),
    )


def ler(backend="model", push=777):
    """An ingress LER whose FTN pushes ``push`` for 10.2.0.9/32."""
    node = HardwareLSRNode("ler", RouterRole.LER, backend=backend)
    node.ftn.install(
        PrefixFEC("10.2.0.9/32"), NHLFE(LabelOp.PUSH, out_label=push)
    )
    return node


def ilm_node(label, nhlfe, role=RouterRole.LSR, backend="model"):
    node = HardwareLSRNode("n", role, backend=backend)
    node.ilm.install(label, nhlfe)
    return node


@pytest.fixture(params=["model", "rtl"])
def backend(request):
    return request.param


class TestFigure6Router:
    def test_ler_ingress_pushes(self, backend):
        result = ler(backend).process_frame(ip_frame())
        assert not result.discarded
        assert result.decision.action is Action.FORWARD_MPLS
        assert [e.label for e in result.stack_after] == [777]
        assert result.frame.is_mpls

    def test_lsr_swaps(self, backend):
        labelled = ler().process_frame(ip_frame()).frame
        lsr = ilm_node(777, NHLFE(LabelOp.SWAP, out_label=888),
                       backend=backend)
        result = lsr.process_frame(labelled)
        assert [e.label for e in result.stack_after] == [888]

    def test_egress_pops_to_ip(self, backend):
        labelled = ler().process_frame(ip_frame()).frame
        egress = ilm_node(777, NHLFE(LabelOp.POP), RouterRole.LER, backend)
        result = egress.process_frame(labelled)
        assert result.decision.action is Action.FORWARD_IP
        assert result.stack_after == ()
        assert result.frame.ethertype == ETHERTYPE_IPV4

    def test_egress_never_raises_the_ip_ttl(self, backend):
        """Label TTL 64 over IPv4 TTL 10: the pop copies back
        min(64 - 1, 10), the rule of the software engine and of the
        hardware node, not the label's 63."""
        egress = ilm_node(1000, NHLFE(LabelOp.POP), RouterRole.LER, backend)
        result = egress.process_frame(mpls_frame(1000, ttl=64, ip_ttl=10))
        assert result.decision.action is Action.FORWARD_IP
        assert IPv4Packet.deserialize(result.frame.payload).ttl == 10

    def test_ttl_decrements_along_chain(self):
        labelled = ler().process_frame(ip_frame(ttl=10)).frame
        lsr = ilm_node(777, NHLFE(LabelOp.SWAP, out_label=888))
        swapped = lsr.process_frame(labelled)
        assert swapped.stack_after[0].ttl == 8  # 10 -1 ingress, -1 swap
        egress = ilm_node(888, NHLFE(LabelOp.POP), RouterRole.LER)
        final = egress.process_frame(swapped.frame)
        inner = IPv4Packet.deserialize(final.frame.payload)
        assert inner.ttl == 7

    @pytest.mark.parametrize("hop", ["push", "swap", "pop"])
    def test_a_hop_keeps_the_ip_identification(self, backend, hop):
        # the frame the node rebuilds carries the datagram's own
        # identification field, not one drawn afresh at the hop
        sent = IPv4Packet(src="10.1.0.5", dst="10.2.0.9", payload=b"payload",
                          uid=0xBEEF)
        frame = EthernetFrame(
            dst_mac="aa:aa:aa:aa:aa:aa", src_mac="bb:bb:bb:bb:bb:bb",
            ethertype=ETHERTYPE_IPV4, payload=sent.serialize(),
        )
        if hop == "push":
            node = ler(backend)
        else:
            frame = ler().process_frame(frame).frame
            nhlfe = (NHLFE(LabelOp.SWAP, out_label=888) if hop == "swap"
                     else NHLFE(LabelOp.POP))
            role = RouterRole.LSR if hop == "swap" else RouterRole.LER
            node = ilm_node(777, nhlfe, role, backend)
        out = IngressPacketProcessor().parse(node.process_frame(frame).frame)
        assert out.inner.serialize()[4:6] == b"\xbe\xef"

    def test_unknown_destination_discards(self, backend):
        node = HardwareLSRNode("ler", RouterRole.LER, backend=backend)
        result = node.process_frame(ip_frame())
        assert result.discarded
        assert result.frame is None
        assert node.stats.discard_reasons == {
            "no FEC matches packet to 10.2.0.9": 1
        }

    def test_ttl_expiry_discards(self, backend):
        result = ler(backend).process_frame(ip_frame(ttl=1))
        assert result.discarded

    def test_cycles_counted(self, backend):
        node = ler(backend)
        result = node.process_frame(ip_frame())
        # ingress: no stack loads, update = search(hit@0)+6 = 14, no drains...
        # plus the pop drain of the single result entry (3)
        assert result.cycles >= 14
        assert node.hw_data_cycles == result.cycles
        again = node.process_frame(ip_frame())
        assert node.hw_data_cycles == result.cycles + again.cycles

    def test_rtl_and_model_backends_agree(self):
        frame = ip_frame()
        results = {}
        for backend in ("model", "rtl"):
            node = ler(backend)
            r = node.process_frame(frame)
            results[backend] = (
                r.frame.serialize(), r.stack_after, r.cycles,
                node.hw_control_cycles,
            )
        assert results["model"] == results["rtl"]

    def test_cos_from_dscp_reaches_label(self):
        result = ler().process_frame(ip_frame(dscp=46))
        assert result.stack_after[0].cos == 5

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'asic'"):
            HardwareLSRNode("n", backend="asic")

    def test_deep_stack_transit(self):
        """A two-deep stack is looked up at level 2."""
        lsr = ilm_node(600, NHLFE(LabelOp.SWAP, out_label=601))
        result = lsr.process_frame(mpls_frame(600, 500))
        assert [e.label for e in result.stack_after] == [601, 500]

    def test_a_frame_is_one_hop_of_the_node(self, backend):
        """The frame's hop is the node's: counted in its stats, the
        reserved-label step included (an Explicit NULL popped and what
        it exposes swapped in the same hop)."""
        lsr = ilm_node(100, NHLFE(LabelOp.SWAP, out_label=200),
                       backend=backend)
        result = lsr.process_frame(mpls_frame(0, 100))
        assert [e.label for e in result.stack_after] == [200]
        assert lsr.stats.received == lsr.stats.forwarded_mpls == 1
        assert lsr.fast_path_packets == 1

    def test_router_alert_is_delivered_not_framed(self, backend):
        lsr = ilm_node(100, NHLFE(LabelOp.SWAP, out_label=200),
                       backend=backend)
        result = lsr.process_frame(mpls_frame(1, 100))
        assert result.decision.action is Action.DELIVER_LOCAL
        assert result.frame is None and not result.discarded
        assert lsr.hw_data_cycles == result.cycles == 0


class TestEmbeddedMPLS:
    """What is left of the standalone device: a node with defaults."""

    def test_defaults(self):
        device = EmbeddedMPLS()
        assert isinstance(device, HardwareLSRNode)
        assert device.role is RouterRole.LER
        assert device.name == "device"

    def test_install_swap_is_an_ilm_entry(self, backend):
        device = EmbeddedMPLS(role=RouterRole.LSR, backend=backend)
        device.install_swap(1008, 508)
        assert device.ilm.get(1008) == NHLFE(LabelOp.SWAP, out_label=508)
        result = device.process_frame(mpls_frame(1008))
        assert [e.label for e in result.stack_after] == [508]


class TestPartitionComparison:
    def test_hw_wins_at_small_tables(self):
        cmp = compare_partitions()
        assert cmp.points[0].n_entries == 1
        assert cmp.points[0].speedup_vs_linear_sw > 1

    def test_speedup_shrinks_with_table_size(self):
        cmp = compare_partitions()
        assert [p.n_entries for p in cmp.points] == list(TABLE_SIZES)
        speedups = [p.speedup_vs_linear_sw for p in cmp.points]
        assert speedups[0] > speedups[-1]

    def test_hardware_is_priced_at_the_stratix_clock(self):
        cmp = compare_partitions()
        assert cmp.hw_clock_hz == STRATIX_EP1S40.clock_hz == 50e6
        for p in cmp.points:
            assert p.hw_cycles == 3 * p.n_entries + 5 + 6
            assert p.hw_seconds == pytest.approx(p.hw_cycles / 50e6)

    def test_crossover_reported(self):
        crossover = compare_partitions().crossover_entries()
        # hashed software eventually beats linear hardware search
        assert crossover is None or crossover >= 1
