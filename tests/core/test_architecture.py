"""Tests for the assembled EmbeddedMPLS architecture."""

import pytest

from repro.core.architecture import EmbeddedMPLS
from repro.core.hybrid import compare_partitions
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.stack import LabelStack
from repro.mpls.router import RouterRole
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_MPLS, EthernetFrame
from repro.net.packet import IPv4Packet, MPLSPacket


DST = int.from_bytes(bytes([10, 2, 0, 9]), "big")


def ip_frame(ttl=64, dscp=0):
    packet = IPv4Packet(src="10.1.0.5", dst="10.2.0.9", ttl=ttl, dscp=dscp,
                        payload=b"payload")
    return EthernetFrame(
        dst_mac="aa:aa:aa:aa:aa:aa",
        src_mac="bb:bb:bb:bb:bb:bb",
        ethertype=ETHERTYPE_IPV4,
        payload=packet.serialize(),
    )


@pytest.fixture(params=["model", "rtl"])
def backend(request):
    return request.param


class TestEmbeddedMPLS:
    def test_ler_ingress_pushes(self, backend):
        ler = EmbeddedMPLS(role=RouterRole.LER, backend=backend)
        ler.install_route(1, DST, 777, LabelOp.PUSH)
        result = ler.process_frame(ip_frame())
        assert not result.discarded
        assert result.performed == LabelOp.PUSH
        assert [e.label for e in result.stack_after] == [777]
        assert result.frame.is_mpls

    def test_lsr_swaps(self, backend):
        ler = EmbeddedMPLS(role=RouterRole.LER, backend="model")
        ler.install_route(1, DST, 777, LabelOp.PUSH)
        labelled = ler.process_frame(ip_frame()).frame
        lsr = EmbeddedMPLS(role=RouterRole.LSR, backend=backend)
        lsr.install_swap(777, 888)
        result = lsr.process_frame(labelled)
        assert result.performed == LabelOp.SWAP
        assert [e.label for e in result.stack_after] == [888]

    def test_egress_pops_to_ip(self, backend):
        ler = EmbeddedMPLS(role=RouterRole.LER, backend="model")
        ler.install_route(1, DST, 777, LabelOp.PUSH)
        labelled = ler.process_frame(ip_frame()).frame
        egress = EmbeddedMPLS(role=RouterRole.LER, backend=backend)
        egress.install_route(1, 777, 16, LabelOp.POP)
        result = egress.process_frame(labelled)
        assert result.performed == LabelOp.POP
        assert result.stack_after == ()
        assert result.frame.ethertype == ETHERTYPE_IPV4

    def test_egress_never_raises_the_ip_ttl(self, backend):
        """Label TTL 64 over IPv4 TTL 10: the pop copies back
        min(64 - 1, 10), the rule of the software engine and of the
        hardware node, not the label's 63."""
        inner = IPv4Packet(src="10.1.0.5", dst="10.2.0.9", ttl=10,
                           payload=b"payload")
        packet = MPLSPacket(LabelStack([LabelEntry(label=1000, ttl=64)]), inner)
        frame = EthernetFrame(
            dst_mac="aa:aa:aa:aa:aa:aa",
            src_mac="bb:bb:bb:bb:bb:bb",
            ethertype=ETHERTYPE_MPLS,
            payload=packet.serialize(),
        )
        egress = EmbeddedMPLS(role=RouterRole.LER, backend=backend)
        egress.install_route(1, 1000, 16, LabelOp.POP)
        result = egress.process_frame(frame)
        assert result.performed == LabelOp.POP
        assert IPv4Packet.deserialize(result.frame.payload).ttl == 10

    def test_ttl_decrements_along_chain(self):
        ler = EmbeddedMPLS(role=RouterRole.LER)
        ler.install_route(1, DST, 777, LabelOp.PUSH)
        labelled = ler.process_frame(ip_frame(ttl=10)).frame
        lsr = EmbeddedMPLS(role=RouterRole.LSR)
        lsr.install_swap(777, 888)
        swapped = lsr.process_frame(labelled)
        assert swapped.stack_after[0].ttl == 8  # 10 -1 ingress, -1 swap
        egress = EmbeddedMPLS(role=RouterRole.LER)
        egress.install_route(1, 888, 16, LabelOp.POP)
        final = egress.process_frame(swapped.frame)
        inner = IPv4Packet.deserialize(final.frame.payload)
        assert inner.ttl == 7

    def test_unknown_destination_discards(self, backend):
        ler = EmbeddedMPLS(role=RouterRole.LER, backend=backend)
        result = ler.process_frame(ip_frame())
        assert result.discarded
        assert result.frame is None
        assert ler.packets_discarded == 1

    def test_ttl_expiry_discards(self, backend):
        ler = EmbeddedMPLS(role=RouterRole.LER, backend=backend)
        ler.install_route(1, DST, 777, LabelOp.PUSH)
        result = ler.process_frame(ip_frame(ttl=1))
        assert result.discarded

    def test_cycles_counted(self, backend):
        ler = EmbeddedMPLS(role=RouterRole.LER, backend=backend)
        ler.install_route(1, DST, 777, LabelOp.PUSH)
        result = ler.process_frame(ip_frame())
        # ingress: no stack loads, update = search(hit@0)+6 = 14, no drains...
        # plus the pop drain of the single result entry (3)
        assert result.cycles >= 14
        assert result.seconds == pytest.approx(result.cycles / 50e6)
        assert ler.total_cycles >= result.cycles

    def test_rtl_and_model_backends_agree(self):
        results = {}
        for backend in ("model", "rtl"):
            node = EmbeddedMPLS(role=RouterRole.LER, backend=backend)
            node.install_route(1, DST, 777, LabelOp.PUSH)
            r = node.process_frame(ip_frame())
            results[backend] = (r.performed, r.stack_after, r.cycles)
        assert results["model"] == results["rtl"]

    def test_cos_from_dscp_reaches_label(self):
        ler = EmbeddedMPLS(role=RouterRole.LER)
        ler.install_route(1, DST, 777, LabelOp.PUSH)
        result = ler.process_frame(ip_frame(dscp=46))
        assert result.stack_after[0].cos == 5

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            EmbeddedMPLS(backend="asic")

    def test_deep_stack_transit(self):
        """A two-deep stack is looked up at level 2."""
        lsr = EmbeddedMPLS(role=RouterRole.LSR)
        lsr.install_route(2, 600, 601, LabelOp.SWAP)
        stack = LabelStack(
            [LabelEntry(label=600, ttl=20), LabelEntry(label=500, ttl=20)]
        )
        packet = MPLSPacket(stack, IPv4Packet(src="10.1.0.5", dst="10.2.0.9"))
        frame = EthernetFrame(
            dst_mac="aa:aa:aa:aa:aa:aa",
            src_mac="bb:bb:bb:bb:bb:bb",
            ethertype=ETHERTYPE_MPLS,
            payload=packet.serialize(),
        )
        result = lsr.process_frame(frame)
        assert result.performed == LabelOp.SWAP
        assert [e.label for e in result.stack_after] == [601, 500]


class TestPartitionComparison:
    def test_hw_wins_at_small_tables(self):
        cmp = compare_partitions(table_sizes=(1, 4, 16))
        assert cmp.points[0].speedup_vs_linear_sw > 1

    def test_speedup_shrinks_with_table_size(self):
        cmp = compare_partitions(table_sizes=(1, 64, 1024))
        speedups = [p.speedup_vs_linear_sw for p in cmp.points]
        assert speedups[0] > speedups[-1]

    def test_crossover_reported(self):
        cmp = compare_partitions(table_sizes=(1, 16, 256, 1024))
        crossover = cmp.crossover_entries()
        # hashed software eventually beats linear hardware search
        assert crossover is None or crossover >= 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            compare_partitions(table_sizes=(0,))
