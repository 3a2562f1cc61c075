"""Tests for classification."""

import pytest

from repro.mpls.label import LabelEntry
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.qos.classifier import Classifier, cos_of_packet


def pkt(dst="10.0.0.1", src="192.168.0.1", dscp=0, protocol=17):
    return IPv4Packet(src=src, dst=dst, dscp=dscp, protocol=protocol)


class TestCosOfPacket:
    def test_ip_uses_dscp_class_selector(self):
        assert cos_of_packet(pkt(dscp=46)) == 5  # EF
        assert cos_of_packet(pkt(dscp=0)) == 0

    def test_mpls_uses_top_cos(self):
        packet = MPLSPacket(
            LabelStack([LabelEntry(label=100, cos=6)]), pkt(dscp=0)
        )
        assert cos_of_packet(packet) == 6

    def test_empty_stack_falls_back_to_dscp(self):
        packet = MPLSPacket(LabelStack(), pkt(dscp=46))
        assert cos_of_packet(packet) == 5


class TestClassifier:
    def test_first_match_wins(self):
        clf = Classifier()
        clf.add_rule(cos=5, dscp_min=46, dscp_max=46)
        clf.add_rule(cos=1, dst="10.0.0.0/8")
        assert clf.classify(pkt(dscp=46)) == 5
        assert clf.classify(pkt(dscp=0)) == 1

    def test_default(self):
        clf = Classifier(default_cos=2)
        assert clf.classify(pkt()) == 2
        assert clf.defaults == 1

    def test_src_dst_protocol(self):
        clf = Classifier()
        clf.add_rule(cos=4, src="192.168.0.0/16", protocol=6)
        assert clf.classify(pkt(protocol=6)) == 4
        assert clf.classify(pkt(protocol=17)) == 0

    def test_cos_validation(self):
        with pytest.raises(ValueError):
            Classifier(default_cos=8)
        clf = Classifier()
        with pytest.raises(ValueError):
            clf.add_rule(cos=9)

    def test_hit_counting(self):
        clf = Classifier()
        clf.add_rule(cos=3, dst="10.0.0.0/8")
        clf.classify(pkt())
        clf.classify(pkt(dst="11.0.0.1"))
        assert clf.hits == 1
        assert clf.defaults == 1

    def test_len(self):
        clf = Classifier()
        clf.add_rule(cos=1)
        assert len(clf) == 1

