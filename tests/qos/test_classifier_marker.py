"""Tests for classification."""

import pytest

from repro.mpls.label import LabelEntry
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.qos import Classifier, cos_of_packet


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
        clf.add_rule(cos=5, dst="10.1.0.0/16")
        clf.add_rule(cos=1, dst="10.0.0.0/8")
        assert clf.classify(pkt("10.1.2.3")) == 5
        assert clf.classify(pkt("10.2.0.1")) == 1

    def test_default(self):
        clf = Classifier()
        assert clf.classify(pkt()) == 0
        assert clf.defaults == 1

    def test_a_rule_without_dst_matches_everything(self):
        clf = Classifier()
        clf.add_rule(cos=4)
        assert clf.classify(pkt("11.0.0.1", dscp=46, protocol=6)) == 4

    def test_cos_validation(self):
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

