"""Tests for FEC classification."""

import pytest

from repro.mpls.fec import CoSFEC, PrefixFEC
from repro.net.addressing import IPv4Prefix
from repro.net.packet import IPv4Packet


def pkt(dst="10.0.0.1", dscp=0):
    return IPv4Packet(src="192.168.1.1", dst=dst, dscp=dscp)


class TestPrefixFEC:
    def test_match(self):
        fec = PrefixFEC("10.0.0.0/8")
        assert fec.matches(pkt("10.200.3.4"))

    def test_no_match(self):
        fec = PrefixFEC("10.0.0.0/8")
        assert not fec.matches(pkt("11.0.0.1"))

    def test_specificity_is_length(self):
        assert PrefixFEC("10.0.0.0/8").specificity == 8
        assert PrefixFEC("10.1.0.0/16").specificity == 16

    def test_equality(self):
        assert PrefixFEC("10.1.2.3/16") == PrefixFEC("10.1.0.0/16")

    def test_hashable(self):
        assert len({PrefixFEC("10.0.0.0/8"), PrefixFEC("10.0.0.0/8")}) == 1

    def test_default_route(self):
        fec = PrefixFEC("0.0.0.0/0")
        assert fec.matches(pkt("1.2.3.4"))
        assert fec.specificity == 0


class TestHostRoute:
    """A host route is a /32 prefix: it matches one address and beats
    every shorter prefix."""

    def test_exact_match_only(self):
        fec = PrefixFEC("10.0.0.5/32")
        assert fec.matches(pkt("10.0.0.5"))
        assert not fec.matches(pkt("10.0.0.6"))
        assert not fec.matches(pkt("10.0.0.4"))

    def test_most_specific(self):
        assert PrefixFEC("10.0.0.5/32").specificity == 32
        assert PrefixFEC(IPv4Prefix("10.0.0.5", 32)).specificity == 32

    def test_equality(self):
        assert PrefixFEC("10.0.0.5/32") == PrefixFEC(IPv4Prefix("10.0.0.5", 32))
        assert PrefixFEC("10.0.0.5/32") != PrefixFEC("10.0.0.6/32")
        assert PrefixFEC("10.0.0.5/32") != PrefixFEC("10.0.0.5/31")


class TestCoSFEC:
    def test_requires_both_conditions(self):
        fec = CoSFEC(PrefixFEC("10.0.0.0/8"), 46)
        assert fec.matches(pkt("10.1.1.1", dscp=46))
        assert not fec.matches(pkt("10.1.1.1", dscp=0))
        assert not fec.matches(pkt("10.1.1.1", dscp=47))
        assert not fec.matches(pkt("11.1.1.1", dscp=46))

    def test_more_specific_than_inner(self):
        inner = PrefixFEC("10.0.0.0/8")
        assert CoSFEC(inner, 46).specificity > inner.specificity

    def test_bad_dscp_rejected(self):
        with pytest.raises(ValueError):
            CoSFEC(PrefixFEC("10.0.0.0/8"), 64)

    def test_equality(self):
        a = CoSFEC(PrefixFEC("10.0.0.0/8"), 46)
        b = CoSFEC(PrefixFEC("10.0.0.0/8"), 46)
        assert a == b
        assert hash(a) == hash(b)

    def test_equal_cos_fecs_print_alike(self):
        a = CoSFEC(PrefixFEC("10.2.0.0/16"), 46)
        b = CoSFEC(PrefixFEC("10.2.0.0/16"), 46)
        assert str(a) == str(b) == "CoSFEC(PrefixFEC('10.2.0.0/16'), 46)"
        assert str(CoSFEC(PrefixFEC("10.2.0.0/16"), 0)) != str(a)

    def test_an_ldp_established_cos_fec_names_no_address(self):
        from repro.control.ldp import LDPProcess
        from repro.mpls.router import RouterRole
        from repro.net.network import MPLSNetwork
        from repro.net.topology import paper_figure1
        from repro.obs import ListSink, telemetry_session
        from repro.obs.events import LabelMappingInstalled

        fec = CoSFEC(PrefixFEC("10.2.0.0/16"), 46)
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            topo = paper_figure1()
            net = MPLSNetwork(
                topo, {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
            )
            LDPProcess(topo, net.nodes).establish_fec(fec, egress="ler-b")
        ids = {
            e.fec_id for e in sink.events
            if isinstance(e, LabelMappingInstalled)
        }
        assert ids == {str(fec)}
        assert "0x" not in str(fec)
