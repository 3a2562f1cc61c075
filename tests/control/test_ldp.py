"""Tests for LDP-style label distribution."""

import pytest

from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelOp
from repro.mpls.router import LSRNode, RouterRole
from repro.net.topology import line, paper_figure1


def _nodes(topo, edge_names):
    return {
        name: LSRNode(
            name,
            RouterRole.LER if name in edge_names else RouterRole.LSR,
        )
        for name in topo.nodes
    }


class TestLDP:
    def _setup(self):
        topo = line(4)  # n0 - n1 - n2 - n3
        nodes = _nodes(topo, edge_names={"n0", "n3"})
        ldp = LDPProcess(topo, nodes)
        fec = PrefixFEC("10.3.0.0/16")
        binding = ldp.establish_fec(fec, egress="n3")
        return topo, nodes, ldp, fec, binding

    def test_all_nodes_get_labels(self):
        _, _, _, _, binding = self._setup()
        assert set(binding.labels) == {"n0", "n1", "n2", "n3"}
        assert all(l >= 16 for l in binding.labels.values())

    def test_next_hops_follow_spf(self):
        _, _, _, _, binding = self._setup()
        assert binding.next_hops == {"n0": "n1", "n1": "n2", "n2": "n3"}

    def test_ingress_ftn_pushes_downstream_label(self):
        _, nodes, _, fec, binding = self._setup()
        from repro.net.packet import IPv4Packet

        packet = IPv4Packet(src="10.0.0.1", dst="10.3.0.1")
        _, nhlfe = nodes["n0"].ftn.lookup(packet)
        assert nhlfe.op is LabelOp.PUSH
        assert nhlfe.out_label == binding.labels["n1"]
        assert nhlfe.next_hop == "n1"

    def test_transit_swaps(self):
        _, nodes, _, _, binding = self._setup()
        nhlfe = nodes["n1"].ilm.get(binding.labels["n1"])
        assert nhlfe.op is LabelOp.SWAP
        assert nhlfe.out_label == binding.labels["n2"]

    def test_egress_pops(self):
        _, nodes, _, _, binding = self._setup()
        nhlfe = nodes["n3"].ilm.get(binding.labels["n3"])
        assert nhlfe.op is LabelOp.POP

    def test_withdraw_releases_everything(self):
        _, nodes, ldp, fec, binding = self._setup()
        ldp.withdraw_fec(binding)
        assert all(len(n.ilm) == 0 for n in nodes.values())
        assert all(len(n.ftn) == 0 for n in nodes.values())
        assert all(not a._allocated for a in ldp.allocators.values())

    def test_withdraw_unknown_binding(self):
        _, _, ldp, _, binding = self._setup()
        ldp.withdraw_fec(binding)
        with pytest.raises(KeyError):
            ldp.withdraw_fec(binding)

    def test_reconvergence_after_link_failure(self):
        topo = paper_figure1()
        nodes = _nodes(topo, edge_names={"ler-a", "ler-b"})
        ldp = LDPProcess(topo, nodes)
        fec = PrefixFEC("10.2.0.0/16")
        ldp.establish_fec(fec, egress="ler-b")
        # break the primary path through lsr-2 and reconverge
        topo.remove_link("lsr-1", "lsr-2")
        ldp.reconverge()
        binding = ldp.bindings[0]
        assert binding.next_hops["lsr-1"] == "lsr-3"

    def test_unknown_egress(self):
        topo = line(2)
        nodes = _nodes(topo, edge_names={"n0", "n1"})
        ldp = LDPProcess(topo, nodes)
        with pytest.raises(KeyError):
            ldp.establish_fec(PrefixFEC("10.0.0.0/8"), egress="ghost")
