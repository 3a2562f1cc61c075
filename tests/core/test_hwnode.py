"""Tests for the hardware-backed network node: its cycles, level-1
learned pairs and resyncs.  Its forwarding outcomes, against the
software node's, are rows of ``tests/mpls/test_conformance.py``."""

import pytest

from repro.control.ldp import LDPProcess
from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource
from tests.strategies.flows import ip_pkt, labelled


class TestHardwareTransit:
    def _node(self):
        node = HardwareLSRNode("lsr-1", RouterRole.LSR, ib_depth=64)
        node.ilm.install(
            100, NHLFE(op=LabelOp.SWAP, out_label=200, next_hop="lsr-2")
        )
        node.ilm.install(300, NHLFE(op=LabelOp.POP, next_hop="ler-b"))
        return node

    def test_cycles_counted(self):
        node = self._node()
        node.receive(labelled(100))
        # 3 (load) + 14 (update: hit at entry 0 + swap tail) + 3 (drain)
        assert node.hw_data_cycles == 20
        assert node.fast_path_packets == 1

    def test_lookup_miss_discards(self):
        node = self._node()
        decision = node.receive(labelled(42))
        assert decision.action is Action.DISCARD
        assert "no ILM" in decision.reason

    def test_ttl_expiry_discards(self):
        node = self._node()
        decision = node.receive(labelled(100, ttl=1))
        assert decision.action is Action.DISCARD
        assert "TTL" in decision.reason

    def test_php_pop_forwards_ip(self):
        node = self._node()
        decision = node.receive(labelled(300, ttl=10))
        assert decision.action is Action.FORWARD_IP
        assert decision.packet.ttl == 9
        assert decision.next_hop == "ler-b"

    def test_ib_resync_on_table_change(self):
        node = self._node()
        node.receive(labelled(100))
        ctrl_before = node.hw_control_cycles
        node.ilm.install(
            400, NHLFE(op=LabelOp.SWAP, out_label=500, next_hop="x")
        )
        node.receive(labelled(400))
        assert node.hw_control_cycles > ctrl_before

    def test_unlabelled_at_core_discarded(self):
        node = self._node()
        decision = node.receive(ip_pkt())
        assert decision.action is Action.DISCARD


class TestHardwareIngress:
    def _ler(self):
        node = HardwareLSRNode("ler-a", RouterRole.LER, ib_depth=64)
        node.ftn.install(
            PrefixFEC("10.2.0.0/16"),
            NHLFE(op=LabelOp.PUSH, out_label=777, next_hop="lsr-1"),
        )
        return node

    def test_first_packet_takes_slow_path(self):
        node = self._ler()
        decision = node.receive(ip_pkt())
        assert decision.action is Action.FORWARD_MPLS
        assert decision.packet.stack.top.label == 777
        assert node.slow_path_packets == 1
        assert node.fast_path_packets == 0

    def test_flow_cache_hits_on_repeat(self):
        node = self._ler()
        node.receive(ip_pkt())
        node.receive(ip_pkt())
        node.receive(ip_pkt())
        assert node.slow_path_packets == 1
        assert node.fast_path_packets == 2

    def test_distinct_destinations_each_learn_once(self):
        node = self._ler()
        for dst in ("10.2.0.1", "10.2.0.2", "10.2.0.1"):
            node.receive(ip_pkt(dst=dst))
        assert node.slow_path_packets == 2
        assert node.fast_path_packets == 1

    def test_no_route_discards(self):
        node = self._ler()
        decision = node.receive(ip_pkt(dst="99.0.0.1"))
        assert decision.action is Action.DISCARD
        assert "no FEC" in decision.reason

    def test_ttl_expiry(self):
        node = self._ler()
        decision = node.receive(ip_pkt(ttl=1))
        assert decision.action is Action.DISCARD


class TestHardwareNetworkEquivalence:
    def _run(self, node_factory):
        topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
        roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
        kwargs = {"node_factory": node_factory} if node_factory else {}
        net = MPLSNetwork(topo, roles, **kwargs)
        net.attach_host("ler-b", "10.2.0.0/16")
        LDPProcess(topo, net.nodes).establish_fec(
            PrefixFEC("10.2.0.0/16"), egress="ler-b"
        )
        src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                        src="10.1.0.5", dst="10.2.0.9", rate_bps=1e6,
                        packet_size=500, stop=0.2)
        src.begin()
        net.run(until=1.0)
        return net, src

    def test_same_deliveries_and_latencies(self):
        sw_net, sw_src = self._run(None)
        hw_net, hw_src = self._run(HardwareLSRNode)
        assert sw_src.sent == hw_src.sent
        assert sw_net.delivered_count() == hw_net.delivered_count()
        assert sw_net.latencies() == pytest.approx(hw_net.latencies())

    def test_cycle_accounting_accumulates(self):
        hw_net, hw_src = self._run(HardwareLSRNode)
        lsr = hw_net.nodes["lsr-1"]
        assert lsr.hw_data_cycles > 0
        assert lsr.mean_hw_cycles_per_packet == pytest.approx(20.0)
