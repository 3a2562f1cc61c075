"""Tests for the plain-IP baseline router."""


from repro.mpls.forwarding import Action
from repro.mpls.label import LabelEntry
from repro.mpls.router import RouterRole
from repro.mpls.stack import LabelStack
from repro.net.ip_router import IPRouterNode, populate_fibs
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.topology import line, paper_figure1
from repro.net.traffic import CBRSource


def ip_pkt(dst="10.2.0.9", ttl=64):
    return IPv4Packet(src="10.1.0.5", dst=dst, ttl=ttl)


class TestIPRouterNode:
    def _node(self):
        node = IPRouterNode("r1", RouterRole.LSR)
        node.install_prefix("10.2.0.0/16", "r2")
        node.install_prefix("10.0.0.0/8", "r3")
        return node

    def test_longest_prefix_wins(self):
        node = self._node()
        decision = node.receive(ip_pkt("10.2.0.9"))
        assert decision.next_hop == "r2"
        decision = node.receive(ip_pkt("10.9.0.9"))
        assert decision.next_hop == "r3"

    def test_ttl_decremented_per_hop(self):
        node = self._node()
        decision = node.receive(ip_pkt(ttl=9))
        assert decision.packet.ttl == 8

    def test_ttl_expiry(self):
        node = self._node()
        decision = node.receive(ip_pkt(ttl=1))
        assert decision.action is Action.DISCARD
        assert "TTL" in decision.reason

    def test_no_route(self):
        node = self._node()
        decision = node.receive(ip_pkt("99.0.0.1"))
        assert decision.action is Action.DISCARD
        assert "no route" in decision.reason

    def test_local_delivery(self):
        node = IPRouterNode("r1", RouterRole.LER)
        node.install_prefix("10.2.0.0/16", None)
        decision = node.receive(ip_pkt())
        assert decision.action is Action.FORWARD_IP
        assert decision.next_hop is None
        # local delivery does not decrement
        assert decision.packet.ttl == 64

    def test_labelled_packet_rejected(self):
        node = self._node()
        packet = MPLSPacket(
            LabelStack([LabelEntry(label=100, ttl=9)]), ip_pkt()
        )
        decision = node.receive(packet)
        assert decision.action is Action.DISCARD

    def test_scan_cost_accounting(self):
        node = self._node()
        node.receive(ip_pkt("10.2.0.9"))  # first entry: scanned 1
        node.receive(ip_pkt("10.9.0.9"))  # second entry: scanned 2
        assert node.lookups == 2
        assert node.prefixes_scanned == 3

    def test_reinstall_replaces(self):
        node = self._node()
        node.install_prefix("10.2.0.0/16", "r9")
        assert len(node._fib) == 2
        assert node.receive(ip_pkt()).next_hop == "r9"


class TestPopulateFibs:
    def test_fibs_follow_spf(self):
        topo = line(4)
        nodes = {
            name: IPRouterNode(
                name, RouterRole.LER if name in ("n0", "n3") else RouterRole.LSR
            )
            for name in topo.nodes
        }
        populate_fibs(topo, nodes, {"n3": ["10.3.0.0/16"]})
        decision = nodes["n0"].receive(ip_pkt("10.3.0.1"))
        assert decision.next_hop == "n1"
        decision = nodes["n2"].receive(ip_pkt("10.3.0.1"))
        assert decision.next_hop == "n3"

    def test_extra_prefixes_pad_fib(self):
        topo = line(2)
        nodes = {n: IPRouterNode(n, RouterRole.LER) for n in topo.nodes}
        populate_fibs(topo, nodes, {"n1": ["10.1.0.0/16"]},
                      extra_prefixes=100)
        assert len(nodes["n0"]._fib) == 101
        # the real route still resolves despite the padding
        assert nodes["n0"].receive(ip_pkt("10.1.0.1")).next_hop == "n1"


class TestIPNetworkEndToEnd:
    def test_ip_network_delivers(self):
        topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
        roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
        net = MPLSNetwork(
            topo,
            roles,
            node_factory=lambda name, role: IPRouterNode(name, role),
        )
        net.attach_host("ler-b", "10.2.0.0/16")
        populate_fibs(topo, net.nodes, {"ler-b": ["10.2.0.0/16"]})
        src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                        src="10.1.0.5", dst="10.2.0.9", rate_bps=1e6,
                        packet_size=500, stop=0.2)
        src.begin()
        net.run(until=1.0)
        assert net.delivered_count() == src.sent
        # every transit hop did an LPM lookup
        assert net.nodes["lsr-1"].lookups == src.sent
