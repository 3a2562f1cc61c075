"""Integration at scale: a larger random network, several FECs, mixed
traffic -- validating determinism and conservation at sizes beyond the
toy topologies."""

import random


from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import Topology
from repro.net.traffic import CBRSource


def random_topology(n_nodes=24, extra_links=20, seed=7):
    """A connected random graph: a spanning chain plus chords."""
    rng = random.Random(seed)
    topo = Topology()
    names = [f"r{i}" for i in range(n_nodes)]
    for name in names:
        topo.add_node(name)
    for a, b in zip(names, names[1:]):
        topo.add_link(a, b, bandwidth_bps=50e6, delay_s=0.2e-3)
    added = 0
    while added < extra_links:
        a, b = rng.sample(names, 2)
        if not topo.has_link(a, b):
            topo.add_link(a, b, bandwidth_bps=50e6, delay_s=0.2e-3)
            added += 1
    return topo, names


def build_network(seed=7):
    topo, names = random_topology(seed=seed)
    edges = {names[0], names[-1], names[len(names) // 2]}
    roles = {name: RouterRole.LER for name in edges}
    net = MPLSNetwork(topo, roles)
    ldp = LDPProcess(topo, net.nodes)
    hosts = {
        names[-1]: "10.100.0.0/16",
        names[len(names) // 2]: "10.200.0.0/16",
    }
    for egress, prefix in hosts.items():
        net.attach_host(egress, prefix)
        ldp.establish_fec(PrefixFEC(prefix), egress=egress)
    return net, names, hosts


def run_traffic(net, ingress):
    flows = [
        CBRSource(net.scheduler, net.source_sink(ingress),
                  src="10.0.0.1", dst="10.100.0.9", rate_bps=2e6,
                  packet_size=700, stop=0.3),
        # 300 packets/s of 300 B (+20 B header)
        CBRSource(net.scheduler, net.source_sink(ingress),
                  src="10.0.0.2", dst="10.200.0.9", rate_bps=300 * 320 * 8,
                  packet_size=300, stop=0.3),
    ]
    for flow in flows:
        flow.begin()
    net.run(until=1.0)
    return flows


class TestScale:
    def test_conservation(self):
        """Every packet is delivered or accounted for as a drop."""
        net, names, _ = build_network()
        flows = run_traffic(net, names[0])
        sent = sum(f.sent for f in flows)
        assert sent > 100
        assert net.delivered_count() + net.drop_count() == sent

    def test_all_delivered_below_capacity(self):
        net, names, _ = build_network()
        flows = run_traffic(net, names[0])
        assert net.drop_count() == 0
        for flow in flows:
            assert net.delivered_count(flow.flow_id) == flow.sent

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            net, names, _ = build_network()
            run_traffic(net, names[0])
            results.append(
                (
                    net.delivered_count(),
                    [round(l, 12) for l in net.latencies()[:50]],
                )
            )
        assert results[0] == results[1]

    def test_paths_follow_spf(self):
        """Transit load only appears on SPF paths."""
        from repro.control.routing import shortest_path

        net, names, hosts = build_network()
        flows = run_traffic(net, names[0])
        for egress in hosts:
            path = shortest_path(net.topology, names[0], egress)
            for node in path[1:-1]:
                assert net.nodes[node].stats.forwarded_mpls > 0

    def test_label_spaces_stay_disjoint_per_node(self):
        net, _, _ = build_network()
        for node in net.nodes.values():
            labels = node.ilm.labels()
            assert len(labels) == len(set(labels))
