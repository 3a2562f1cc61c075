"""Ablation: MPLS label switching vs plain IP hop-by-hop routing.

The argument label switching was built on (and which the paper's
Section 2 recounts): a conventional router performs an independent
longest-prefix-match at every hop, whose cost grows with the routing
table, while an LSR does one exact-label lookup against a table sized
by the number of LSPs.  Both data planes run on identical topology and
traffic; the per-hop work is measured and priced with the software
cost model.
"""

from benchmarks._util import emit, emit_json
from repro.analysis.report import render_series
from repro.control.ldp import LDPProcess
from repro.core.timing import SoftwareCostModel
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.ip_router import IPRouterNode, populate_fibs
from repro.net.network import MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource

RIB_SIZES = (0, 64, 256, 512)


def _traffic(net, stop=0.2):
    src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                    src="10.1.0.5", dst="10.2.0.9", rate_bps=1e6,
                    packet_size=500, stop=stop)
    src.begin()
    return src


def run_ip(extra_prefixes):
    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    net = MPLSNetwork(
        topo, roles, node_factory=lambda n, r: IPRouterNode(n, r)
    )
    net.attach_host("ler-b", "10.2.0.0/16")
    populate_fibs(topo, net.nodes, {"ler-b": ["10.2.0.0/16"]},
                  extra_prefixes=extra_prefixes)
    src = _traffic(net)
    net.run(until=1.0)
    scans = sum(n.prefixes_scanned for n in net.nodes.values())
    lookups = sum(n.lookups for n in net.nodes.values())
    return net, src, scans, lookups


def run_mpls():
    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    net = MPLSNetwork(topo, roles)
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topo, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    src = _traffic(net)
    net.run(until=1.0)
    counts = [n.engine.counts for n in net.nodes.values()]
    scans = sum(c.entries_scanned for c in counts)
    lookups = sum(c.ftn_lookups + c.ilm_lookups for c in counts)
    return net, src, scans, lookups


def test_functional_equivalence(benchmark):
    """Both data planes deliver the same traffic on the same network."""

    def run_both():
        ip_net, ip_src, _, _ = run_ip(extra_prefixes=0)
        mpls_net, mpls_src, _, _ = run_mpls()
        return ip_net, ip_src, mpls_net, mpls_src

    ip_net, ip_src, mpls_net, mpls_src = benchmark.pedantic(
        run_both, iterations=1, rounds=2
    )
    assert ip_net.delivered_count() == ip_src.sent
    assert mpls_net.delivered_count() == mpls_src.sent
    assert ip_src.sent == mpls_src.sent
    # latencies differ only by the label's serialization time: the
    # MPLS packet is 4 bytes longer on each of the labelled hops
    label_overhead = 4 * 8 / 10e6 * 3
    for ip_lat, mpls_lat in zip(ip_net.latencies(), mpls_net.latencies()):
        assert abs(mpls_lat - ip_lat - label_overhead) < 1e-9


def test_per_hop_work_vs_rib_size(benchmark):
    """IP's per-packet scan work grows with the RIB; MPLS's does not."""
    sw = SoftwareCostModel()

    def sweep():
        rows = []
        _, mpls_src, mpls_scans, mpls_lookups = run_mpls()
        mpls_per_pkt = mpls_scans / mpls_src.sent
        for extra in RIB_SIZES:
            _, ip_src, ip_scans, _ = run_ip(extra)
            ip_per_pkt = ip_scans / ip_src.sent
            ip_cycles = int(ip_per_pkt * sw.per_entry_scan
                            + 3 * sw.per_packet_overhead)
            mpls_cycles = int(mpls_per_pkt * sw.per_entry_scan
                              + 3 * sw.per_packet_overhead)
            rows.append([extra + 1, round(ip_per_pkt, 1),
                         round(mpls_per_pkt, 1), ip_cycles, mpls_cycles,
                         f"{ip_cycles / mpls_cycles:.2f}x"])
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    emit(
        "mpls_vs_ip",
        render_series(
            "RIB prefixes",
            ["IP scans/pkt", "MPLS scans/pkt", "IP sw cycles/pkt",
             "MPLS sw cycles/pkt", "IP/MPLS cost"],
            rows,
            title="Per-packet forwarding work across the 3-hop path: "
            "IP LPM vs MPLS label switching",
        ),
    )
    emit_json(
        "mpls_vs_ip",
        metric="ip_over_mpls_cycle_ratio_at_513_prefixes",
        value=round(rows[-1][3] / rows[-1][4], 2),
        units="ratio",
        ip_cycles_per_packet=rows[-1][3],
        mpls_cycles_per_packet=rows[-1][4],
    )
    # shape: IP work grows with the RIB, MPLS stays flat
    ip_scans = [r[1] for r in rows]
    mpls_scans = {r[2] for r in rows}
    assert ip_scans == sorted(ip_scans)
    assert ip_scans[-1] > 100 * ip_scans[0]
    assert len(mpls_scans) == 1  # constant regardless of RIB size
