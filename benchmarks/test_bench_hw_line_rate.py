"""Ablation: can the 50 MHz label stack modifier keep up with a link?

The paper claims the architecture "can be implemented to achieve
optimal performance of MPLS".  This bench runs live traffic through a
network of hardware-backed nodes (each packet costs exact modifier
cycles: stack load + Table 6 update + drain), then converts the
measured mean cycles/packet into the maximum line rate the modifier
can saturate for several packet sizes and table occupancies.
"""

from benchmarks._util import emit, emit_json
from repro.analysis.report import render_series, render_table
from repro.analysis.throughput import line_rate_feasibility
from repro.control.ldp import LDPProcess
from repro.core.hwnode import HardwareLSRNode
from repro.core.timing import HardwareCycleModel
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource


def _run_hw_network():
    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    net = MPLSNetwork(topo, roles, node_factory=HardwareLSRNode)
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topo, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                    src="10.1.0.5", dst="10.2.0.9", rate_bps=2e6,
                    packet_size=500, stop=0.5)
    src.begin()
    net.run(until=1.0)
    return net, src


def test_measured_cycles_per_packet_in_live_network(benchmark):
    net, src = benchmark.pedantic(_run_hw_network, iterations=1, rounds=2)
    assert net.delivered_count() == src.sent
    lsr = net.nodes["lsr-1"]
    mean = lsr.mean_hw_cycles_per_packet
    # transit packet = 3 (stack load) + 14 (search hit + swap) + 3 (drain)
    assert mean == 20.0
    feas = line_rate_feasibility(mean, packet_size_bytes=500,
                                 link_bps=10e6)
    rows = [
        ["mean cycles/packet (measured, transit)", mean],
        ["modifier capacity (pps)", int(feas.modifier_pps)],
        ["10 Mbps link demand (pps)", int(feas.link_pps)],
        ["modifier utilization at line rate", f"{feas.utilization:.2%}"],
        ["max saturable line rate", f"{feas.max_line_rate_bps / 1e6:.0f} Mbps"],
    ]
    emit(
        "hw_line_rate_measured",
        render_table(["metric", "value"], rows,
                     title="Hardware node keeping a 10 Mbps link busy "
                     "(small tables, 50 MHz)"),
    )
    emit_json(
        "hw_line_rate_measured",
        metric="mean_hw_cycles_per_packet",
        value=mean,
        units="cycles",
        seed=1,
        max_line_rate_mbps=round(feas.max_line_rate_bps / 1e6, 3),
    )
    assert feas.feasible


def test_line_rate_vs_table_size(benchmark):
    """Worst-case sustainable line rate collapses with table size --
    the linear search again, now expressed as link speed."""
    hw = HardwareCycleModel()

    def build():
        rows = []
        for n in (1, 16, 64, 256, 1024):
            cycles = hw.update_swap_worst(n) + 6  # + load/drain of 1 entry
            for size in (64, 500, 1500):
                feas = line_rate_feasibility(cycles, packet_size_bytes=size,
                                             link_bps=100e6)
                rows.append(
                    [n, size, cycles,
                     round(feas.max_line_rate_bps / 1e6, 1),
                     "yes" if feas.feasible else "no"]
                )
        return rows

    rows = benchmark(build)
    emit(
        "hw_line_rate_vs_table",
        render_series(
            "IB entries",
            ["packet B", "cycles/pkt", "max line rate Mbps",
             "sustains 100 Mbps?"],
            rows,
            title="Worst-case sustainable line rate vs table size "
            "(50 MHz modifier)",
        ),
    )
    # shape: with one entry the modifier outruns 100 Mbps even for
    # 64-byte packets; at 1024 entries it cannot sustain 10 Mbps
    first = [r for r in rows if r[0] == 1 and r[1] == 64][0]
    last = [r for r in rows if r[0] == 1024 and r[1] == 64][0]
    assert first[4] == "yes"
    assert last[3] < 10.0
    assert last[4] == "no"


def test_flow_cache_effect(benchmark):
    """The ingress flow cache: slow path once per destination, then
    pure hardware."""

    def run():
        net, src = _run_hw_network()
        ler = net.nodes["ler-a"]
        return ler.slow_path_packets, ler.fast_path_packets, src.sent

    slow, fast, sent = benchmark.pedantic(run, iterations=1, rounds=2)
    emit(
        "hw_flow_cache",
        render_table(
            ["metric", "value"],
            [["packets sent", sent],
             ["software slow-path classifications", slow],
             ["hardware fast-path packets", fast],
             ["cache hit rate", f"{fast / sent:.1%}"]],
            title="Level-1 flow cache at the ingress LER",
        ),
    )
    assert slow == 1
    assert fast == sent - 1
