"""End-to-end network benchmark: the Figure 1 domain under load, plus
the control-plane overhead comparison between the two label
distribution protocols the paper names (RSVP-TE and CR-LDP).

Reports delivered throughput, latency and loss across offered loads
(the congestion-avoidance story of Section 1), the traffic-engineering
effect of splitting load across the two core paths, and signalling
message counts.
"""

from benchmarks._util import emit, emit_json
from repro.analysis.report import render_series, render_table
from repro.control.ldp import LDPProcess
from repro.control.rsvp_te import CRLDPSignaler, RSVPTESignaler
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource

LINK_BPS = 10e6
DURATION = 0.5


def _network():
    topo = paper_figure1(bandwidth_bps=LINK_BPS, delay_s=1e-3)
    net = MPLSNetwork(
        topo, roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    )
    net.attach_host("ler-b", "10.2.0.0/16")
    return topo, net


def _offer(net, rate_bps, dst="10.2.0.9"):
    src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                    src="10.1.0.5", dst=dst, rate_bps=rate_bps,
                    packet_size=500, stop=DURATION)
    src.begin()
    return src


def test_throughput_vs_offered_load(benchmark):
    def sweep():
        rows = []
        for fraction in (0.2, 0.5, 0.8, 1.2, 1.6):
            topo, net = _network()
            LDPProcess(topo, net.nodes).establish_fec(
                PrefixFEC("10.2.0.0/16"), egress="ler-b"
            )
            src = _offer(net, fraction * LINK_BPS)
            net.run(until=DURATION + 1.0)
            delivered = net.delivered_count()
            latencies = net.latencies()
            rows.append(
                [
                    f"{fraction:.1f}",
                    src.sent,
                    delivered,
                    f"{100 * (1 - delivered / src.sent):.1f}%",
                    round(sum(latencies) / len(latencies) * 1e3, 2),
                    round(max(latencies) * 1e3, 2),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=2)
    emit(
        "network_e2e",
        render_series(
            "offered/capacity",
            ["sent", "delivered", "loss", "mean ms", "worst ms"],
            rows,
            title="Single LSP across Figure 1 vs offered load",
        ),
    )
    emit_json(
        "network_e2e",
        metric="mean_latency_below_capacity",
        value=rows[0][4],
        units="ms",
        seed=0,
        offered_fraction=0.2,
    )
    # shape: no loss below capacity; loss and latency blow up past it
    assert rows[0][3] == "0.0%"
    assert rows[1][3] == "0.0%"
    assert float(rows[-1][3].rstrip("%")) > 20
    assert rows[-1][4] > rows[0][4]


def test_te_load_splitting(benchmark):
    """Two explicit LSPs use both core paths; one IGP path cannot.
    'Avoiding congestion is paramount to successful traffic
    engineering.'"""

    def run(split):
        topo, net = _network()
        if split:
            sig = RSVPTESignaler(topo, net.nodes)
            sig.setup("upper", "ler-a", "ler-b",
                      explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
                      fec=PrefixFEC("10.2.0.0/24"))
            sig.setup("lower", "ler-a", "ler-b",
                      explicit_route=["ler-a", "lsr-1", "lsr-3", "ler-b"],
                      fec=PrefixFEC("10.2.1.0/24"))
        else:
            ldp = LDPProcess(topo, net.nodes)
            ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
        # widen the shared access link so the core is the bottleneck
        net.link("ler-a", "lsr-1").forward.bandwidth_bps = 4 * LINK_BPS
        a = _offer(net, 0.8 * LINK_BPS, dst="10.2.0.9")
        b = _offer(net, 0.8 * LINK_BPS, dst="10.2.1.9")
        net.run(until=DURATION + 1.0)
        sent = a.sent + b.sent
        return sent, net.delivered_count(), net.drop_count()

    def both():
        return {"igp only": run(False), "te split": run(True)}

    results = benchmark.pedantic(both, iterations=1, rounds=2)
    rows = [
        [name, sent, delivered, dropped,
         f"{100 * (1 - delivered / sent):.1f}%"]
        for name, (sent, delivered, dropped) in results.items()
    ]
    emit(
        "network_te_split",
        render_table(
            ["routing", "sent", "delivered", "dropped", "loss"],
            rows,
            title="1.6x core load: one IGP path vs TE split across both "
            "core paths",
        ),
    )
    igp_sent, igp_delivered, _ = results["igp only"]
    te_sent, te_delivered, te_dropped = results["te split"]
    assert igp_delivered < igp_sent  # congested on one path
    assert te_dropped == 0           # TE spreads the load: no loss


def test_signaling_overhead_rsvp_vs_crldp(benchmark):
    """RSVP-TE's soft state refreshes vs CR-LDP's hard state."""

    def run():
        topo, net = _network()
        route = ["ler-a", "lsr-1", "lsr-2", "ler-b"]
        rsvp = RSVPTESignaler(topo, net.nodes)
        rsvp.setup("r1", "ler-a", "ler-b", explicit_route=route)
        # one hour of 30-second refreshes
        for i in range(120):
            rsvp.refresh("r1", now=30.0 * i)
        rsvp.teardown("r1")

        crldp = CRLDPSignaler(topo, net.nodes)
        crldp.setup("c1", "ler-a", "ler-b", explicit_route=route)
        crldp.release("c1")
        return rsvp.stats, crldp.stats

    rsvp_stats, crldp_stats = benchmark(run)
    rsvp_total = (
        rsvp_stats.path_messages
        + rsvp_stats.resv_messages
        + rsvp_stats.refresh_messages
    )
    # Label Requests + Label Mappings + one Label Release per hop of the
    # 3-hop route
    crldp_total = (
        crldp_stats.path_messages
        + crldp_stats.resv_messages
        + crldp_stats.teardowns * 3
    )
    emit(
        "signaling_overhead",
        render_table(
            ["protocol", "setup msgs", "refresh msgs (1h)", "total msgs"],
            [
                ["RSVP-TE (soft state)",
                 rsvp_stats.path_messages + rsvp_stats.resv_messages,
                 rsvp_stats.refresh_messages, rsvp_total],
                ["CR-LDP (hard state)",
                 crldp_stats.path_messages + crldp_stats.resv_messages,
                 crldp_stats.refresh_messages, crldp_total],
            ],
            title="Control-plane message counts for one 3-hop LSP over an "
            "hour",
        ),
    )
    assert rsvp_total > 10 * crldp_total
