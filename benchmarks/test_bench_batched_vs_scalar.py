"""Trains vs per-packet traffic: wall-clock throughput.

Every node forwards through its flow cache, so both legs of each
comparison run the one data plane; what differs is how the demand is
offered.  Two comparisons over the Figure 1 domain:

* **e2e load leg** -- the same below-capacity CBR demand as the e2e
  load benchmark, offered once packet by packet and once as flow
  aggregates (one event per train per hop, one cache replay per train
  at each node).  Trains must beat packets by >= 5x.
* **100k-concurrent-flow leg** -- 100,000 distinct flows each send a
  16-packet train as one aggregate.  The per-packet cost of the *same*
  demand is measured on a 5,000-flow subsample and scaled linearly
  (running all 100k flows packet by packet takes minutes by
  construction -- that ceiling is what trains remove).

The headline number lands in ``BENCH_batched_vs_scalar.json``; that
trains count exactly what their packets would is proven separately by
``tests/integration/test_train_equivalence.py``.
"""

import time

from benchmarks._util import emit, emit_json
from repro.analysis.report import render_table
from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.aggregate import AggregateCBRSource, FlowAggregate
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource
from repro.obs import telemetry_session

# e2e load leg: same shape as test_bench_network_e2e
LINK_BPS = 100e6
RATE_BPS = 40e6
STOP = 0.5
BATCH = 64

# 100k-flow leg
FLOWS = 100_000
TRAIN = 16
SAMPLE_FLOWS = 5_000
SPACING = 2e-6  # flow start spacing; keeps every queue depth bounded
SCALE_LINK_BPS = 1e11


def _network(bandwidth_bps):
    topo = paper_figure1(bandwidth_bps=bandwidth_bps, delay_s=1e-3)
    net = MPLSNetwork(
        topo, roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    )
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topo, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    return net


def _timed_run(net, until):
    start = time.perf_counter()
    net.run(until=until)
    return time.perf_counter() - start


def _e2e_leg(trains):
    net = _network(LINK_BPS)
    if trains:
        source = AggregateCBRSource(
            net.scheduler, net.aggregate_sink("ler-a"),
            src="10.1.0.5", dst="10.2.0.9", rate_bps=RATE_BPS,
            batch=BATCH, stop=STOP,
        )
    else:
        source = CBRSource(
            net.scheduler, net.source_sink("ler-a"),
            src="10.1.0.5", dst="10.2.0.9", rate_bps=RATE_BPS,
            packet_size=500, stop=STOP,
        )
    source.begin()
    elapsed = _timed_run(net, until=STOP + 1.0)
    assert net.drop_count() == 0
    assert net.delivered_count() == source.sent
    return source.sent, elapsed


def _flow_packet(i, seq=0):
    return IPv4Packet(
        src="10.1.0.5",
        dst=f"10.2.{(i >> 8) & 0xFF}.{i & 0xFF}",
        ttl=64,
        payload=bytes(500),
        flow_id=i,
        seq=seq,
        created_at=i * SPACING,
    )


def _scale_leg_trains():
    net = _network(SCALE_LINK_BPS)
    sink = net.aggregate_sink("ler-a")
    for i in range(FLOWS):
        aggregate = FlowAggregate(template=_flow_packet(i), count=TRAIN)
        net.scheduler.at(i * SPACING, lambda a=aggregate: sink(a))
    elapsed = _timed_run(net, until=FLOWS * SPACING + 1.0)
    assert net.drop_count() == 0
    assert net.delivered_count() == FLOWS * TRAIN
    return elapsed


def _scale_leg_packet_sample():
    net = _network(SCALE_LINK_BPS)
    sink = net.source_sink("ler-a")
    for i in range(SAMPLE_FLOWS):
        train = [_flow_packet(i, seq=j) for j in range(TRAIN)]
        net.scheduler.at(
            i * SPACING, lambda ps=train: [sink(p) for p in ps]
        )
    elapsed = _timed_run(net, until=SAMPLE_FLOWS * SPACING + 1.0)
    assert net.drop_count() == 0
    assert net.delivered_count() == SAMPLE_FLOWS * TRAIN
    return elapsed


def test_trains_vs_packets(benchmark):
    def run():
        # a fresh, disabled telemetry: whatever an earlier test left on
        # the process default (a chaos run built and never finished
        # leaves it enabled, with sinks and a flow accountant attached)
        # would tax the legs unevenly
        with telemetry_session(enabled=False):
            packet_sent, packet_s = _e2e_leg(trains=False)
            train_sent, train_s = _e2e_leg(trains=True)
            assert train_sent == packet_sent
            e2e_speedup = packet_s / train_s

            sample_s = _scale_leg_packet_sample()
            packet_100k_est = sample_s * (FLOWS / SAMPLE_FLOWS)
            train_100k = _scale_leg_trains()
        scale_speedup = packet_100k_est / train_100k
        return {
            "e2e": (packet_sent, packet_s, train_s, e2e_speedup),
            "scale": (sample_s, packet_100k_est, train_100k,
                      scale_speedup),
        }

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    sent, packet_s, train_s, e2e_speedup = results["e2e"]
    sample_s, packet_est, train_100k, scale_speedup = results["scale"]
    packets = FLOWS * TRAIN
    emit(
        "batched_vs_scalar",
        render_table(
            ["leg", "packets", "per-packet s", "trains s", "speedup"],
            [
                ["e2e CBR load", sent, f"{packet_s:.3f}",
                 f"{train_s:.3f}", f"{e2e_speedup:.1f}x"],
                [f"{FLOWS // 1000}k flows x {TRAIN}", packets,
                 f"{packet_est:.1f} (est)", f"{train_100k:.3f}",
                 f"{scale_speedup:.1f}x"],
            ],
            title="Trains vs per-packet traffic, both through the flow "
            "caches (wall clock)",
        ),
    )
    emit_json(
        "batched_vs_scalar",
        metric="speedup_at_100k_flows",
        value=round(scale_speedup, 1),
        units="x",
        seed=None,
        concurrent_flows=FLOWS,
        train_length=TRAIN,
        packet_sample_flows=SAMPLE_FLOWS,
        train_pps=round(packets / train_100k),
        e2e_speedup=round(e2e_speedup, 1),
    )
    assert e2e_speedup >= 5
    assert scale_speedup >= 5
