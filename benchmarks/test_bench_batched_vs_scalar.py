"""Batched fast path vs the scalar oracle: wall-clock throughput.

Two legs over the Figure 1 domain:

* **e2e load leg** -- the same below-capacity CBR demand as the e2e
  load benchmark, run once per mode.  The batched mode rides flow
  aggregates (one event per train per hop, flow-cache replay at each
  node) and must beat the per-packet scalar path by >= 5x.
* **100k-concurrent-flow leg** -- 100,000 distinct flows each send a
  16-packet train as one aggregate.  The scalar cost of the *same*
  demand is measured on a 5,000-flow subsample and scaled linearly
  (running all 100k flows packet-by-packet takes minutes by
  construction -- that ceiling is what the batched path removes).

The headline number lands in ``BENCH_batched_vs_scalar.json``;
behavioral equivalence between the modes is proven separately by
``tests/integration/test_batching_equivalence.py``.
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


def _e2e_leg(batching):
    net = _network(LINK_BPS)
    if batching:
        net.enable_batching()
        source = AggregateCBRSource(
            net.scheduler, net.aggregate_sink("ler-a"),
            src="10.1.0.5", dst="10.2.0.9", rate_bps=RATE_BPS,
            packet_size=500, batch=BATCH, stop=STOP,
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


def _scale_leg_batched():
    net = _network(SCALE_LINK_BPS)
    net.enable_batching()
    sink = net.aggregate_sink("ler-a")
    for i in range(FLOWS):
        aggregate = FlowAggregate(template=_flow_packet(i), count=TRAIN)
        net.scheduler.at(i * SPACING, lambda a=aggregate: sink(a))
    elapsed = _timed_run(net, until=FLOWS * SPACING + 1.0)
    assert net.drop_count() == 0
    assert net.delivered_count() == FLOWS * TRAIN
    return elapsed


def _scale_leg_scalar_sample():
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


def test_batched_vs_scalar(benchmark):
    def run():
        # a fresh, disabled telemetry: whatever an earlier test left on
        # the process default (a chaos run built and never finished
        # leaves it enabled, with sinks and a flow accountant attached)
        # would tax the legs unevenly
        with telemetry_session(enabled=False):
            scalar_sent, scalar_s = _e2e_leg(batching=False)
            batched_sent, batched_s = _e2e_leg(batching=True)
            assert batched_sent == scalar_sent
            e2e_speedup = scalar_s / batched_s

            sample_s = _scale_leg_scalar_sample()
            scalar_100k_est = sample_s * (FLOWS / SAMPLE_FLOWS)
            batched_100k = _scale_leg_batched()
        scale_speedup = scalar_100k_est / batched_100k
        return {
            "e2e": (scalar_sent, scalar_s, batched_s, e2e_speedup),
            "scale": (sample_s, scalar_100k_est, batched_100k,
                      scale_speedup),
        }

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    sent, scalar_s, batched_s, e2e_speedup = results["e2e"]
    sample_s, scalar_est, batched_100k, scale_speedup = results["scale"]
    packets = FLOWS * TRAIN
    emit(
        "batched_vs_scalar",
        render_table(
            ["leg", "packets", "scalar s", "batched s", "speedup"],
            [
                ["e2e CBR load", sent, f"{scalar_s:.3f}",
                 f"{batched_s:.3f}", f"{e2e_speedup:.1f}x"],
                [f"{FLOWS // 1000}k flows x {TRAIN}", packets,
                 f"{scalar_est:.1f} (est)", f"{batched_100k:.3f}",
                 f"{scale_speedup:.1f}x"],
            ],
            title="Batched fast path vs per-packet scalar oracle "
            "(wall clock)",
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
        scalar_sample_flows=SAMPLE_FLOWS,
        batched_pps=round(packets / batched_100k),
        e2e_speedup=round(e2e_speedup, 1),
    )
    assert e2e_speedup >= 5
    assert scale_speedup >= 5
