"""Ablation: the linear information-base search.

"Preliminary results indicate that information can be retrieved from
the information base in linear time and other operations are done in
constant time."  This bench measures that linearity on the RTL (exact
3n + 5), shows the per-packet latency/throughput consequences across
table sizes at the 50 MHz clock, and compares against a hash-based
lookup -- the design alternative the paper's linear-scan memory
architecture trades away.
"""

from benchmarks._util import emit, emit_json
from repro.analysis.report import render_series
from repro.analysis.throughput import estimate_throughput
from repro.core.timing import SoftwareCostModel
from repro.hw.driver import ModifierDriver
from repro.mpls.label import LabelOp

RTL_SIZES = (1, 8, 64, 256)
MODEL_SIZES = (1, 8, 64, 256, 1024)


def test_search_is_linear_on_rtl(benchmark):
    def sweep():
        drv = ModifierDriver(ib_depth=max(RTL_SIZES))
        points = []
        for n in RTL_SIZES:
            drv.reset()
            for i in range(n):
                drv.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
            result = drv.search(2, 0xFFFFF)
            points.append((n, result.cycles))
        return points

    points = benchmark.pedantic(sweep, iterations=1, rounds=2)
    # exact linearity: consecutive differences are 3 * delta_n
    for (n1, c1), (n2, c2) in zip(points, points[1:]):
        assert c2 - c1 == 3 * (n2 - n1)
    emit(
        "search_scaling_rtl",
        render_series(
            "n", ["measured cycles", "3n+5"],
            [[n, c, 3 * n + 5] for n, c in points],
            title="Linear-time search on the RTL",
        ),
    )
    emit_json(
        "search_scaling_rtl",
        metric="miss_search_cycles_at_256_entries",
        value=points[-1][1],
        units="cycles",
    )


def test_search_latency_and_throughput_consequences(benchmark):
    def build():
        rows = []
        for n in MODEL_SIZES:
            worst = estimate_throughput(n)
            avg = estimate_throughput(n, average_case=True)
            rows.append(
                [
                    n,
                    worst.cycles_per_packet,
                    round(worst.cycles_per_packet / 50e6 * 1e6, 2),
                    int(worst.packets_per_second),
                    round(worst.mbps, 1),
                    int(avg.packets_per_second),
                ]
            )
        return rows

    rows = benchmark(build)
    emit(
        "search_scaling_throughput",
        render_series(
            "n",
            [
                "worst cycles/pkt",
                "worst us/pkt",
                "worst pps",
                "worst Mbps (500B)",
                "avg-case pps",
            ],
            rows,
            title="Label-switching throughput vs information-base size "
            "(50 MHz clock)",
        ),
    )
    emit_json(
        "search_scaling_throughput",
        metric="worst_case_pps_at_1024_entries",
        value=rows[-1][3],
        units="packets/s",
        avg_case_pps=rows[-1][5],
    )
    # the shape: throughput collapses roughly as 1/n for large tables
    pps = [row[3] for row in rows]
    assert pps == sorted(pps, reverse=True)
    assert pps[0] / pps[-1] > 100  # n=1 vs n=1024: >100x


def test_linear_vs_hashed_lookup_crossover(benchmark):
    """Where would a hash-based information base overtake the linear
    one?  (The paper's future-work territory; both priced in cycles at
    the same 50 MHz clock.)"""
    sw = SoftwareCostModel(clock_hz=50e6)

    def build():
        from repro.core.timing import HardwareCycleModel

        hw = HardwareCycleModel()
        rows = []
        crossover = None
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            linear = hw.update_swap_worst(n)
            hashed = sw.per_hash_lookup + sw.per_stack_op + sw.per_ttl_update
            rows.append([n, linear, hashed])
            if crossover is None and hashed < linear:
                crossover = n
        return rows, crossover

    rows, crossover = benchmark(build)
    emit(
        "search_linear_vs_hash",
        render_series(
            "n",
            ["linear IB cycles", "hashed lookup cycles"],
            rows,
            title=f"Linear vs hashed lookup (crossover at n={crossover})",
        ),
    )
    emit_json(
        "search_linear_vs_hash",
        metric="crossover_entries",
        value=crossover,
        units="entries",
    )
    assert crossover is not None and crossover <= 64
