"""Ablation: hardware vs software label switching.

The paper's premise ("most existing MPLS solutions are entirely
software based.  MPLS performance can be enhanced by executing core
tasks in hardware") quantified: the same worst-case per-packet label
swap priced under

* the Table 6 hardware model at the paper's 50 MHz FPGA clock,
* a software forwarding loop with a linear table scan on a 200 MHz
  embedded CPU (the era-appropriate comparison),
* the same software with a hash-based lookup (the common optimization).

Expected shape: hardware wins clearly at small-to-moderate table sizes
and for every constant-time operation; the hardware's *linear* search
is its scaling weakness, so hashed software overtakes it at large
tables -- reported honestly, with the crossover.
"""

from benchmarks._util import emit, emit_json
from repro.analysis.report import render_table
from repro.core.hybrid import TABLE_SIZES, compare_partitions
from repro.core.timing import SoftwareCostModel
from repro.hw.model import FunctionalModifier
from repro.mpls.forwarding import ForwardingEngine
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket

SIZES = TABLE_SIZES


def test_partition_comparison_table(benchmark):
    cmp = benchmark(compare_partitions)
    rows = []
    for p in cmp.points:
        rows.append(
            [
                p.n_entries,
                p.hw_cycles,
                round(p.hw_seconds * 1e6, 2),
                round(p.sw_seconds * 1e6, 2),
                round(p.sw_hashed_seconds * 1e6, 2),
                f"{p.speedup_vs_linear_sw:.1f}x",
                f"{p.speedup_vs_hashed_sw:.2f}x",
            ]
        )
    table = render_table(
        [
            "IB entries",
            "hw cycles",
            "hw us (50MHz)",
            "sw-linear us (200MHz)",
            "sw-hash us (200MHz)",
            "hw speedup vs linear",
            "hw speedup vs hash",
        ],
        rows,
        title="Hardware vs software label swap (worst case per packet)",
    )
    crossover = cmp.crossover_entries()
    table += (
        f"\nhashed-software crossover at n = {crossover} entries "
        "(the hardware's linear search is the scaling bottleneck; "
        "constant-time ops always favour hardware)"
    )
    emit("hw_vs_sw_partition", table)
    emit_json(
        "hw_vs_sw_partition",
        metric="hashed_sw_crossover",
        value=crossover,
        units="entries",
        speedup_vs_linear_at_1=round(cmp.points[0].speedup_vs_linear_sw, 2),
    )

    # shape assertions: hw wins small tables vs linear sw by a clear margin
    assert cmp.points[0].speedup_vs_linear_sw > 2
    # speedup decays as the linear search dominates
    speedups = [p.speedup_vs_linear_sw for p in cmp.points]
    assert speedups == sorted(speedups, reverse=True)


def test_same_clock_comparison(benchmark):
    """Normalize the clocks: cycles per packet is the architecture
    comparison the paper implies (its FPGA vs a same-speed CPU)."""
    sw = SoftwareCostModel(clock_hz=50e6)

    def build():
        rows = []
        from repro.core.timing import HardwareCycleModel

        hw = HardwareCycleModel()
        for n in SIZES:
            hw_c = hw.update_swap_worst(n)
            sw_c = sw.per_packet_swap_cycles(n)
            rows.append([n, hw_c, sw_c, f"{sw_c / hw_c:.1f}x"])
        return rows

    rows = benchmark(build)
    emit(
        "hw_vs_sw_same_clock",
        render_table(
            ["IB entries", "hw cycles", "sw cycles", "hw advantage"],
            rows,
            title="Cycles per worst-case swap at identical clock rates",
        ),
    )
    emit_json(
        "hw_vs_sw_same_clock",
        metric="sw_over_hw_cycle_ratio_at_64_entries",
        value=round(rows[3][2] / rows[3][1], 2),
        units="ratio",
    )
    # at the same clock the dedicated datapath always wins: 3 cycles
    # per scanned entry vs a dozen instructions per entry in software
    for n, hw_c, sw_c, _ in rows:
        assert sw_c > hw_c


def test_constant_ops_throughput(benchmark):
    """Constant-time operations (push/pop/write): hardware does each in
    3 cycles = 60 ns; measure the functional model's agreement and the
    software engine's realized per-packet op counts on live packets."""
    engine = ForwardingEngine(node_name="sw")
    engine.ilm.install(100, NHLFE(op=LabelOp.SWAP, out_label=200, next_hop="x"))
    packet = MPLSPacket(
        LabelStack([LabelEntry(label=100, ttl=64)]),
        IPv4Packet(src="1.1.1.1", dst="2.2.2.2"),
    )

    def sw_swap_batch():
        for _ in range(1000):
            engine.transit(packet)
        return engine.counts

    counts = benchmark(sw_swap_batch)
    model = FunctionalModifier()
    hw_cycles = model.user_push(LabelEntry(label=1000))
    assert hw_cycles == 3
    assert counts.swaps >= 1000
