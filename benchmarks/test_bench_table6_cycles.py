"""Reproduces **Table 6**: processing times for different tasks.

Paper rows (worst-case clock cycles):

    Reset                              3
    push from the user                 3
    pop from the user                  3
    Write label pair                   3
    Search information base            3n + 5
    swap from the information base     6

The benchmark measures every row on the cycle-accurate RTL and asserts
exact agreement; the pytest-benchmark timing shows the simulator's wall
cost for the headline composite.
"""

from benchmarks._util import emit, emit_json
from repro.analysis.cycles import measure_table6
from repro.analysis.report import render_table
from repro.hw.driver import ModifierDriver
from repro.mpls.label import LabelEntry, LabelOp

PAPER_ROWS = {
    "Reset": 3,
    "Push entry from the user": 3,
    "Pop entry from the user": 3,
    "Write label pair": 3,
}


def test_table6_measured_on_rtl(benchmark):
    rows = benchmark.pedantic(measure_table6, iterations=1, rounds=3)
    table = render_table(
        ["operation", "paper formula", "paper/expected", "measured (RTL)"],
        [[r.operation, r.formula, r.expected, r.measured] for r in rows],
        title="Table 6 -- processing times in worst-case clock cycles",
    )
    emit("table6_cycles", table)
    emit_json(
        "table6_cycles",
        metric="rows_matching_paper",
        value=sum(1 for r in rows if r.matches),
        units="rows",
        total_rows=len(rows),
    )
    for row in rows:
        assert row.matches, f"{row.operation}: {row.expected} != {row.measured}"
    measured = {r.operation: r.measured for r in rows}
    for op, expected in PAPER_ROWS.items():
        assert measured[op] == expected


def test_table6_search_formula_sweep(benchmark):
    """3n + 5 across a size sweep, measured on the RTL."""

    def sweep():
        drv = ModifierDriver(ib_depth=256)
        out = []
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            drv.reset()
            for i in range(n):
                drv.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
            result = drv.search(2, 0xFFFFF)  # miss: full scan
            out.append((n, result.cycles, 3 * n + 5))
        return out

    points = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = render_table(
        ["n (stored pairs)", "measured cycles", "3n + 5"],
        points,
        title="Table 6 search row: measured vs formula",
    )
    emit("table6_search_sweep", table)
    emit_json(
        "table6_search_sweep",
        metric="miss_search_cycles_at_256_pairs",
        value=points[-1][1],
        units="cycles",
    )
    for n, measured, formula in points:
        assert measured == formula


def test_table6_swap_tail_is_6(benchmark):
    """The 'swap from the information base' row, measured as the
    update's cost beyond its search."""

    def run():
        drv = ModifierDriver(ib_depth=64)
        drv.reset()
        drv.write_pair(1, 100, 200, LabelOp.SWAP)
        drv.user_push(LabelEntry(label=100, ttl=9, s=1))
        update = drv.update()
        search_hit_cost = 3 * 0 + 8
        return update.cycles - search_hit_cost

    tail = benchmark.pedantic(run, iterations=1, rounds=3)
    assert tail == 6
