"""Tests for the analysis helpers."""

import pytest

from repro.analysis.cycles import SEARCH_SIZES, measure_table6
from repro.analysis.report import render_series, render_table
from repro.analysis.throughput import estimate_throughput
from repro.hw.driver import ModifierDriver


class TestMeasureTable6:
    def test_every_row_matches_formula(self):
        rows = measure_table6(driver=ModifierDriver(ib_depth=128))
        assert rows, "no measurements returned"
        for row in rows:
            assert row.matches, f"{row.operation}: {row.expected} != {row.measured}"

    def test_row_structure(self):
        rows = measure_table6(driver=ModifierDriver(ib_depth=128))
        names = [r.operation for r in rows]
        assert "Reset" in names
        assert [n for n in names if "Search" in n] == [
            f"Search information base (n={n})" for n in SEARCH_SIZES]
        assert any("Swap" in n for n in names)


class TestThroughput:
    def test_worst_case_rate(self):
        est = estimate_throughput(n_entries=1)
        assert est.cycles_per_packet == 14
        assert est.packets_per_second == pytest.approx(50e6 / 14)
        assert est.mbps == pytest.approx(est.packets_per_second * 4000 / 1e6)

    def test_average_case_is_faster(self):
        worst = estimate_throughput(n_entries=1000)
        avg = estimate_throughput(n_entries=1000, average_case=True)
        assert avg.packets_per_second > worst.packets_per_second

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_throughput(n_entries=0)


class TestReport:
    def test_render_table(self):
        text = render_table(
            ["op", "cycles"],
            [["reset", 3], ["push", 3]],
            title="Table 6",
        )
        assert "Table 6" in text
        assert "reset" in text and "push" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, separator, 2 rows

    def test_render_empty_table(self):
        text = render_table(["a", "b"], [])
        assert "a" in text

    def test_float_formatting(self):
        text = render_table(["x"], [[0.000123456], [1234567.0], [0.5], [0.0]])
        assert "1.235e-04" in text
        assert "1.235e+06" in text
        assert "0.5" in text

    def test_render_series(self):
        text = render_series("n", ["hw", "sw"], [[1, 2, 3], [10, 20, 30]])
        assert "n" in text and "hw" in text
