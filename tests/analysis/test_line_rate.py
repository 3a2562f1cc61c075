"""Tests for line-rate feasibility analysis."""

import pytest

from repro.analysis.throughput import line_rate_feasibility


class TestLineRateFeasibility:
    def test_feasible_case(self):
        # 20 cycles/packet at 50 MHz = 2.5 Mpps; a 10 Mbps link of
        # 500-byte packets needs only 2500 pps
        feas = line_rate_feasibility(20, packet_size_bytes=500,
                                     link_bps=10e6)
        assert feas.feasible
        assert feas.modifier_pps == pytest.approx(2.5e6)
        assert feas.link_pps == pytest.approx(2500)
        assert feas.utilization == pytest.approx(0.001)

    def test_infeasible_case(self):
        # 3089 cycles/packet (n=1024 worst case) at 50 MHz ~ 16k pps;
        # 100 Mbps of 64-byte packets needs ~195k pps
        feas = line_rate_feasibility(3089, packet_size_bytes=64,
                                     link_bps=100e6)
        assert not feas.feasible
        assert feas.utilization > 1

    def test_max_line_rate(self):
        feas = line_rate_feasibility(20, packet_size_bytes=500,
                                     link_bps=10e6)
        assert feas.max_line_rate_bps == pytest.approx(2.5e6 * 4000)

    def test_validation(self):
        with pytest.raises(ValueError):
            line_rate_feasibility(0)
        with pytest.raises(ValueError):
            line_rate_feasibility(10, packet_size_bytes=0)
        with pytest.raises(ValueError):
            line_rate_feasibility(10, link_bps=0)
