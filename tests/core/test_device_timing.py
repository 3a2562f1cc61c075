"""Tests for the device model and the analytic cycle models."""

import pytest

from repro.core.device import FPGADevice, STRATIX_EP1S40
from repro.core.timing import (
    HardwareCycleModel,
    SoftwareCostModel,
    worst_case_scenario,
)
from repro.mpls.forwarding import OpCounts


class TestFPGADevice:
    def test_paper_device(self):
        assert STRATIX_EP1S40.clock_hz == 50e6
        assert STRATIX_EP1S40.cycle_time_s == pytest.approx(20e-9)

    def test_time_for_cycles(self):
        assert STRATIX_EP1S40.time_for_cycles(50_000_000) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            STRATIX_EP1S40.time_for_cycles(-1)

    def test_info_base_fits_the_paper_device(self):
        """'The total memory use is easily supported by standard
        reconfigurable computing environments.'"""
        assert STRATIX_EP1S40.fits_info_base()
        assert STRATIX_EP1S40.memory_utilization() < 0.1

    def test_info_base_bits(self):
        # level 1: 1024*(32+20+2); levels 2-3: 2*1024*(20+20+2)
        expected = 1024 * 54 + 2 * 1024 * 42
        assert STRATIX_EP1S40.info_base_bits() == expected

    def test_tiny_device_does_not_fit(self):
        tiny = FPGADevice("tiny", clock_hz=50e6, memory_bits=1000,
                          logic_elements=100)
        assert not tiny.fits_info_base()

    def test_validation(self):
        with pytest.raises(ValueError):
            FPGADevice("bad", clock_hz=0, memory_bits=1, logic_elements=1)


class TestHardwareCycleModel:
    def test_table6_constants(self):
        hw = HardwareCycleModel()
        assert hw.reset == 3
        assert hw.user_push == 3
        assert hw.user_pop == 3
        assert hw.write_pair == 3

    def test_search_formulas(self):
        hw = HardwareCycleModel()
        assert hw.search_hit(0) == 8
        assert hw.search_hit(1023) == 3077

    def test_update_costs(self):
        hw = HardwareCycleModel()
        assert hw.update_swap_worst(1024) == 3083
        assert hw.seconds(hw.update_swap_worst(1)) == pytest.approx(14 / 50e6)


class TestWorstCaseScenario:
    def test_paper_total_is_6167(self):
        wc = worst_case_scenario()
        assert wc.total == 6167
        assert (wc.reset, wc.pushes, wc.writes, wc.search, wc.swap) == (
            3,
            9,
            3072,
            3077,
            6,
        )

    def test_paper_time_is_0p1233_ms(self):
        wc = worst_case_scenario()
        assert wc.seconds * 1e3 == pytest.approx(0.12334, rel=1e-3)

    def test_rows(self):
        rows = worst_case_scenario().as_rows()
        assert rows[-1] == ("total", 6167)


class TestSoftwareCostModel:
    def test_linear_scan_scales_with_entries(self):
        sw = SoftwareCostModel()
        small = sw.per_packet_swap_cycles(10)
        big = sw.per_packet_swap_cycles(1000)
        assert big > small
        assert big - small == 990 * sw.per_entry_scan

    def test_hashed_is_flat(self):
        sw = SoftwareCostModel()
        assert sw.per_packet_swap_cycles(10, hashed=True) == (
            sw.per_packet_swap_cycles(100_000, hashed=True)
        )

    def test_counts_pricing(self):
        sw = SoftwareCostModel()
        counts = OpCounts(ilm_lookups=1, entries_scanned=5, swaps=1,
                          ttl_updates=1)
        expected = (
            sw.per_packet_overhead
            + 5 * sw.per_entry_scan
            + sw.per_stack_op
            + sw.per_ttl_update
        )
        assert sw.cycles_for_counts(counts) == expected
