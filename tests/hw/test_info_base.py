"""Tests for the three-level information base."""

import pytest

from repro.hdl.simulator import Component, Simulator
from repro.hw.info_base import (
    LEVEL1_INDEX_WIDTH,
    LABEL_INDEX_WIDTH,
    LEVEL_DEPTH,
    InfoBase,
    InfoBaseLevel,
)


class _Driver(Component):
    def __init__(self, sim):
        super().__init__(sim, "drv")
        self.values = {}

    def set(self, wire, value):
        self.values[wire] = value

    def settle(self):
        for wire, value in self.values.items():
            wire.drive(value)


def _level(depth=8, index_width=20):
    sim = Simulator()
    drv = _Driver(sim)
    level = InfoBaseLevel(sim, "lvl", index_width, depth)
    return sim, drv, level


class TestInfoBaseLevel:
    def test_write_appends_at_w_index(self):
        sim, drv, level = _level()
        for i in range(3):
            drv.set(level.wr_en, 1)
            drv.set(level.wr_index, 100 + i)
            drv.set(level.wr_label, 500 + i)
            drv.set(level.wr_op, (i % 3) + 1)
            sim.step()
        drv.values.clear()
        assert level.count == 3
        assert level.dump_pairs() == [
            (100, 500, 1),
            (101, 501, 2),
            (102, 502, 3),
        ]

    def test_w_index_increments_like_figure14(self):
        """Fig 14: 'w_index increments ... indicating the label pairs
        are being properly stored and not overwritten'."""
        sim, drv, level = _level()
        observed = []
        drv.set(level.wr_en, 1)
        drv.set(level.wr_index, 1)
        drv.set(level.wr_label, 1)
        for _ in range(5):
            sim.step()
            observed.append(level.write_counter.count.value)
        assert observed == [1, 2, 3, 4, 5]

    def test_registered_read(self):
        sim, drv, level = _level()
        level.index_mem.poke(2, 42)
        level.label_mem.poke(2, 999)
        level.op_mem.poke(2, 2)
        level.read_counter.count.stage(2)
        level.read_counter.count.commit()
        sim.step()  # registered read latency
        assert level.rd_index == 42
        assert level.rd_label == 999
        assert level.rd_op == 2

    def test_overflow_flag(self):
        sim, drv, level = _level(depth=2)
        drv.set(level.wr_en, 1)
        drv.set(level.wr_index, 1)
        drv.set(level.wr_label, 1)
        sim.step(3)
        assert level.count == 2
        assert level.overflow.value == 1
        assert len(level.dump_pairs()) == 2

    def test_no_write_without_enable(self):
        sim, drv, level = _level()
        drv.set(level.wr_en, 0)
        drv.set(level.wr_index, 9)
        sim.step(2)
        assert level.count == 0

    def test_reset_clears_count(self):
        sim, drv, level = _level()
        drv.set(level.wr_en, 1)
        drv.set(level.wr_index, 1)
        drv.set(level.wr_label, 1)
        sim.step(2)
        drv.values.clear()
        sim.reset()
        assert level.count == 0
        assert level.dump_pairs() == []


class TestInfoBase:
    def test_three_levels_with_paper_widths(self):
        sim = Simulator()
        ib = InfoBase(sim, "ib", depth=4)
        assert ib.level(1).index_width == LEVEL1_INDEX_WIDTH  # 32-bit packet id
        assert ib.level(2).index_width == LABEL_INDEX_WIDTH   # 20-bit label
        assert ib.level(3).index_width == LABEL_INDEX_WIDTH

    def test_default_depth_is_1k(self):
        """'Each memory component supports 1 KB of label pairs.'"""
        assert LEVEL_DEPTH == 1024

    def test_level_lookup_validation(self):
        sim = Simulator()
        ib = InfoBase(sim, "ib", depth=4)
        with pytest.raises(ValueError):
            ib.level(0)
        with pytest.raises(ValueError):
            ib.level(4)

    def test_levels_are_independent(self):
        sim = Simulator()
        drv = _Driver(sim)
        ib = InfoBase(sim, "ib", depth=4)
        drv.set(ib.level(2).wr_en, 1)
        drv.set(ib.level(2).wr_index, 7)
        drv.set(ib.level(2).wr_label, 8)
        sim.step()
        assert ib.counts() == (0, 1, 0)

    def test_any_overflow(self):
        sim = Simulator()
        drv = _Driver(sim)
        ib = InfoBase(sim, "ib", depth=1)
        assert not any(level.overflow.value for level in ib.levels)
        drv.set(ib.level(3).wr_en, 1)
        drv.set(ib.level(3).wr_index, 1)
        drv.set(ib.level(3).wr_label, 1)
        sim.step(2)
        assert ib.level(3).overflow.value
