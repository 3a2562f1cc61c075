"""Unit tests for datapath primitives: memory, counter, register, mux,
comparator."""

import pytest

from repro.hdl.comparator import EqualityComparator
from repro.hdl.counter import Counter
from repro.hdl.memory import SyncMemory
from repro.hdl.register import Register
from repro.hdl.signal import WidthError
from repro.hdl.simulator import Component, Simulator


class _Driver(Component):
    """Drives arbitrary wires to scripted values during settle."""

    def __init__(self, sim):
        super().__init__(sim, "drv")
        self.values = {}

    def set(self, wire, value):
        self.values[wire] = value

    def settle(self):
        for wire, value in self.values.items():
            wire.drive(value)


class TestSyncMemory:
    def test_write_then_registered_read(self):
        sim = Simulator()
        drv = _Driver(sim)
        mem = SyncMemory(sim, "mem", depth=16, width=8)
        drv.set(mem.wr_en, 1)
        drv.set(mem.wr_addr, 3)
        drv.set(mem.wr_data, 99)
        drv.set(mem.rd_addr, 3)
        sim.step()  # write lands, read of addr 3 sampled (pre-write data irrelevant)
        drv.set(mem.wr_en, 0)
        sim.step()  # rd_data now reflects addr 3
        assert mem.rd_data.value == 99

    def test_read_latency_is_one_cycle(self):
        sim = Simulator()
        drv = _Driver(sim)
        mem = SyncMemory(sim, "mem", depth=4, width=8)
        mem.poke(2, 42)
        drv.set(mem.rd_addr, 2)
        assert mem.rd_data.value == 0  # before any edge
        sim.step()
        assert mem.rd_data.value == 42

    def test_write_disabled_does_not_write(self):
        sim = Simulator()
        drv = _Driver(sim)
        mem = SyncMemory(sim, "mem", depth=4, width=8)
        drv.set(mem.wr_en, 0)
        drv.set(mem.wr_addr, 1)
        drv.set(mem.wr_data, 7)
        sim.step()
        assert mem.peek(1) == 0

    def test_reset_clears_array(self):
        sim = Simulator()
        mem = SyncMemory(sim, "mem", depth=4, width=8)
        mem.poke(0, 5)
        sim.reset()
        assert mem.peek(0) == 0

    def test_poke_width_checked(self):
        sim = Simulator()
        mem = SyncMemory(sim, "mem", depth=4, width=4)
        with pytest.raises(WidthError):
            mem.poke(0, 16)

    def test_depth_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SyncMemory(sim, "mem", depth=0, width=8)


class TestCounter:
    def _mk(self):
        sim = Simulator()
        drv = _Driver(sim)
        ctr = Counter(sim, "ctr", width=4)
        return sim, drv, ctr

    def test_count_up(self):
        sim, drv, ctr = self._mk()
        drv.set(ctr.en, 1)
        sim.step(3)
        assert ctr.count.value == 3

    def test_count_down_wraps(self):
        sim, drv, ctr = self._mk()
        drv.set(ctr.en, 1)
        drv.set(ctr.down, 1)
        sim.step()
        assert ctr.count.value == 15

    def test_load_wins_over_enable(self):
        sim, drv, ctr = self._mk()
        drv.set(ctr.en, 1)
        drv.set(ctr.load, 1)
        drv.set(ctr.load_value, 9)
        sim.step()
        assert ctr.count.value == 9

    def test_clear_wins_over_load(self):
        sim, drv, ctr = self._mk()
        drv.set(ctr.load, 1)
        drv.set(ctr.load_value, 9)
        drv.set(ctr.clear, 1)
        sim.step()
        assert ctr.count.value == 0

    def test_hold_when_idle(self):
        sim, drv, ctr = self._mk()
        drv.set(ctr.load, 1)
        drv.set(ctr.load_value, 5)
        sim.step()
        drv.set(ctr.load, 0)
        sim.step(4)
        assert ctr.count.value == 5

    def test_wrap_up(self):
        sim, drv, ctr = self._mk()
        drv.set(ctr.load, 1)
        drv.set(ctr.load_value, 15)
        sim.step()
        drv.set(ctr.load, 0)
        drv.set(ctr.en, 1)
        sim.step()
        assert ctr.count.value == 0


class TestRegister:
    def test_capture_on_enable(self):
        sim = Simulator()
        drv = _Driver(sim)
        r = Register(sim, "r", width=8)
        drv.set(r.d, 77)
        drv.set(r.en, 1)
        sim.step()
        assert r.q.value == 77

    def test_hold_without_enable(self):
        sim = Simulator()
        drv = _Driver(sim)
        r = Register(sim, "r", width=8)
        drv.set(r.d, 77)
        drv.set(r.en, 1)
        sim.step()
        drv.set(r.en, 0)
        drv.set(r.d, 1)
        sim.step(3)
        assert r.q.value == 77

    def test_clear(self):
        sim = Simulator()
        drv = _Driver(sim)
        r = Register(sim, "r", width=8)
        drv.set(r.d, 77)
        drv.set(r.en, 1)
        sim.step()
        drv.set(r.clear, 1)
        sim.step()
        assert r.q.value == 0


class TestComparator:
    def test_equal(self):
        sim = Simulator()
        drv = _Driver(sim)
        cmp32 = EqualityComparator(sim, "cmp", width=32)
        drv.set(cmp32.a, 123456)
        drv.set(cmp32.b, 123456)
        sim.settle_only()
        assert cmp32.eq.value == 1

    def test_not_equal(self):
        sim = Simulator()
        drv = _Driver(sim)
        c = EqualityComparator(sim, "cmp", width=20)
        drv.set(c.a, 5)
        drv.set(c.b, 6)
        sim.settle_only()
        assert c.eq.value == 0
