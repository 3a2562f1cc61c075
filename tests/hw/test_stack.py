"""Tests for the hardware label stack."""


from repro.hdl.simulator import Component, Simulator
from repro.hw.opcodes import StackOp
from repro.hw.stack import STACK_CAPACITY, HardwareStack


class _Driver(Component):
    def __init__(self, sim):
        super().__init__(sim, "drv")
        self.values = {}

    def set(self, wire, value):
        self.values[wire] = value

    def settle(self):
        for wire, value in self.values.items():
            wire.drive(value)


def _mk():
    sim = Simulator()
    drv = _Driver(sim)
    stack = HardwareStack(sim, "stk")
    return sim, drv, stack


class TestHardwareStack:
    def test_push_updates_top_and_size(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.PUSH)
        drv.set(stack.data_in, 0xABCD)
        sim.step()
        assert stack.top.value == 0xABCD
        assert stack.size.value == 1

    def test_lifo_order(self):
        sim, drv, stack = _mk()
        for word in (1, 2, 3):
            drv.set(stack.op, StackOp.PUSH)
            drv.set(stack.data_in, word)
            sim.step()
        assert stack.entries_top_first() == [3, 2, 1]
        drv.set(stack.op, StackOp.POP)
        sim.step()
        assert stack.top.value == 2

    def test_hold_is_default(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.PUSH)
        drv.set(stack.data_in, 7)
        sim.step()
        drv.set(stack.op, StackOp.HOLD)
        sim.step(3)
        assert stack.size.value == 1

    def test_clear(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.PUSH)
        drv.set(stack.data_in, 7)
        sim.step()
        drv.set(stack.op, StackOp.CLEAR)
        sim.step()
        assert stack.size.value == 0
        assert stack.top.value == 0

    def test_write_top(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.PUSH)
        drv.set(stack.data_in, 7)
        sim.step()
        drv.set(stack.op, StackOp.WRITE_TOP)
        drv.set(stack.data_in, 99)
        sim.step()
        assert stack.top.value == 99
        assert stack.size.value == 1

    def test_pop_empty_sets_error(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.POP)
        sim.step()
        assert stack.error.value == 1
        assert stack.size.value == 0

    def test_push_full_sets_error_and_drops(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.PUSH)
        for word in range(1, STACK_CAPACITY + 2):
            drv.set(stack.data_in, word)
            sim.step()
        assert stack.size.value == STACK_CAPACITY
        assert stack.error.value == 1
        assert stack.entries_top_first() == list(range(STACK_CAPACITY, 0, -1))

    def test_write_top_empty_sets_error(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.WRITE_TOP)
        drv.set(stack.data_in, 1)
        sim.step()
        assert stack.error.value == 1

    def test_error_is_sticky(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.POP)
        sim.step()
        drv.set(stack.op, StackOp.HOLD)
        sim.step(2)
        assert stack.error.value == 1

    def test_top_is_registered(self):
        """During the push cycle, top still shows the pre-push value."""
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.PUSH)
        drv.set(stack.data_in, 5)
        sim.settle_only()
        assert stack.top.value == 0  # not yet committed
        sim.step()
        assert stack.top.value == 5

    def test_reset_clears(self):
        sim, drv, stack = _mk()
        drv.set(stack.op, StackOp.PUSH)
        drv.set(stack.data_in, 5)
        sim.step()
        drv.values.clear()
        sim.reset()
        assert stack.size.value == 0
        assert stack.entries_top_first() == []
