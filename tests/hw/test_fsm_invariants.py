"""Control-unit invariants, checked on every cycle of live traffic.

The paper: the main FSM "is used to ensure that the remaining state
machines are not working at the same time and possibly generate
inconsistent results."  These tests hook the simulator's tick callback
and assert the mutual-exclusion and protocol invariants on every single
clock edge of randomized transaction mixes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hw import ModifierDriver
from repro.hw.stack import STACK_CAPACITY
from repro.mpls.label import LabelEntry, LabelOp


class _InvariantMonitor:
    """Checks cycle-by-cycle invariants after every clock edge."""

    def __init__(self, drv: ModifierDriver) -> None:
        self.m = drv.modifier
        self.violations = []
        drv.sim.on_tick(self._check)

    def _check(self, cycle: int) -> None:
        m = self.m
        lbl_busy = not m.lbl_iface.in_state("IDLE")
        ib_busy = not m.ib_iface.in_state("IDLE")
        if lbl_busy and ib_busy:
            self.violations.append(
                (cycle, "both interfaces active", m.lbl_iface.state_name,
                 m.ib_iface.state_name)
            )
        if (lbl_busy or ib_busy) and m.main.in_state("IDLE"):
            self.violations.append(
                (cycle, "interface active while main idle")
            )
        busy_search = not m.search.in_state("IDLE")
        if busy_search and not (lbl_busy or ib_busy):
            self.violations.append((cycle, "orphan search"))
        if m.dp.stack.size.value > STACK_CAPACITY:
            self.violations.append((cycle, "stack size over capacity"))


steps = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=16, max_value=30)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(
            st.just("write"),
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=16, max_value=30),
                st.sampled_from(list(LabelOp)),
            ),
        ),
        st.tuples(
            st.just("search"),
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=16, max_value=30),
            ),
        ),
        st.tuples(st.just("update"), st.integers(min_value=16, max_value=30)),
    ),
    max_size=10,
)


class TestInvariants:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps)
    def test_mutual_exclusion_every_cycle(self, ops):
        drv = ModifierDriver(ib_depth=16)
        drv.reset()
        monitor = _InvariantMonitor(drv)
        for kind, arg in ops:
            if kind == "push":
                drv.user_push(LabelEntry(label=arg, ttl=5))
            elif kind == "pop":
                drv.user_pop()
            elif kind == "write":
                level, key, op = arg
                drv.write_pair(level, key, key + 100, op)
            elif kind == "search":
                level, key = arg
                drv.search(level, key)
            else:
                drv.update(packet_id=arg, ttl=5)
        assert monitor.violations == []

    def test_idle_modifier_stays_idle(self):
        drv = ModifierDriver(ib_depth=16)
        drv.reset()
        monitor = _InvariantMonitor(drv)
        drv.sim.step(20)
        assert not drv.modifier.busy
        assert monitor.violations == []

    def test_busy_rejects_new_commands(self):
        drv = ModifierDriver(ib_depth=16)
        drv.reset()
        # put the modifier mid-transaction by hand
        dp = drv.modifier.dp
        drv._pins.set(dp.operation, 1)
        drv._pins.set(dp.data_in, LabelEntry(label=600).encode())
        drv.sim.step()
        drv._pins.set(dp.operation, 0)
        assert drv.modifier.busy
        with pytest.raises(RuntimeError):
            drv.user_push(LabelEntry(label=700))

    def test_done_is_a_single_cycle_pulse(self):
        drv = ModifierDriver(ib_depth=16)
        drv.reset()
        pulses = []
        drv.sim.on_tick(
            lambda c: pulses.append(
                (
                    c,
                    drv.modifier.search.done.value
                    or drv.modifier.ib_iface.done.value
                    or drv.modifier.lbl_iface.done.value,
                )
            )
        )
        drv.user_push(LabelEntry(label=600))
        drv.sim.step(5)  # idle padding
        high = [c for c, d in pulses if d]
        assert len(high) == 1
