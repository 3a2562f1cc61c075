"""Unit tests for the two-phase simulator."""

import pytest

from repro.hdl.simulator import (
    CombinationalLoopError,
    Component,
    Simulator,
)


class _ToggleBit(Component):
    """A register that inverts every cycle."""

    def __init__(self, sim):
        super().__init__(sim, "toggle")
        self.q = self.reg("q", 1)

    def settle(self):
        self.q.stage(1 - self.q.value)


class _Follower(Component):
    """A wire combinationally following a register (tests settle order)."""

    def __init__(self, sim, src):
        super().__init__(sim, "follower")
        self.src = src
        self.out = self.wire("out", 1)

    def settle(self):
        self.out.drive(self.src.value)


class _Oscillator(Component):
    """A deliberately unstable combinational loop."""

    def __init__(self, sim):
        super().__init__(sim, "osc")
        self.a = self.wire("a", 1)
        self._flip = 0

    def settle(self):
        # drives a different value every settle pass: never converges
        self._flip ^= 1
        self.a.drive(self._flip)


class TestSimulator:
    def test_register_updates_once_per_cycle(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        assert t.q.value == 0
        sim.step()
        assert t.q.value == 1
        sim.step()
        assert t.q.value == 0

    def test_wire_follows_register_in_same_cycle(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        f = _Follower(sim, t.q)
        sim.step()
        sim.settle_only()
        assert f.out.value == t.q.value == 1

    def test_cycle_counter(self):
        sim = Simulator()
        _ToggleBit(sim)
        sim.step(5)
        assert sim.cycle == 5

    def test_combinational_loop_detected(self):
        sim = Simulator(max_settle_passes=8)
        _Oscillator(sim)
        with pytest.raises(CombinationalLoopError):
            sim.step()

    def test_run_until(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        used = sim.run_until(lambda: sim.cycle == 4)
        assert used == 4
        assert t.q.value == 0

    def test_run_until_timeout(self):
        sim = Simulator()
        _ToggleBit(sim)
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_reset_restores_defaults_and_cycle(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        sim.step(3)
        sim.reset()
        assert sim.cycle == 0
        assert t.q.value == 0

    def test_duplicate_signal_names_rejected(self):
        sim = Simulator()
        sim.add_wire("x", 1)
        with pytest.raises(ValueError):
            sim.add_wire("x", 1)

    def test_signal_lookup(self):
        sim = Simulator()
        w = sim.add_wire("top.bus", 8)
        assert sim.signal("top.bus") is w

    def test_on_tick_hook_sees_cycle(self):
        sim = Simulator()
        _ToggleBit(sim)
        seen = []
        sim.on_tick(seen.append)
        sim.step(3)
        assert seen == [1, 2, 3]

    def test_drive_after_reset_is_not_a_conflict(self):
        # the driven flag used to survive reset(): the next drive of a
        # different value raised "conflicting values 0 and 5"
        sim = Simulator()
        t = _ToggleBit(sim)
        f = _Follower(sim, t.q)
        sim.step()
        sim.reset()
        assert f.out.drive(1) is True
        sim.step()
        assert f.out.value == 0 and t.q.value == 1

    def test_reset_forgets_a_pending_stage(self):
        sim = Simulator()
        r = sim.add_reg("r", 8)
        r.stage(9)
        sim.reset()
        sim.step()
        assert r.value == 0

    def test_hook_detaching_itself_does_not_skip_the_next_hook(self):
        sim = Simulator()
        _ToggleBit(sim)
        first, second = [], []

        def once(cycle):
            first.append(cycle)
            sim.remove_tick_hook(once)

        sim.on_tick(once)
        sim.on_tick(second.append)
        sim.step(3)
        assert first == [1]
        assert second == [1, 2, 3]

    def test_remove_unknown_hook_raises(self):
        with pytest.raises(ValueError):
            Simulator().remove_tick_hook(print)

    @pytest.mark.parametrize("passes", [0, -1])
    def test_settle_bound_below_one_rejected_at_construction(self, passes):
        with pytest.raises(ValueError, match="max_settle_passes"):
            Simulator(max_settle_passes=passes)

    def test_component_registered_after_first_edge_participates(self):
        # the bound settle/tick lists are rebuilt after a registration
        sim = Simulator()
        t = _ToggleBit(sim)
        sim.step()
        f = _Follower(sim, t.q)
        sim.settle_only()
        assert f.out.value == 1

    def test_out_of_width_drive_and_stage_still_rejected(self):
        from repro.hdl.signal import WidthError

        sim = Simulator()
        w, r = sim.add_wire("w", 4), sim.add_reg("r", 4)
        for bad in (16, -1):
            with pytest.raises(WidthError, match="does not fit in 4 bits"):
                w.drive(bad)
            with pytest.raises(WidthError, match="does not fit in 4 bits"):
                r.stage(bad)

    def test_dropped_stage_is_not_logged_twice(self):
        sim = Simulator()
        r = sim.add_reg("r", 8)
        for drop in (r.unstage, r.commit, lambda: r.force(3), r.reset):
            r.stage(1)
            drop()
            assert not r.staged
        r.stage(2)
        assert len(sim._staged) == 1
        sim.step()
        assert r.value == 2 and not sim._staged
