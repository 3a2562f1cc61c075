"""Unit tests for the FSM framework."""

import pytest

from repro.hdl.fsm import FSM
from repro.hdl.simulator import Simulator


class _Blinker(FSM):
    """IDLE -> ON -> OFF -> IDLE cycle gated by an enable wire."""

    def __init__(self, sim):
        super().__init__(sim, "blink", ["IDLE", "ON", "OFF"])
        self.enable = self.wire("enable", 1)
        self.lamp = self.wire("lamp", 1)

    def transition(self):
        if self.in_state("IDLE"):
            return self.s("ON") if self.enable.value else self.s("IDLE")
        if self.in_state("ON"):
            return self.s("OFF")
        return self.s("IDLE")

    def output(self):
        self.lamp.drive(1 if self.in_state("ON") else 0)


class TestFSM:
    def test_reset_state_is_first(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        assert fsm.state_name == "IDLE"

    def test_stays_idle_without_enable(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        sim.step(3)
        assert fsm.state_name == "IDLE"

    def test_transition_takes_one_edge(self):
        sim = Simulator()
        fsm = _Blinker(sim)

        class _En:
            def __init__(self, sim, fsm):
                from repro.hdl.simulator import Component

                class D(Component):
                    def settle(s):
                        fsm.enable.drive(1)

                D(sim, "en")

        _En(sim, fsm)
        sim.step()
        assert fsm.state_name == "ON"
        sim.step()
        assert fsm.state_name == "OFF"
        sim.step()
        assert fsm.state_name == "IDLE"

    def test_moore_output_follows_state(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        sim.settle_only()
        assert fsm.lamp.value == 0

    def test_unknown_state_lookup(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        with pytest.raises(KeyError):
            fsm.s("NOPE")

    def test_duplicate_states_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FSM(sim, "bad", ["A", "A"])

    def test_empty_states_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FSM(sim, "bad", [])

    def test_state_codes_stable(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        assert fsm.s("IDLE").code == 0
        assert fsm.s("ON").code == 1
        assert fsm.s("OFF").code == 2

    def test_reset_returns_to_first_state(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        fsm._state_reg.stage(2)
        fsm._state_reg.commit()
        assert fsm.state_name == "OFF"
        sim.reset()
        assert fsm.state_name == "IDLE"

    def test_transition_type_checked(self):
        sim = Simulator()

        class Bad(FSM):
            def __init__(self, sim):
                super().__init__(sim, "badfsm", ["A"])

            def transition(self):
                return "A"  # not a State

        Bad(sim)
        with pytest.raises(TypeError):
            sim.step()


class _Mixed(FSM):
    """IDLE and OFF have handlers, ON goes through output()/transition()."""

    def __init__(self, sim, name="mixed", off_goes_to="IDLE"):
        super().__init__(sim, name, ["IDLE", "ON", "OFF"])
        self.lamp = self.wire("lamp", 1)
        self.off_goes_to = off_goes_to
        self.fallbacks = 0

    def on_IDLE(self):
        self.lamp.drive(0)
        return "ON"

    def output(self):
        self.fallbacks += 1
        self.lamp.drive(1)

    def transition(self):
        return self.s("OFF")

    def on_OFF(self):
        self.lamp.drive(0)
        return self.off_goes_to


class TestStateHandlers:
    def test_handlers_and_the_fallback_mix_in_one_machine(self):
        sim = Simulator()
        fsm = _Mixed(sim)
        seen = []
        sim.on_tick(lambda _cycle: seen.append((fsm.state_name, fsm.lamp.value)))
        sim.step(4)
        # the lamp is the settled output of the state the edge left
        assert seen == [("ON", 0), ("OFF", 1), ("IDLE", 0), ("ON", 0)]
        # ON's one cycle settles in two passes (the lamp changed in the
        # first); the states with a handler never ask output()
        assert fsm.fallbacks == 2

    def test_a_handler_is_resolved_once_at_construction(self):
        sim = Simulator()
        fsm = _Mixed(sim)
        assert [handler.__name__ for handler in fsm._handlers] == [
            "on_IDLE", "_output_then_transition", "on_OFF",
        ]

    def test_handler_returning_an_unknown_state_names_machine_and_state(self):
        sim = Simulator()
        _Mixed(sim, name="ctl.mixed", off_goes_to="NOPE")
        sim.step(2)
        with pytest.raises(KeyError) as excinfo:
            sim.step()
        assert "ctl.mixed" in str(excinfo.value) and "'NOPE'" in str(excinfo.value)

    def test_it_is_the_error_s_raises(self):
        sim = Simulator()
        fsm = _Mixed(sim, off_goes_to="NOPE")
        with pytest.raises(KeyError) as from_s:
            fsm.s("NOPE")
        sim.step(2)
        with pytest.raises(KeyError) as from_settle:
            sim.step()
        assert from_settle.value.args == from_s.value.args

    def test_a_handler_for_a_state_the_machine_lacks_is_refused(self):
        class Typo(FSM):
            def __init__(self, sim):
                super().__init__(sim, "typo", ["IDLE", "RUN"])

            def on_IDLE(self):
                return "RUN"

            def on_RNU(self):  # meant on_RUN: must not fall back silently
                return "IDLE"

        with pytest.raises(ValueError, match="typo.*on_<STATE>.*RNU"):
            Typo(Simulator())

    def test_an_inherited_handler_counts(self):
        class Base(FSM):
            def on_A(self):
                return "B"

        class Derived(Base):
            def __init__(self, sim):
                super().__init__(sim, "derived", ["A", "B"])

            def on_B(self):
                return "A"

        sim = Simulator()
        fsm = Derived(sim)
        sim.step()
        assert fsm.state_name == "B"
        sim.step()
        assert fsm.state_name == "A"

    def test_in_state_is_not_a_handler(self):
        sim = Simulator()
        fsm = _Blinker(sim)  # defines no on_<STATE>; in_state is the framework's
        assert fsm._handled == frozenset() and fsm.in_state("IDLE")
