"""Unit tests for the FSM framework."""

import pytest

from repro.hdl.fsm import FSM
from repro.hdl.simulator import Component, Simulator


class _Blinker(FSM):
    """IDLE -> ON -> OFF -> IDLE cycle gated by an enable wire."""

    def __init__(self, sim, name="blink", off_goes_to="IDLE"):
        super().__init__(sim, name, ["IDLE", "ON", "OFF"])
        self.enable = self.wire("enable", 1)
        self.lamp = self.wire("lamp", 1)
        self.off_goes_to = off_goes_to

    def on_IDLE(self):
        self.lamp.drive(0)
        return "ON" if self.enable.value else "IDLE"

    def on_ON(self):
        self.lamp.drive(1)
        return "OFF"

    def on_OFF(self):
        self.lamp.drive(0)
        return self.off_goes_to


class _Enable(Component):
    def __init__(self, sim, fsm):
        super().__init__(sim, "en")
        self.fsm = fsm

    def settle(self):
        self.fsm.enable.drive(1)


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
        _Enable(sim, fsm)
        sim.step()
        assert fsm.state_name == "ON"
        sim.step()
        assert fsm.state_name == "OFF"
        sim.step()
        assert fsm.state_name == "IDLE"

    def test_moore_output_follows_state(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        _Enable(sim, fsm)
        seen = []
        sim.on_tick(lambda _cycle: seen.append((fsm.state_name, fsm.lamp.value)))
        sim.step(4)
        # the lamp is the settled output of the state the edge left
        assert seen == [("ON", 0), ("OFF", 1), ("IDLE", 0), ("ON", 0)]

    def test_unknown_state_lookup_names_the_typo(self):
        sim = Simulator()
        fsm = _Blinker(sim, name="ctl.blink")
        with pytest.raises(KeyError) as excinfo:
            fsm.in_state("NOPE")
        assert excinfo.value.args == ("ctl.blink: unknown state 'NOPE'",)

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError, match=r"bad: duplicate state names in \['A', 'A'\]"):
            FSM(Simulator(), "bad", ["A", "A"])

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError, match="bad: an FSM needs at least one state"):
            FSM(Simulator(), "bad", [])

    def test_state_codes_are_the_list_positions(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        for code, name in enumerate(["IDLE", "ON", "OFF"]):
            fsm._state_reg.force(code)
            assert fsm.in_state(name) and fsm.state_name == name

    def test_reset_returns_to_first_state(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        fsm._state_reg.stage(2)
        fsm._state_reg.commit()
        assert fsm.state_name == "OFF"
        sim.reset()
        assert fsm.state_name == "IDLE"


class TestStateHandlers:
    def test_a_handler_is_resolved_once_at_construction(self):
        sim = Simulator()
        fsm = _Blinker(sim)
        assert [handler.__name__ for handler in fsm._handlers] == [
            "on_IDLE", "on_ON", "on_OFF",
        ]

    def test_handler_returning_an_unknown_state_names_machine_and_state(self):
        sim = Simulator()
        fsm = _Blinker(sim, name="ctl.blink", off_goes_to="NOPE")
        _Enable(sim, fsm)
        sim.step(2)
        with pytest.raises(KeyError) as from_settle:
            sim.step()
        # the error in_state raises for the same typo
        with pytest.raises(KeyError) as from_lookup:
            fsm.in_state("NOPE")
        assert from_settle.value.args == from_lookup.value.args == (
            "ctl.blink: unknown state 'NOPE'",
        )

    def test_a_state_without_a_handler_is_refused(self):
        class Partial(FSM):
            def __init__(self, sim):
                super().__init__(sim, "ctl.partial", ["IDLE", "RUN", "DONE"])

            def on_IDLE(self):
                return "RUN"

        with pytest.raises(ValueError) as excinfo:
            Partial(Simulator())
        assert str(excinfo.value) == "ctl.partial: no on_<STATE> for ['RUN', 'DONE']"

    def test_a_bare_fsm_has_no_handlers(self):
        with pytest.raises(ValueError, match=r"bare: no on_<STATE> for \['A'\]"):
            FSM(Simulator(), "bare", ["A"])

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
        assert _Blinker._handled == frozenset({"IDLE", "ON", "OFF"})
        assert _Blinker(Simulator()).in_state("IDLE")

    def test_one_dispatch(self):
        """The output()/transition() fallback and its State objects are
        gone: a state is an ``on_<STATE>`` method and nothing else."""
        import repro.hdl
        from repro.hdl import fsm as module

        gone = {"output", "transition", "s", "state", "_output_then_transition"}
        assert not gone & set(dir(FSM))
        assert not hasattr(module, "State") and not hasattr(repro.hdl, "State")
