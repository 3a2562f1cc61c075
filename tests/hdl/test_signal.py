"""Unit tests for width-checked wires and registers."""

import pytest

from repro.hdl.signal import Reg, SignalError, WidthError, Wire


class TestSignalBasics:
    def test_default_value(self):
        w = Wire("w", width=4, default=5)
        assert w.value == 5

    def test_width_must_be_positive(self):
        with pytest.raises(WidthError):
            Wire("w", width=0)

    def test_value_out_of_range_rejected(self):
        with pytest.raises(WidthError):
            Wire("w", width=3, default=8)

    def test_signals_compare_by_identity(self):
        a = Wire("a", width=4, default=7)
        b = Wire("b", width=8, default=7)
        assert a != b and a.value == b.value
        assert {a: 1, b: 2}[a] == 1


class TestWire:
    def test_drive_sets_value(self):
        w = Wire("w", width=8)
        w.reset()
        assert w.drive(17) is True
        assert w.value == 17

    def test_drive_same_value_reports_no_change(self):
        w = Wire("w", width=8)
        w.reset()
        w.drive(9)
        w.reset()
        changed = w.drive(0)
        # after reset() the wire reverted to default 0, so driving 0
        # is not a change
        assert changed is False

    def test_conflicting_drives_raise(self):
        w = Wire("w", width=8)
        w.reset()
        w.drive(1)
        with pytest.raises(SignalError):
            w.drive(2)

    def test_redrive_same_value_allowed(self):
        w = Wire("w", width=8)
        w.reset()
        w.drive(3)
        w.drive(3)  # no exception
        assert w.value == 3

    def test_begin_settle_reverts_to_default(self):
        w = Wire("w", width=8, default=4)
        w.reset()
        w.drive(200)
        w.reset()
        assert w.value == 4

    def test_drive_out_of_range(self):
        w = Wire("w", width=4)
        w.reset()
        with pytest.raises(WidthError):
            w.drive(16)


class TestReg:
    def test_stage_does_not_change_value(self):
        r = Reg("r", width=8, default=1)
        r.stage(200)
        assert r.value == 1
        assert r._next == 200

    def test_commit_adopts_staged(self):
        r = Reg("r", width=8)
        r.stage(55)
        assert r.commit() is True
        assert r.value == 55

    def test_commit_without_stage_is_noop(self):
        r = Reg("r", width=8, default=9)
        assert r.commit() is False
        assert r.value == 9

    def test_commit_same_value_reports_no_change(self):
        r = Reg("r", width=8, default=7)
        r.stage(7)
        assert r.commit() is False

    def test_stage_out_of_range(self):
        r = Reg("r", width=2)
        with pytest.raises(WidthError):
            r.stage(4)

    def test_reset_clears_staged(self):
        r = Reg("r", width=8, default=2)
        r.stage(100)
        r.reset()
        assert r.value == 2
        assert r.commit() is False
        assert r.value == 2
