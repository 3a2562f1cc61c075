"""The operand contract of the transaction interface.

The RTL driver and the functional model refuse an out-of-range operand
at the transaction boundary, before anything changes, with one
``ValueError`` that reads the same from either; the hang bound follows
the depth the information base was built with; and a transaction that
does raise mid-flight leaves no command on the pins.
"""

from unittest import mock

import pytest

from repro.hdl.signal import WidthError
from repro.hw.driver import HANG_FACTOR, ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.hw.opcodes import UserOp
from repro.hw.search_fsm import SearchFSM
from repro.mpls.label import LabelEntry, LabelOp

DEVICES = [ModifierDriver, FunctionalModifier]

#: name -> (the call, the operand its error names)
HOSTILE = {
    "write_pair: level-1 index past 32 bits": (
        lambda m: m.write_pair(1, 2**32 + 5, 7, LabelOp.PUSH), "index"),
    "write_pair: label index past 20 bits": (
        lambda m: m.write_pair(2, 2**20, 7, LabelOp.PUSH), "index"),
    "write_pair: new label past 20 bits": (
        lambda m: m.write_pair(3, 5, 2**20, LabelOp.SWAP), "new_label"),
    "write_pair: operation past 2 bits": (
        lambda m: m.write_pair(2, 5, 6, 7), "op"),
    "write_pair: level 0": (
        lambda m: m.write_pair(0, 5, 6, LabelOp.SWAP), "level"),
    "bank_write_pair: negative index": (
        lambda m: m.bank_write_pair(1, -1, 6, LabelOp.SWAP), "index"),
    "update: negative packet id": (lambda m: m.update(packet_id=-3), "packet_id"),
    "update: ttl 300": (lambda m: m.update(ttl=300), "ttl"),
    "update: cos 9": (lambda m: m.update(cos=9), "cos"),
    "search: negative key": (lambda m: m.search(1, -1), "key"),
    "search: label key past 20 bits": (lambda m: m.search(2, 2**20 + 5), "key"),
    "modify_pair: level-1 index past 32 bits": (
        lambda m: m.modify_pair(1, 2**32 + 1, 7, LabelOp.SWAP), "index"),
    "remove_pair: negative index": (lambda m: m.remove_pair(3, -1), "index"),
    "read_entry: level 4": (lambda m: m.read_entry(4, 0), "level"),
    "corrupt_pair: index mask past the memory": (
        lambda m: m.corrupt_pair(2, 0, index_xor=2**40), "index_xor"),
    "corrupt_pair: op mask past 2 bits": (
        lambda m: m.corrupt_pair(2, 0, op_xor=4), "op_xor"),
}


def prepared(cls):
    """Pairs at every level, an entry on the stack, a bank open."""
    device = cls(ib_depth=16)
    device.reset()
    for level in (1, 2, 3):
        device.write_pair(level, 5, 6, LabelOp.PUSH if level == 1 else LabelOp.SWAP)
    device.user_push(LabelEntry(label=5, ttl=9, s=1))
    device.bank_begin()
    return device


def observable(device):
    return (
        device.state_version,
        device.total_cycles,
        [device.ib_pairs(level) for level in (1, 2, 3)],
        tuple(device.stack()),
    )


def next_valid_transactions(device):
    """What follows must not notice the refusal."""
    searched = device.search(2, 5)
    updated = device.update()  # search_cycles is the model's alone
    popped, cycles = device.user_pop()
    return (
        searched, updated.performed, updated.discarded, updated.cycles,
        updated.stack, popped, cycles, device.total_cycles,
    )


class TestRefusedAtTheBoundary:
    @pytest.mark.parametrize("case", HOSTILE)
    def test_same_error_nothing_changed_nothing_poisoned(self, case):
        call, operand = HOSTILE[case]
        errors, after = [], []
        for cls in DEVICES:
            device = prepared(cls)
            before = observable(device)
            with pytest.raises(ValueError) as excinfo:
                call(device)
            assert not isinstance(excinfo.value, WidthError)  # not from a pin
            assert observable(device) == before
            errors.append(str(excinfo.value))
            after.append(next_valid_transactions(device))
        assert errors[0] == errors[1] and errors[0].startswith(operand + " must be")
        assert after[0] == after[1] == next_valid_transactions(prepared(DEVICES[1]))

    def test_no_pin_was_set(self):
        driver = prepared(ModifierDriver)
        pins = dict(driver._pins._values)
        with pytest.raises(ValueError):
            driver.write_pair(1, 2**32 + 5, 7, LabelOp.PUSH)
        assert driver._pins._values == pins

    def test_the_widest_operands_are_accepted_by_both(self):
        for cls in DEVICES:
            device = cls(ib_depth=4)
            device.reset()
            assert device.write_pair(1, 2**32 - 1, 2**20 - 1, LabelOp.PUSH) == 3
            assert device.write_pair(3, 2**20 - 1, 2**20 - 1, LabelOp.POP) == 3
            assert device.search(1, 2**32 - 1).found
            assert device.search(3, 2**20 - 1).label == 2**20 - 1
            assert device.corrupt_pair(1, 0, index_xor=2**32 - 1, op_xor=3)
            assert device.ib_pairs(1) == [(0, 2**20 - 1, int(LabelOp.PUSH) ^ 3)]
            result = device.update(packet_id=0, ttl=255, cos=7)
            assert result.discarded and result.cycles == 8 + 5

    def test_a_stored_key_is_the_key_that_finds_it(self):
        # the model used to store 2**32 + 5 as 5, miss on 2**32 + 5 and hit on 5
        model = FunctionalModifier()
        with pytest.raises(ValueError):
            model.write_pair(1, 2**32 + 5, 7, LabelOp.PUSH)
        assert not model.search(1, 5).found


def filled_level_2(depth, count):
    """Driver and model with pairs 100, 101, ... at level 2, loaded
    without burning a write transaction per pair."""
    pairs = [(100 + i, 7, int(LabelOp.SWAP)) for i in range(count)]
    driver, model = ModifierDriver(ib_depth=depth), FunctionalModifier(ib_depth=depth)
    driver.modifier.dp.info_base.level(2).load_pairs(pairs)
    model.bank_begin()
    for index, label, op in pairs:
        model.bank_write_pair(2, index, label, LabelOp(op))
    model.bank_commit()
    return driver, model


class TestDepth:
    @pytest.mark.parametrize("depth", [0, -1])
    @pytest.mark.parametrize("cls", DEVICES)
    def test_refused_at_construction(self, cls, depth):
        with pytest.raises(ValueError, match=rf"depth must be >= 1, got {depth}"):
            cls(ib_depth=depth)

    def test_a_full_miss_of_a_deep_level_is_not_a_hang(self):
        depth = 13_400
        driver, model = filled_level_2(depth, depth)
        assert driver.ib_counts() == model.ib_counts() == (0, depth, 0)
        got, want = driver.search(2, 99), model.search(2, 99)
        assert got == want and got.cycles == 3 * depth + 5 == 40_205
        assert got.cycles < driver.max_transaction_cycles

    def test_a_pair_past_address_2047_can_be_rewritten(self):
        # the captured hit address used to be 11 bits whatever the depth
        driver, model = filled_level_2(4096, 3000)
        for device in (driver, model):
            assert device.modify_pair(2, 2600, 9, LabelOp.POP).cycles == 3 * 2500 + 8 + 2
            assert device.remove_pair(2, 2601).cycles == 3 * 2501 + 8 + 4
        assert driver.ib_pairs(2) == model.ib_pairs(2)

    def test_the_bound_follows_the_depth(self):
        for depth in (1, 64, 1024):
            worst = 3 * depth + 5 + 7  # a nested push found at the last pair
            assert ModifierDriver(ib_depth=depth).max_transaction_cycles == (
                HANG_FACTOR * worst
            )


class _NeverAdvances(SearchFSM):
    """A search that re-reads the same entry for ever."""

    def on_COMPARE(self) -> str:
        self.finishing.drive(0)
        return "READ"


class TestMidFlight:
    def hung_driver(self):
        with mock.patch("repro.hw.modifier.SearchFSM", _NeverAdvances):
            driver = ModifierDriver(ib_depth=8)
        driver.reset()
        driver.write_pair(1, 5, 6, LabelOp.PUSH)
        return driver

    def test_a_real_hang_is_still_a_timeout(self):
        driver = self.hung_driver()
        with pytest.raises(TimeoutError) as excinfo:
            driver.search(1, 5)
        bound = HANG_FACTOR * (3 * 8 + 5 + 7)
        assert str(excinfo.value) == f"SEARCH did not complete within {bound} cycles"
        # the reset, the write, then the whole bound
        assert driver.sim.cycle == 3 + 3 + bound

    def test_a_timeout_leaves_no_command_on_the_pins(self):
        driver = self.hung_driver()
        dp = driver.modifier.dp
        with pytest.raises(TimeoutError):
            driver.search(1, 5)
        # the completed write's operands are still held (they always
        # were: the waveforms show them); the search's are gone
        assert set(driver._pins._values) == {dp.op_in, dp.data_in}
        assert driver.reset() == 3 and driver.user_pop() == (None, 3)

    def test_a_pin_that_refuses_its_value_is_released(self):
        driver, fresh = prepared(ModifierDriver), prepared(ModifierDriver)
        with pytest.raises(WidthError):
            driver._issue(UserOp.SEARCH, level_in=7)  # past the boundary checks
        dp = driver.modifier.dp
        assert not {dp.operation, dp.level_in} & set(driver._pins._values)
        # the edge that raised never happened: the next transactions are
        # those of a driver that was never asked
        assert next_valid_transactions(driver) == next_valid_transactions(fresh)
