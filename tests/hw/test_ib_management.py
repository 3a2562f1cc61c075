"""Tests for the information-base management operations.

The paper: "Entries can be added, modified, or removed from the
information base keeping in mind that label values must be consistent
among all MPLS routers", and the datapath description's direct read
path ("a search index when the user wants to read the contents of the
information base directly").  These operations are implemented on both
the RTL and the functional model; cycle formulas (beyond Table 6):
modify = search + 2, remove = search + 4, miss = full scan + 1, direct
read = 5.
"""

import pytest

from repro.hw import ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.mpls.label import LabelOp


@pytest.fixture(params=["rtl", "model"])
def drv(request):
    if request.param == "rtl":
        driver = ModifierDriver(ib_depth=64)
    else:
        driver = FunctionalModifier(ib_depth=64)
    driver.reset()
    for i in range(5):
        driver.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
    return driver


class TestModify:
    def test_modify_rewrites_in_place(self, drv):
        result = drv.modify_pair(2, 18, 999, LabelOp.POP)
        assert result.found
        lookup = drv.search(2, 18)
        assert lookup.label == 999
        assert lookup.op == LabelOp.POP

    def test_modify_does_not_change_count(self, drv):
        drv.modify_pair(2, 18, 999, LabelOp.POP)
        assert drv.ib_counts() == (0, 5, 0)

    def test_modify_cost_is_search_plus_2(self, drv):
        result = drv.modify_pair(2, 18, 999, LabelOp.POP)  # position 2
        assert result.cycles == (3 * 2 + 8) + 2

    def test_modify_miss(self, drv):
        result = drv.modify_pair(2, 999, 1, LabelOp.SWAP)
        assert not result.found
        assert result.cycles == (3 * 5 + 5) + 1
        assert drv.ib_counts() == (0, 5, 0)

    def test_modify_level_validation(self, drv):
        with pytest.raises(ValueError):
            drv.modify_pair(0, 1, 2, LabelOp.SWAP)


class TestRemove:
    def test_remove_deletes_pair(self, drv):
        result = drv.remove_pair(2, 17)
        assert result.found
        assert drv.ib_counts() == (0, 4, 0)
        assert not drv.search(2, 17).found

    def test_last_entry_fills_the_hole(self, drv):
        drv.remove_pair(2, 17)  # position 1; last pair (20) moves there
        survivor = drv.search(2, 20)
        assert survivor.found
        assert survivor.label == 504
        # and it now sits at position 1: hit cost 3*1+8
        assert survivor.cycles == 3 * 1 + 8

    def test_remove_last_entry(self, drv):
        result = drv.remove_pair(2, 20)
        assert result.found
        assert drv.ib_counts() == (0, 4, 0)
        assert not drv.search(2, 20).found

    def test_remove_cost_is_search_plus_4(self, drv):
        result = drv.remove_pair(2, 17)  # position 1
        assert result.cycles == (3 * 1 + 8) + 4

    def test_remove_miss(self, drv):
        result = drv.remove_pair(2, 999)
        assert not result.found
        assert result.cycles == (3 * 5 + 5) + 1
        assert drv.ib_counts() == (0, 5, 0)

    def test_remove_all_then_search_is_fast(self, drv):
        for index in (16, 17, 18, 19, 20):
            assert drv.remove_pair(2, index).found
        assert drv.ib_counts() == (0, 0, 0)
        assert drv.search(2, 16).cycles == 5  # empty scan

    def test_remove_then_rewrite(self, drv):
        drv.remove_pair(2, 16)
        drv.write_pair(2, 16, 777, LabelOp.PUSH)
        lookup = drv.search(2, 16)
        assert lookup.label == 777


class TestReadEntry:
    def test_read_back_stored_pair(self, drv):
        entry = drv.read_entry(2, 3)
        assert entry.valid
        assert entry.index == 19
        assert entry.label == 503
        assert entry.op == LabelOp.SWAP

    def test_read_costs_5_fixed(self, drv):
        assert drv.read_entry(2, 0).cycles == 5
        assert drv.read_entry(2, 4).cycles == 5

    def test_read_beyond_count_invalid(self, drv):
        entry = drv.read_entry(2, 10)
        assert not entry.valid
        assert entry.index is None

    def test_read_walks_whole_level(self, drv):
        pairs = [
            (e.index, e.label)
            for e in (drv.read_entry(2, a) for a in range(5))
        ]
        assert pairs == [(16 + i, 500 + i) for i in range(5)]

    def test_validation(self, drv):
        with pytest.raises(ValueError):
            drv.read_entry(4, 0)
        with pytest.raises(ValueError):
            drv.read_entry(2, -1)

    def test_address_beyond_the_bus_is_rejected_not_aliased(self, drv):
        # 2048 & 0x7FF is 0: it used to read entry 0 back as valid
        for address in (2048, 2051, 1 << 20):
            with pytest.raises(ValueError, match=f"address {address} .*11-bit"):
                drv.read_entry(2, address)
        before = drv.total_cycles
        # in range but past the memory: the modelled clamp to depth - 1
        assert not drv.read_entry(2, 2047).valid
        assert drv.total_cycles == before + 5


class TestReadPastAddress2047:
    """At ``ib_depth=4096`` the direct-read bus is 12 bits wide: a scrub
    of a level holding 2 100 pairs reads every one of them back, and the
    RTL and the functional model agree read by read and repair by
    repair."""

    PAIRS = [(16 + i, 500 + i % 900, LabelOp.SWAP) for i in range(2100)]

    @staticmethod
    def loaded(device):
        device.reset()
        device.bank_begin()
        for index, label, op in TestReadPastAddress2047.PAIRS:
            device.bank_write_pair(2, index, label, op)
        device.bank_commit()
        return device

    def run(self, device):
        device = self.loaded(device)
        seen = [device.read_entry(2, a) for a in (0, 2047, 2048, 2099, 2100, 4095)]
        with pytest.raises(ValueError, match="address 4096 outside the 12-bit"):
            device.read_entry(2, 4096)
        # one flipped payload and one flipped index, both past 2047
        device.corrupt_pair(2, 2050, label_xor=0x40)
        device.corrupt_pair(2, 2090, index_xor=0x80000)
        seen.append(device.scrub(2, self.PAIRS))
        seen.append(device.scrub(2, self.PAIRS))
        return seen, device.ib_pairs(2), device.total_cycles

    def test_rtl_equals_model(self):
        rtl = self.run(ModifierDriver(ib_depth=4096))
        model = self.run(FunctionalModifier(ib_depth=4096))
        assert rtl == model
        reads, pairs, _ = rtl
        assert [r.index for r in reads[:4]] == [16, 16 + 2047, 16 + 2048, 16 + 2099]
        assert not reads[4].valid and not reads[5].valid
        repair, clean = reads[6], reads[7]
        # a read-back pass, the repairs, a read-back pass that is clean
        assert (repair.passes, repair.checked, repair.corrupted, repair.repaired) == (
            2, 4200, 2, 2,
        )
        assert repair.clean and clean.clean and clean.corrupted == 0
        assert sorted(pairs) == sorted((i, lb, int(op)) for i, lb, op in self.PAIRS)

    def test_the_bus_is_unchanged_up_to_depth_2048(self):
        for depth in (64, 1024, 2048):
            for device in (ModifierDriver(ib_depth=depth), FunctionalModifier(ib_depth=depth)):
                device.reset()
                with pytest.raises(ValueError, match="address 2048 outside the 11-bit"):
                    device.read_entry(1, 2048)
                assert not device.read_entry(1, 2047).valid


class TestLevel1Management:
    def test_modify_by_packet_id(self, drv):
        drv.write_pair(1, 0x0A000001, 100, LabelOp.PUSH)
        result = drv.modify_pair(1, 0x0A000001, 200, LabelOp.PUSH)
        assert result.found
        assert drv.search(1, 0x0A000001).label == 200

    def test_remove_by_packet_id(self, drv):
        drv.write_pair(1, 0x0A000001, 100, LabelOp.PUSH)
        assert drv.remove_pair(1, 0x0A000001).found
        assert drv.ib_counts()[0] == 0
