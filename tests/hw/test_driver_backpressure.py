"""Tests for the bounded bank-write command queue (backpressure).

Info-base programming used to stage an unbounded pile of writes; the
bounded queue makes the control plane yield (``bank_drain``) when it
outruns the hardware, instead of assuming infinite staging.
"""

import pytest

from repro.core.hwnode import HardwareLSRNode
from repro.hw import ModifierDriver
from repro.hw.model import FunctionalModifier, StagingBackpressure
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from tests.strategies.flows import labelled


class TestModelBackpressure:
    def test_unlimited_by_default(self):
        dev = FunctionalModifier(ib_depth=64)
        dev.bank_begin()
        for i in range(40):
            dev.bank_write_pair(2, 100 + i, 500 + i, LabelOp.SWAP)
        dev.bank_commit()
        assert dev.ib_counts()[1] == 40

    def test_limit_raises_then_drain_reopens(self):
        dev = FunctionalModifier(ib_depth=64, staging_limit=4)
        dev.bank_begin()
        for i in range(4):
            dev.bank_write_pair(2, 100 + i, 500 + i, LabelOp.SWAP)
        with pytest.raises(StagingBackpressure):
            dev.bank_write_pair(2, 104, 504, LabelOp.SWAP)
        assert dev.bank_drain() == 4
        # the rejected write retries cleanly after the drain
        dev.bank_write_pair(2, 104, 504, LabelOp.SWAP)
        dev.bank_commit()
        assert dev.ib_counts()[1] == 5

    def test_rejected_write_stages_nothing(self):
        dev = FunctionalModifier(ib_depth=64, staging_limit=2)
        dev.bank_begin()
        dev.bank_write_pair(2, 1, 10, LabelOp.SWAP)
        dev.bank_write_pair(2, 2, 20, LabelOp.SWAP)
        before = dev.total_cycles
        with pytest.raises(StagingBackpressure):
            dev.bank_write_pair(2, 3, 30, LabelOp.SWAP)
        assert dev.total_cycles == before  # no cycles for a refusal
        dev.bank_drain()
        dev.bank_write_pair(2, 3, 30, LabelOp.SWAP)
        dev.bank_commit()
        assert dev.ib_counts()[1] == 3

    def test_drain_costs_zero_cycles(self):
        dev = FunctionalModifier(ib_depth=64, staging_limit=2)
        dev.bank_begin()
        dev.bank_write_pair(2, 1, 10, LabelOp.SWAP)
        before = dev.total_cycles
        dev.bank_drain()
        assert dev.total_cycles == before

    def test_drain_requires_open_transaction(self):
        dev = FunctionalModifier(ib_depth=64, staging_limit=2)
        with pytest.raises(RuntimeError):
            dev.bank_drain()

    def test_commit_and_rollback_reset_the_counter(self):
        dev = FunctionalModifier(ib_depth=64, staging_limit=2)
        dev.bank_begin()
        dev.bank_write_pair(2, 1, 10, LabelOp.SWAP)
        dev.bank_write_pair(2, 2, 20, LabelOp.SWAP)
        dev.bank_commit()
        dev.bank_begin()
        # a fresh transaction starts with an empty command queue
        dev.bank_write_pair(2, 3, 30, LabelOp.SWAP)
        dev.bank_write_pair(2, 4, 40, LabelOp.SWAP)
        dev.bank_rollback()
        dev.bank_begin()
        dev.bank_write_pair(2, 5, 50, LabelOp.SWAP)
        dev.bank_commit()

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            FunctionalModifier(ib_depth=64, staging_limit=0)
        with pytest.raises(ValueError):
            ModifierDriver(ib_depth=64, staging_limit=0)

    def test_limited_table_equals_unlimited(self):
        plain = FunctionalModifier(ib_depth=64)
        limited = FunctionalModifier(ib_depth=64, staging_limit=3)
        for dev in (plain, limited):
            dev.bank_begin()
            for i in range(10):
                try:
                    dev.bank_write_pair(2, 100 + i, 500 + i, LabelOp.SWAP)
                except StagingBackpressure:
                    dev.bank_drain()
                    dev.bank_write_pair(2, 100 + i, 500 + i, LabelOp.SWAP)
            dev.bank_commit()
        for i in range(10):
            assert (
                plain.search(2, 100 + i).label
                == limited.search(2, 100 + i).label
                == 500 + i
            )


class TestDriverBackpressure:
    def test_driver_limit_matches_model(self):
        drv = ModifierDriver(ib_depth=64, staging_limit=2)
        drv.reset()
        drv.bank_begin()
        drv.bank_write_pair(2, 1, 10, LabelOp.SWAP)
        drv.bank_write_pair(2, 2, 20, LabelOp.SWAP)
        with pytest.raises(StagingBackpressure):
            drv.bank_write_pair(2, 3, 30, LabelOp.SWAP)
        assert drv.bank_drain() == 2
        drv.bank_write_pair(2, 3, 30, LabelOp.SWAP)
        drv.bank_commit()
        for key, want in ((1, 10), (2, 20), (3, 30)):
            assert drv.search(2, key).label == want


class TestHWNodeBackpressure:
    def _install(self, node, count):
        for i in range(count):
            node.ilm.install(
                100 + i,
                NHLFE(op=LabelOp.SWAP, out_label=500 + i, next_hop="x"),
            )

    def test_sync_stalls_but_programs_the_full_table(self):
        node = HardwareLSRNode(
            "lsr-1", RouterRole.LSR, ib_depth=256, staging_limit=4
        )
        self._install(node, 10)
        node._sync_info_base()
        # 10 entries x 3 levels = 30 writes through a queue of 4
        assert node.backpressure_stalls > 0
        assert node.modifier.ib_counts() == (10, 10, 10)

    def test_stalled_node_forwards_like_an_unlimited_one(self):
        limited = HardwareLSRNode(
            "lsr-1", RouterRole.LSR, ib_depth=256, staging_limit=2
        )
        plain = HardwareLSRNode("lsr-1", RouterRole.LSR, ib_depth=256)
        software = LSRNode("lsr-1", RouterRole.LSR)
        for node in (limited, plain, software):
            self._install(node, 8)
        for label in range(100, 108):
            decisions = [n.receive(labelled(label)) for n in
                         (limited, plain, software)]
            assert len({d.action for d in decisions}) == 1
            assert len({str(d.packet.stack) for d in decisions}) == 1
        assert limited.backpressure_stalls > 0
        assert plain.backpressure_stalls == 0

    def test_unlimited_node_never_stalls(self):
        node = HardwareLSRNode("lsr-1", RouterRole.LSR, ib_depth=256)
        self._install(node, 50)
        node._sync_info_base()
        assert node.backpressure_stalls == 0
