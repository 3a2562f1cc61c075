"""Tests for NHLFE construction rules."""

import pytest

from repro.mpls.errors import InvalidLabelError
from repro.mpls.label import IMPLICIT_NULL, LabelOp
from repro.mpls.nhlfe import NHLFE


class TestNHLFE:
    def test_push_requires_label(self):
        with pytest.raises(InvalidLabelError):
            NHLFE(op=LabelOp.PUSH)

    def test_swap_requires_label(self):
        with pytest.raises(InvalidLabelError):
            NHLFE(op=LabelOp.SWAP)

    def test_pop_forbids_label(self):
        with pytest.raises(InvalidLabelError):
            NHLFE(op=LabelOp.POP, out_label=100)

    def test_noop_forbids_label(self):
        with pytest.raises(InvalidLabelError):
            NHLFE(op=LabelOp.NOOP, out_label=100)

    def test_reserved_label_rejected(self):
        with pytest.raises(InvalidLabelError):
            NHLFE(op=LabelOp.PUSH, out_label=5)

    def test_swap_to_implicit_null_becomes_php(self):
        """RFC 3032: implicit null advertised downstream means
        penultimate-hop popping."""
        nhlfe = NHLFE(op=LabelOp.SWAP, out_label=IMPLICIT_NULL, next_hop="egress")
        assert nhlfe.op is LabelOp.POP
        assert nhlfe.out_label is None
        assert nhlfe.next_hop == "egress"

    def test_cos_range(self):
        with pytest.raises(InvalidLabelError):
            NHLFE(op=LabelOp.PUSH, out_label=100, cos=8)

    def test_valid_swap(self):
        nhlfe = NHLFE(op=LabelOp.SWAP, out_label=500, next_hop="lsr-2", out_interface="if0")
        assert nhlfe.out_label == 500
        assert (nhlfe.op, nhlfe.next_hop) == (LabelOp.SWAP, "lsr-2")

    def test_frozen(self):
        nhlfe = NHLFE(op=LabelOp.POP)
        with pytest.raises(AttributeError):
            nhlfe.op = LabelOp.PUSH  # type: ignore[misc]
