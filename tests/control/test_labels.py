"""Tests for the label allocator."""

import pytest

from repro.control.labels import LabelAllocator, LabelSpaceExhausted
from repro.mpls.label import LABEL_MAX, RESERVED_LABEL_MAX


class TestLabelAllocator:
    def test_starts_above_reserved(self):
        alloc = LabelAllocator()
        assert alloc.allocate() == RESERVED_LABEL_MAX + 1

    def test_sequential(self):
        alloc = LabelAllocator()
        assert [alloc.allocate() for _ in range(3)] == [16, 17, 18]

    def test_release_recycles_lowest_first(self):
        alloc = LabelAllocator()
        labels = [alloc.allocate() for _ in range(4)]
        alloc.release(labels[2])
        alloc.release(labels[0])
        assert alloc.allocate() == labels[0]
        assert alloc.allocate() == labels[2]

    def test_release_unallocated_rejected(self):
        alloc = LabelAllocator()
        with pytest.raises(KeyError):
            alloc.release(16)

    def test_release_frees_only_that_label(self):
        alloc = LabelAllocator()
        a = alloc.allocate()
        alloc.allocate()
        alloc.release(a)
        assert alloc._allocated == {a + 1}

    def test_reserved_start_rejected(self):
        with pytest.raises(ValueError):
            LabelAllocator(first=5)

    def test_exhaustion(self):
        alloc = LabelAllocator(first=LABEL_MAX)
        alloc.allocate()
        with pytest.raises(LabelSpaceExhausted):
            alloc.allocate()
