"""Tests for label stack semantics (paper Figure 4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpls.errors import StackDepthExceeded, StackUnderflow
from repro.mpls.label import LABEL_MAX, LabelEntry
from repro.mpls.stack import DEFAULT_MAX_DEPTH, LabelStack

entries = st.builds(
    LabelEntry,
    label=st.integers(min_value=0, max_value=LABEL_MAX),
    cos=st.integers(min_value=0, max_value=7),
    ttl=st.integers(min_value=0, max_value=255),
)


class TestConstruction:
    def test_empty(self):
        stack = LabelStack()
        assert stack.is_empty
        assert stack.depth == 0

    def test_s_bits_computed(self):
        """Only the bottom entry carries S=1, regardless of input bits."""
        stack = LabelStack(
            [
                LabelEntry(label=100, s=1),  # wrong S on purpose
                LabelEntry(label=200, s=1),
                LabelEntry(label=300, s=0),  # wrong S on purpose
            ]
        )
        assert [e.s for e in stack] == [0, 0, 1]

    def test_depth_limit_enforced_at_construction(self):
        with pytest.raises(StackDepthExceeded):
            LabelStack([LabelEntry(label=i + 16) for i in range(4)])

    def test_unlimited_depth(self):
        stack = LabelStack(
            [LabelEntry(label=i + 16) for i in range(10)], max_depth=None
        )
        assert stack.depth == 10

    def test_paper_depth_default_is_three(self):
        """The hardware information base has exactly three levels."""
        assert DEFAULT_MAX_DEPTH == 3


class TestOperations:
    def test_push_puts_on_top(self):
        stack = LabelStack([LabelEntry(label=100)])
        stack2 = stack.push(LabelEntry(label=200))
        assert stack2.top.label == 200
        assert stack2.depth == 2

    def test_push_is_persistent(self):
        stack = LabelStack([LabelEntry(label=100)])
        stack.push(LabelEntry(label=200))
        assert stack.depth == 1  # original unchanged

    def test_push_overflow(self):
        stack = LabelStack([LabelEntry(label=i + 16) for i in range(3)])
        with pytest.raises(StackDepthExceeded):
            stack.push(LabelEntry(label=99))

    def test_pop_returns_top_and_rest(self):
        stack = LabelStack([LabelEntry(label=100), LabelEntry(label=200)])
        top, rest = stack.pop()
        assert top.label == 100
        assert rest.depth == 1
        assert rest.top.label == 200

    def test_pop_restores_s_bit(self):
        stack = LabelStack([LabelEntry(label=100), LabelEntry(label=200)])
        _, rest = stack.pop()
        assert rest.top.is_bottom

    def test_pop_empty_raises(self):
        with pytest.raises(StackUnderflow):
            LabelStack().pop()

    def test_top_empty_raises(self):
        with pytest.raises(StackUnderflow):
            LabelStack().top

    def test_swap_replaces_top_only(self):
        stack = LabelStack([LabelEntry(label=100), LabelEntry(label=200)])
        swapped = stack.swap(LabelEntry(label=300))
        assert swapped.top.label == 300
        assert swapped.entries[1].label == 200

    def test_swap_empty_raises(self):
        with pytest.raises(StackUnderflow):
            LabelStack().swap(LabelEntry(label=300))

    def test_equality_and_hash(self):
        a = LabelStack([LabelEntry(label=100)])
        b = LabelStack([LabelEntry(label=100)])
        assert a == b
        assert hash(a) == hash(b)

    @given(st.lists(entries, max_size=3))
    def test_push_pop_inverse(self, items):
        stack = LabelStack(items)
        if stack.depth < 3:
            entry = LabelEntry(label=12345)
            pushed = stack.push(entry)
            top, rest = pushed.pop()
            assert top.label == 12345
            assert rest == stack

    @given(st.lists(entries, min_size=1, max_size=3))
    def test_s_bit_invariant(self, items):
        stack = LabelStack(items)
        assert stack.entries[-1].is_bottom
        assert all(not e.is_bottom for e in stack.entries[:-1])


class TestWireFormat:
    def test_roundtrip(self):
        stack = LabelStack(
            [LabelEntry(label=100, ttl=10), LabelEntry(label=200, ttl=20)]
        )
        assert LabelStack.decode_bytes(stack.encode_bytes()) == stack

    def test_wire_length(self):
        stack = LabelStack([LabelEntry(label=100), LabelEntry(label=200)])
        data = stack.encode_bytes() + b"extra payload"
        assert LabelStack.wire_length(data) == 8

    def test_wire_length_no_bottom(self):
        entry = LabelEntry(label=100, s=0)
        with pytest.raises(ValueError):
            LabelStack.wire_length(entry.encode_bytes())

    def test_decode_trailing_bytes_rejected(self):
        stack = LabelStack([LabelEntry(label=100)])
        with pytest.raises(ValueError):
            LabelStack.decode_bytes(stack.encode_bytes() + b"\x00" * 4)

    def test_decode_missing_bottom_rejected(self):
        entry = LabelEntry(label=100, s=0)
        with pytest.raises(ValueError):
            LabelStack.decode_bytes(entry.encode_bytes())

    @given(st.lists(entries, min_size=1, max_size=3))
    def test_roundtrip_property(self, items):
        stack = LabelStack(items)
        assert LabelStack.decode_bytes(stack.encode_bytes()) == stack
