"""Tests for the 32-bit label stack entry (paper Figure 5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpls.errors import InvalidLabelError
from repro.mpls.label import (
    IMPLICIT_NULL,
    LABEL_MAX,
    LabelEntry,
    LabelOp,
    require_real_label,
)

labels = st.integers(min_value=0, max_value=LABEL_MAX)
cos_values = st.integers(min_value=0, max_value=7)
s_bits = st.integers(min_value=0, max_value=1)
ttls = st.integers(min_value=0, max_value=255)


class TestFieldValidation:
    def test_label_too_large(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry(label=1 << 20)

    def test_negative_label(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry(label=-1)

    def test_cos_range(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry(label=100, cos=8)

    def test_s_bit_range(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry(label=100, s=2)

    def test_ttl_range(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry(label=100, ttl=256)

    def test_valid_extremes(self):
        LabelEntry(label=LABEL_MAX, cos=7, s=1, ttl=255)
        LabelEntry(label=0, cos=0, s=0, ttl=0)


class TestEncoding:
    def test_figure5_layout(self):
        """Label in the top 20 bits, then 3 CoS bits, 1 S bit, 8 TTL."""
        entry = LabelEntry(label=0xABCDE, cos=0b101, s=1, ttl=0x7F)
        word = entry.encode()
        assert word >> 12 == 0xABCDE
        assert (word >> 9) & 0b111 == 0b101
        assert (word >> 8) & 1 == 1
        assert word & 0xFF == 0x7F

    def test_known_value(self):
        # label 500, cos 0, s 1, ttl 64 -> 500<<12 | 1<<8 | 64
        entry = LabelEntry(label=500, cos=0, s=1, ttl=64)
        assert entry.encode() == (500 << 12) | (1 << 8) | 64

    def test_decode_rejects_wide_word(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry.decode(1 << 32)

    def test_bytes_roundtrip_is_4_bytes(self):
        entry = LabelEntry(label=77, cos=3, s=0, ttl=12)
        data = entry.encode_bytes()
        assert len(data) == 4
        assert LabelEntry.decode_bytes(data) == entry

    def test_decode_bytes_wrong_length(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry.decode_bytes(b"\x00\x01\x02")

    @given(labels, cos_values, s_bits, ttls)
    def test_roundtrip_property(self, label, cos, s, ttl):
        entry = LabelEntry(label=label, cos=cos, s=s, ttl=ttl)
        assert LabelEntry.decode(entry.encode()) == entry
        assert LabelEntry.decode_bytes(entry.encode_bytes()) == entry

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_decode_encode_identity(self, word):
        assert LabelEntry.decode(word).encode() == word


class TestHelpers:
    def test_bottom_flag(self):
        assert LabelEntry(label=100, s=1).is_bottom
        assert not LabelEntry(label=100, s=0).is_bottom

    def test_decrement(self):
        entry = LabelEntry(label=100, ttl=2)
        assert entry.decremented().ttl == 1

    def test_decrement_zero_raises(self):
        with pytest.raises(InvalidLabelError):
            LabelEntry(label=100, ttl=0).decremented()

    def test_immutability(self):
        entry = LabelEntry(label=100)
        with pytest.raises(AttributeError):
            entry.label = 5  # type: ignore[misc]

    def test_str_contains_fields(self):
        text = str(LabelEntry(label=42, cos=1, s=1, ttl=9))
        assert "42" in text and "ttl=9" in text


class TestRequireRealLabel:
    def test_reserved_rejected(self):
        for reserved in (0, 1, 2, IMPLICIT_NULL, 15):
            with pytest.raises(InvalidLabelError):
                require_real_label(reserved)

    def test_real_accepted(self):
        assert require_real_label(16) == 16
        assert require_real_label(LABEL_MAX) == LABEL_MAX

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidLabelError):
            require_real_label(LABEL_MAX + 1)


class TestLabelOp:
    def test_two_bit_encoding(self):
        """The operation memory component is 2 bits wide (Figure 13)."""
        for op in LabelOp:
            assert 0 <= op.value <= 3

    def test_distinct_values(self):
        assert len({op.value for op in LabelOp}) == 4
