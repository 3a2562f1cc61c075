"""Tests for IPv4 addressing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addressing import IPv4Address, IPv4Prefix

addr_ints = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestIPv4Address:
    def test_from_string(self):
        assert IPv4Address("10.0.0.1").value == (10 << 24) | 1

    def test_from_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_from_address(self):
        a = IPv4Address("1.2.3.4")
        assert IPv4Address(a) == a

    def test_bad_string(self):
        for bad in ("10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5"):
            with pytest.raises(ValueError):
                IPv4Address(bad)

    def test_bad_int(self):
        with pytest.raises(ValueError):
            IPv4Address(1 << 32)
        with pytest.raises(ValueError):
            IPv4Address(-1)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            IPv4Address(1.5)  # type: ignore[arg-type]

    def test_equality_with_string_and_int(self):
        a = IPv4Address("10.0.0.1")
        assert a == "10.0.0.1"
        assert a == 0x0A000001

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")

    def test_equality_with_a_string_that_is_no_address(self):
        a = IPv4Address("10.0.0.1")
        assert (a == "hello") is False and (a != "hello") is True
        assert (a == "10.0.0") is False and (a == "10.0.0.256") is False
        assert a in ["x", a] and a in ["x", "10.0.0.1"]
        assert ["x", "y"].count(a) == 0
        # what did hold still holds
        assert a == "10.0.0.1" and a == 0x0A000001 and a != "10.0.0.2"
        assert (a == 1.5) is False and a.__eq__(None) is NotImplemented

    def test_ordering_against_a_non_address(self):
        a = IPv4Address("10.0.0.1")
        for other in ("hello", None, 1.5, 1 << 32, "10.0.0.256"):
            assert a.__lt__(other) is NotImplemented
            with pytest.raises(TypeError):
                a < other
        assert a < "10.0.0.2" and a < 0x0A000002  # wrapped, as before
        assert sorted([IPv4Address(3), IPv4Address(1)])[0] == 1

    @pytest.mark.parametrize(
        "text",
        [
            "\u0661\u0660.\u0660.\u0660.\u0661",  # Arabic-Indic 10.0.0.1
            "1.2.3.\u00b2",  # superscript two: isdigit(), not int()
            "1.2.3." + "7" * 5000,  # past int()'s digit limit
            "1.2.3.0255", "1.2.3.", "1.2.3.-4", "1.2.3.+4", "1.2.3. 4",
            "1.2.3.4\n", "\uff11.2.3.4",  # full-width one
        ],
    )
    def test_only_ascii_decimal_octets(self, text):
        with pytest.raises(ValueError) as exc:
            IPv4Address(text)
        assert str(exc.value) == f"{text!r} is not dotted-quad IPv4"
        assert (IPv4Address("1.2.3.4") == text) is False

    def test_octet_range_message_unchanged(self):
        with pytest.raises(ValueError) as exc:
            IPv4Address("1.2.3.256")
        assert str(exc.value) == "octet 256 out of range in '1.2.3.256'"
        assert IPv4Address("001.02.3.004") == "1.2.3.4"

    def test_hashable(self):
        assert len({IPv4Address("1.1.1.1"), IPv4Address("1.1.1.1")}) == 1

    def test_bytes_roundtrip(self):
        a = IPv4Address("172.16.254.3")
        assert IPv4Address.from_bytes(a.to_bytes()) == a

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            IPv4Address.from_bytes(b"\x01\x02\x03")

    @given(addr_ints)
    def test_string_roundtrip(self, value):
        a = IPv4Address(value)
        assert IPv4Address(str(a)) == a


class TestIPv4Prefix:
    def test_combined_syntax(self):
        p = IPv4Prefix("10.1.0.0/16")
        assert p.length == 16
        assert str(p) == "10.1.0.0/16"

    def test_canonicalization(self):
        assert IPv4Prefix("10.1.2.3/16") == IPv4Prefix("10.1.0.0/16")

    def test_split_syntax(self):
        assert IPv4Prefix("10.0.0.0", 8).length == 8

    def test_double_length_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix("10.0.0.0/8", 16)

    def test_length_range(self):
        with pytest.raises(ValueError):
            IPv4Prefix("10.0.0.0", 33)

    def test_contains(self):
        p = IPv4Prefix("10.0.0.0/8")
        assert p.contains("10.255.255.255")
        assert not p.contains("11.0.0.0")
        assert "10.1.2.3" in p

    def test_zero_length_contains_everything(self):
        p = IPv4Prefix("0.0.0.0/0")
        assert p.contains("255.255.255.255")

    def test_host_prefix(self):
        p = IPv4Prefix("10.0.0.1")
        assert p.length == 32
        assert p.contains("10.0.0.1")
        assert not p.contains("10.0.0.2")

    def test_overlaps(self):
        assert IPv4Prefix("10.0.0.0/8").overlaps(IPv4Prefix("10.1.0.0/16"))
        assert IPv4Prefix("10.1.0.0/16").overlaps(IPv4Prefix("10.0.0.0/8"))
        assert not IPv4Prefix("10.0.0.0/8").overlaps(IPv4Prefix("11.0.0.0/8"))

    def test_hashable(self):
        assert len({IPv4Prefix("10.0.0.0/8"), IPv4Prefix("10.3.0.0/8")}) == 1

    @given(addr_ints, st.integers(min_value=0, max_value=32))
    def test_network_contains_itself(self, value, length):
        p = IPv4Prefix(value, length)
        assert p.contains(p.network)

    @given(addr_ints, st.integers(min_value=0, max_value=32))
    def test_contains_iff_masked_equal(self, value, length):
        p = IPv4Prefix("128.0.0.0", length)
        expected = (value & p.mask) == p.network.value
        assert p.contains(value) == expected
