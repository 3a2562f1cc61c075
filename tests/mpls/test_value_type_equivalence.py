"""Differential tests for the data plane's value types.

``LabelStack.push/pop/swap`` build their result from the tuple they
already hold and ``LabelEntry`` / ``IPv4Packet`` derive copies by
calling their constructor positionally.  The oracle here uses only the
public validating constructors: a stack is rebuilt from its whole entry
list (``LabelStack(entries)`` recomputes every S bit and checks the
depth), an entry or a packet is rebuilt field by field with keywords.
Both sides must give equal objects, equal hashes and equal wire bytes
after every step of a random operation sequence, and the same exception
type and message on every misuse.

Since the slotted value types (``@dataclass(frozen=True, slots=True)``)
the derivations skip ``__init__`` altogether: they fill the slots of a
new instance and re-check only the field that changed.  The two
``check_*`` helpers (called from the property tests above them too) and
``TestSlottedDerivations`` hold every one of them -- ``rewritten`` and
``FlowAggregate.with_template`` included -- to the same keyword rebuild,
check that a derived instance is as frozen, as dict-less and as copyable
as a constructed one, and show the checks catch two seeded mutants.
"""

import copy
import dataclasses
import pickle
from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpls.errors import (
    InvalidLabelError,
    StackDepthExceeded,
    StackUnderflow,
)
from repro.mpls.label import LABEL_MAX, LabelEntry
from repro.mpls.stack import LabelStack
from repro.mpls import label as label_module
from repro.net.addressing import IPv4Address
from repro.net.aggregate import FlowAggregate
from repro.net.packet import IPv4Packet, MPLSPacket

#: in-range fields with an arbitrary incoming S bit
entries = st.builds(
    LabelEntry,
    label=st.integers(0, LABEL_MAX),
    cos=st.integers(0, 7),
    s=st.integers(0, 1),
    ttl=st.integers(0, 255),
)
depths = st.sampled_from([None, 1, 2, 3, 5])

#: one step of a sequence: (operation, argument); the with_* arguments
#: reach past the field's range on purpose
ops = st.one_of(
    st.tuples(st.just("push"), entries),
    st.tuples(st.just("swap"), entries),
    st.tuples(st.sampled_from(["pop", "top", "decrement"]), st.none()),
    st.tuples(st.just("relabel"), st.integers(-1, LABEL_MAX + 2)),
    st.tuples(st.just("with_cos"), st.integers(-1, 9)),
    st.tuples(st.just("with_ttl"), st.integers(-1, 257)),
    st.tuples(st.just("with_s"), st.integers(-1, 2)),
)


def outcome(fn: Callable[[], object]) -> Tuple[str, object, str]:
    """What ``fn`` did: its value, or its exception's type and message."""
    try:
        return ("ok", fn(), "")
    except Exception as exc:  # the comparison is the point
        return ("raised", type(exc), str(exc))


def derived(top: LabelEntry, name: str, arg: Optional[int]) -> LabelEntry:
    """The copy under test: the entry's own method."""
    if name == "decrement":
        return top.decremented()
    if name == "relabel":
        # the swap's rewrite with the TTL kept: the label field's check
        return top.rewritten(arg, top.ttl)
    return getattr(top, name)(arg)


def rebuilt(top: LabelEntry, name: str, arg: Optional[int]) -> LabelEntry:
    """The oracle's copy: the public constructor, field by field."""
    fields = dict(label=top.label, cos=top.cos, s=top.s, ttl=top.ttl)
    if name == "decrement":
        if top.ttl == 0:
            raise InvalidLabelError("cannot decrement a zero TTL")
        fields["ttl"] = top.ttl - 1
    elif name == "relabel":
        fields["label"] = arg
    else:
        fields[name[len("with_"):]] = arg
    return LabelEntry(**fields)


def step(stack: LabelStack, name: str, arg: object) -> object:
    """One operation on the stack under test."""
    if name in ("push", "swap"):
        return getattr(stack, name)(arg)
    if name == "pop":
        return stack.pop()
    if name == "top":
        return stack.top
    # rewrite the top entry, as a transit hop does
    return stack.swap(derived(stack.top, name, arg))


class ReferenceStack:
    """The oracle: the entries as a plain list, made into a
    :class:`LabelStack` only through the public constructor."""

    def __init__(
        self, held: List[LabelEntry], max_depth: Optional[int]
    ) -> None:
        self.held = list(held)
        self.max_depth = max_depth

    def stack(self) -> LabelStack:
        return LabelStack(self.held, self.max_depth)

    def step(self, name: str, arg: object) -> object:
        if name == "push":
            if (
                self.max_depth is not None
                and len(self.held) + 1 > self.max_depth
            ):
                raise StackDepthExceeded(
                    f"push would exceed max depth {self.max_depth}"
                )
            self.held.insert(0, arg)
            return self.stack()
        if not self.held:
            raise StackUnderflow(
                {
                    "pop": "pop of an empty label stack",
                    "swap": "swap on an empty label stack",
                }.get(name, "top of an empty label stack")
            )
        top = self.stack().entries[0]
        if name == "top":
            return top
        if name == "pop":
            del self.held[0]
            return top, self.stack()
        self.held[0] = arg if name == "swap" else rebuilt(top, name, arg)
        return self.stack()


def assert_well_formed(stack: LabelStack) -> None:
    assert [e.s for e in stack] == [0] * (stack.depth - 1) + [1] * bool(stack)
    if stack.max_depth is not None:
        assert stack.depth <= stack.max_depth


def assert_same(stack: LabelStack, reference: LabelStack) -> None:
    assert stack == reference and reference == stack
    assert hash(stack) == hash(reference)
    assert stack.entries == reference.entries
    assert stack.max_depth == reference.max_depth
    assert stack.encode_bytes() == reference.encode_bytes()
    assert_well_formed(stack)


class TestConstructor:
    @given(st.lists(entries, max_size=6))
    def test_every_s_bit_recomputed_only_wrong_entries_rewritten(self, held):
        stack = LabelStack(held, max_depth=None)
        assert_well_formed(stack)
        bottom = len(held) - 1
        for i, (before, after) in enumerate(zip(held, stack)):
            assert after == LabelEntry(
                label=before.label, cos=before.cos,
                s=1 if i == bottom else 0, ttl=before.ttl,
            )
            if before.s == after.s:
                assert after is before

    @given(st.lists(entries, min_size=1, max_size=6), st.integers(0, 5))
    def test_depth_limit(self, held, max_depth):
        got = outcome(lambda: LabelStack(held, max_depth).depth)
        if len(held) > max_depth:
            assert got == (
                "raised",
                StackDepthExceeded,
                f"stack of depth {len(held)} exceeds limit {max_depth}",
            )
        else:
            assert got == ("ok", len(held), "")


class TestOperationSequences:
    @settings(max_examples=300)
    @given(st.lists(entries, max_size=3), depths, st.lists(ops, max_size=30))
    def test_every_step_matches_the_public_constructors(
        self, initial, max_depth, steps
    ):
        if max_depth is not None:
            initial = initial[:max_depth]
        stack = LabelStack(initial, max_depth)
        reference = ReferenceStack(initial, max_depth)
        inner = IPv4Packet(src="10.0.0.1", dst="10.0.0.2")
        for name, arg in steps:
            got = outcome(lambda: step(stack, name, arg))
            want = outcome(lambda: reference.step(name, arg))
            if got[0] == "raised" or name == "top":
                assert got == want, (name, arg)
                continue
            assert want[0] == "ok", (name, arg, want)
            if name == "pop":
                assert got[1][0] == want[1][0]
                assert hash(got[1][0]) == hash(want[1][0])
                stack, expected = got[1][1], want[1][1]
            else:
                stack, expected = got[1], want[1]
            assert_same(stack, expected)
            # the shapes flow caches key on and the wire carries
            packet, twin = MPLSPacket(stack, inner), MPLSPacket(expected, inner)
            assert packet == twin and hash(packet) == hash(twin)
            assert packet.serialize() == twin.serialize()
            if stack:
                assert LabelStack.decode_bytes(
                    stack.encode_bytes(), max_depth
                ) == stack

    @given(entries, ops.filter(lambda op: not isinstance(op[1], LabelEntry)))
    def test_derived_entries_match_a_field_by_field_rebuild(self, top, op):
        name, arg = op
        if name in ("pop", "top"):
            return
        got = outcome(lambda: derived(top, name, arg))
        want = outcome(lambda: rebuilt(top, name, arg))
        assert got == want
        if got[0] == "raised":
            assert got[1] is InvalidLabelError
        else:
            assert hash(got[1]) == hash(want[1])
            assert got[1].encode_bytes() == want[1].encode_bytes()
            check_entry_derivation(top, name, arg)


class TestMisuseMessages:
    """The exact errors of the parent commit, one by one."""

    def test_stack_misuse(self):
        full = LabelStack([LabelEntry(16), LabelEntry(17)], max_depth=2)
        with pytest.raises(StackDepthExceeded) as exc:
            full.push(LabelEntry(18))
        assert str(exc.value) == "push would exceed max depth 2"
        empty = LabelStack()
        for misuse, message in (
            (empty.pop, "pop of an empty label stack"),
            (lambda: empty.swap(LabelEntry(16)), "swap on an empty label stack"),
            (lambda: empty.top, "top of an empty label stack"),
        ):
            with pytest.raises(StackUnderflow) as exc:
                misuse()
            assert str(exc.value) == message

    def test_entry_misuse(self):
        entry = LabelEntry(label=100, cos=3, s=1, ttl=0)
        for misuse, message in (
            (lambda: entry.rewritten(LABEL_MAX + 1, 0),
             f"label {LABEL_MAX + 1} outside 20-bit range 0..{LABEL_MAX}"),
            (lambda: entry.with_cos(8), "CoS 8 outside 3-bit range"),
            (lambda: entry.with_s(2), "S bit must be 0 or 1, got 2"),
            (lambda: entry.with_ttl(256), "TTL 256 outside 8-bit range"),
            (entry.decremented, "cannot decrement a zero TTL"),
        ):
            with pytest.raises(InvalidLabelError) as exc:
                misuse()
            assert str(exc.value) == message

    def test_packet_misuse(self):
        packet = IPv4Packet(src="10.0.0.1", dst="10.0.0.2", ttl=0)
        for misuse, message in (
            (lambda: packet.with_ttl(256), "IPv4 TTL 256 out of range"),
            (lambda: packet.with_ttl(-1), "IPv4 TTL -1 out of range"),
            (packet.decremented, "cannot decrement a zero IPv4 TTL"),
        ):
            with pytest.raises(ValueError) as exc:
                misuse()
            assert str(exc.value) == message


packets = st.builds(
    IPv4Packet,
    src=st.integers(0, 0xFFFFFFFF),
    dst=st.integers(0, 0xFFFFFFFF).map(lambda v: str(IPv4Address(v))),
    ttl=st.integers(0, 255),
    dscp=st.integers(0, 63),
    protocol=st.sampled_from([1, 6, 17]),
    payload=st.binary(max_size=32),
    flow_id=st.integers(0, 1 << 32),
    seq=st.integers(0, 1 << 20),
    created_at=st.floats(0, 1e3),
)


class TestIPv4PacketCopies:
    @given(packets, st.integers(-1, 257))
    def test_with_ttl_matches_a_field_by_field_rebuild(self, packet, ttl):
        def oracle() -> IPv4Packet:
            return IPv4Packet(
                src=packet.src, dst=packet.dst, ttl=ttl, dscp=packet.dscp,
                protocol=packet.protocol, payload=packet.payload,
                flow_id=packet.flow_id, seq=packet.seq,
                created_at=packet.created_at, uid=packet.uid,
            )

        got, want = outcome(lambda: packet.with_ttl(ttl)), outcome(oracle)
        assert got == want
        if got[0] == "raised":
            assert got[1] is ValueError
            return
        copy = got[1]
        assert hash(copy) == hash(want[1])
        assert copy.serialize() == want[1].serialize()
        assert (copy.uid, copy.flow_id, copy.seq, copy.created_at) == (
            packet.uid, packet.flow_id, packet.seq, packet.created_at
        )
        assert copy.payload is packet.payload
        assert copy.src is packet.src and copy.dst is packet.dst
        check_packet_copy(packet, ttl)

    @given(packets)
    def test_decremented_is_with_ttl_minus_one(self, packet):
        got = outcome(packet.decremented)
        if packet.ttl == 0:
            assert got == (
                "raised", ValueError, "cannot decrement a zero IPv4 TTL"
            )
        else:
            assert got == ("ok", packet.with_ttl(packet.ttl - 1), "")
            assert got[1].uid == packet.uid

    @given(packets)
    def test_addresses_are_wrapped_whatever_they_came_as(self, packet):
        assert type(packet.src) is IPv4Address
        assert type(packet.dst) is IPv4Address


# -- the slotted derivations ---------------------------------------------------
def rebuilt_packet(packet: IPv4Packet, ttl: int) -> IPv4Packet:
    """The oracle's ``with_ttl``: the public constructor, by keyword."""
    return IPv4Packet(
        src=packet.src, dst=packet.dst, ttl=ttl, dscp=packet.dscp,
        protocol=packet.protocol, payload=packet.payload,
        flow_id=packet.flow_id, seq=packet.seq,
        created_at=packet.created_at, uid=packet.uid,
    )


def assert_value_twin(got: object, want: object) -> None:
    """Indistinguishable as values: equality both ways, hash, ``repr``,
    field by field, and -- where there is one -- the wire encoding."""
    assert type(got) is type(want)
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    for encode in ("encode_bytes", "serialize"):
        if hasattr(want, encode):
            assert getattr(got, encode)() == getattr(want, encode)()


def assert_behaves_like_a_constructed_one(derived: object) -> None:
    """Frozen, dict-less, and round-trips through every generic copy."""
    assert not hasattr(derived, "__dict__")
    cls = type(derived)
    names = [f.name for f in dataclasses.fields(derived)]
    assert names == list(cls.__slots__)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(derived, name, getattr(derived, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(derived, name)
    assert dataclasses.replace(derived) == derived
    if cls is LabelEntry:  # flat: ``asdict`` is its keyword arguments
        assert cls(**dataclasses.asdict(derived)) == derived
    for clone in (
        copy.copy(derived),
        copy.deepcopy(derived),
        pickle.loads(pickle.dumps(derived)),
        pickle.loads(pickle.dumps(derived, protocol=2)),
    ):
        assert_value_twin(clone, derived)


def check_entry_derivation(top: LabelEntry, name: str, arg: object) -> None:
    got = outcome(lambda: derived(top, name, arg))
    want = outcome(lambda: rebuilt(top, name, arg))
    assert got[0] == want[0], (name, arg, got, want)
    if got[0] == "raised":
        assert got == want
        assert got[1] is InvalidLabelError
        return
    assert_value_twin(got[1], want[1])
    assert_behaves_like_a_constructed_one(got[1])


def check_packet_copy(packet: IPv4Packet, ttl: int) -> None:
    got = outcome(lambda: packet.with_ttl(ttl))
    want = outcome(lambda: rebuilt_packet(packet, ttl))
    assert got[0] == want[0], (ttl, got, want)
    if got[0] == "raised":
        assert got == want
        assert got[1] is ValueError
        return
    copied = got[1]
    assert_value_twin(copied, want[1])
    assert (copied.uid, copied.flow_id, copied.seq) == (
        packet.uid, packet.flow_id, packet.seq
    )
    assert_behaves_like_a_constructed_one(copied)


#: every field's two range edges, one step inside and one step outside
ENTRY_EDGES = [
    ("relabel", -1), ("relabel", 0), ("relabel", LABEL_MAX),
    ("relabel", LABEL_MAX + 1),
    ("with_cos", -1), ("with_cos", 0), ("with_cos", 7), ("with_cos", 8),
    ("with_s", -1), ("with_s", 0), ("with_s", 1), ("with_s", 2),
    ("with_ttl", -1), ("with_ttl", 0), ("with_ttl", 255), ("with_ttl", 256),
    ("decrement", None),
]


class TestSlottedDerivations:
    @pytest.mark.parametrize("name,arg", ENTRY_EDGES)
    @pytest.mark.parametrize("ttl", [0, 1, 255])
    def test_entry_derivations_at_every_range_edge(self, name, arg, ttl):
        check_entry_derivation(LabelEntry(77, 5, 1, ttl), name, arg)

    @given(
        entries, st.integers(-1, LABEL_MAX + 2), st.integers(-1, 257)
    )
    def test_rewritten_is_the_four_field_constructor(self, top, label, ttl):
        got = outcome(lambda: top.rewritten(label, ttl))
        want = outcome(
            lambda: LabelEntry(label=label, cos=top.cos, s=top.s, ttl=ttl)
        )
        assert got[0] == want[0]
        if got[0] == "raised":
            # both fields changed, so both are checked, label first
            assert got == want
        else:
            assert_value_twin(got[1], want[1])
            assert_behaves_like_a_constructed_one(got[1])

    @given(packets, st.lists(entries, min_size=1, max_size=3))
    def test_with_stack_and_with_template(self, inner, held):
        stack, other = LabelStack(held), LabelStack(held[:1])
        labelled = MPLSPacket(other, inner).with_stack(stack)
        assert_value_twin(labelled, MPLSPacket(stack=stack, inner=inner))
        assert labelled.inner is inner and labelled.stack is stack
        assert_behaves_like_a_constructed_one(labelled)
        train = FlowAggregate(inner, 9, 0.25).with_template(labelled)
        assert_value_twin(
            train,
            FlowAggregate(template=labelled, count=9, interval=0.25),
        )
        assert train.template.inner.flow_id == inner.flow_id and train.is_aggregate
        assert not labelled.is_aggregate and not inner.is_aggregate
        assert_behaves_like_a_constructed_one(train)

    def test_generic_dataclass_tools_still_validate(self):
        entry = LabelEntry(100, 3, 1, 9).decremented()
        assert dataclasses.asdict(entry) == dict(
            label=100, cos=3, s=1, ttl=8
        )
        assert dataclasses.replace(entry, ttl=7) == LabelEntry(100, 3, 1, 7)
        with pytest.raises(InvalidLabelError):
            dataclasses.replace(entry, ttl=256)
        packet = IPv4Packet(src="10.0.0.1", dst="10.0.0.2").with_ttl(3)
        assert dataclasses.replace(packet, dscp=46).uid == packet.uid
        with pytest.raises(ValueError):
            dataclasses.replace(packet, dscp=64)

    # -- the suite must be able to fail: two seeded mutants -----------------
    def test_catches_a_derivation_that_skips_its_check(self, monkeypatch):
        def unchecked_with_ttl(self, ttl):
            return label_module._copy(self.label, self.cos, self.s, ttl)

        monkeypatch.setattr(LabelEntry, "with_ttl", unchecked_with_ttl)
        check_entry_derivation(LabelEntry(77, 5, 1, 9), "with_ttl", 255)
        with pytest.raises(AssertionError):
            check_entry_derivation(LabelEntry(77, 5, 1, 9), "with_ttl", 256)

    def test_catches_a_copy_that_drops_the_uid(self, monkeypatch):
        def fresh_uid_with_ttl(self, ttl):
            return IPv4Packet(
                self.src, self.dst, ttl, self.dscp, self.protocol,
                self.payload, self.flow_id, self.seq, self.created_at,
            )

        packet = IPv4Packet(src="10.0.0.1", dst="10.0.0.2")
        check_packet_copy(packet, 9)
        monkeypatch.setattr(IPv4Packet, "with_ttl", fresh_uid_with_ttl)
        with pytest.raises(AssertionError):
            check_packet_copy(packet, 9)
