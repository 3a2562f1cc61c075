"""The flow key and the label-stack memo it reads.

``key_of`` hashes a labelled packet through its stack's memo
(:meth:`LabelStack.key`), worked out once per stack object.  The memo
must tell flows apart exactly as the fields the engine consults do: a
Hypothesis property compares ``key_of`` equality with the equality of
those fields, read straight off the packets, and a seeded mutant whose
memo drops the CoS column shows the property is not vacuous.  A stack
built by ``push`` / ``pop`` / ``swap`` starts without a memo, so a key
never outlives the entries it was worked out from.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.mpls.fastpath import key_of
from repro.mpls.label import LabelEntry
from repro.mpls.router import stack_labels
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket
from tests.strategies import examples

# small alphabets, so that equal fields are drawn often
entries = st.builds(
    LabelEntry,
    label=st.sampled_from((16, 17)),
    cos=st.sampled_from((0, 5)),
    ttl=st.sampled_from((1, 64)),
)
inner_packets = st.builds(
    IPv4Packet,
    src=st.just("10.1.0.5"),
    dst=st.sampled_from(("10.2.0.1", "10.2.0.2")),
    ttl=st.sampled_from((8, 9)),
    dscp=st.sampled_from((0, 46)),
)


@st.composite
def labelled_packets(draw):
    max_depth = draw(st.sampled_from((None, 3)))
    stack = LabelStack(draw(st.lists(entries, max_size=3)), max_depth)
    return MPLSPacket(stack, draw(inner_packets))


packets = st.one_of(inner_packets, labelled_packets())


def consulted(packet):
    """The fields the engine consults, read without the memo."""
    if isinstance(packet, MPLSPacket):
        return (
            "mpls",
            tuple((e.label, e.cos, e.s, e.ttl) for e in packet.stack.entries),
            packet.stack.max_depth,
            packet.inner.ttl,
        )
    return ("ip", str(packet.dst), packet.ttl, packet.dscp)


def _same_key_iff_same_fields(a, b):
    same = key_of(a) == key_of(b)
    assert same == (consulted(a) == consulted(b)), (a, b)
    if same:
        assert hash(key_of(a)) == hash(key_of(b))
    # a second read is the stored memo, and the same key
    assert key_of(a) == key_of(a)


@settings(max_examples=examples(300), deadline=None)
@given(packets, packets)
def test_equal_keys_iff_equal_consulted_fields(a, b):
    _same_key_iff_same_fields(a, b)


def test_a_memo_that_drops_cos_is_caught(monkeypatch):
    def without_cos(self):
        es = self.entries
        key = self._key = (
            tuple([e.label for e in es]),
            tuple([e.s for e in es]),
            tuple([e.ttl for e in es]),
            self.max_depth,
        )
        return key

    monkeypatch.setattr(LabelStack, "key", without_cos)
    generated = settings(
        max_examples=300, deadline=None, database=None, derandomize=True,
        phases=(Phase.explicit, Phase.generate),
    )(given(packets, packets)(_same_key_iff_same_fields))
    with pytest.raises(AssertionError):
        generated()


# -- the memo belongs to one stack --------------------------------------------
def _stack():
    return LabelStack([LabelEntry(20, cos=3, ttl=9), LabelEntry(21, ttl=7)])


@pytest.mark.parametrize(
    "derive",
    [
        lambda s: s.push(LabelEntry(30, cos=1, ttl=5)),
        lambda s: s.pop()[1],
        lambda s: s.swap(LabelEntry(40, ttl=8)),
    ],
    ids=["push", "pop", "swap"],
)
def test_a_derived_stack_starts_without_its_parents_memo(derive):
    parent = _stack()
    parent_key = parent.key()
    child = derive(parent)
    assert child._key is None
    assert child.key() == LabelStack(child.entries, child.max_depth).key()
    assert child.key() != parent_key
    assert parent._key is parent_key


def test_the_key_is_worked_out_once_per_stack():
    stack = _stack()
    first = key_of(MPLSPacket(stack, IPv4Packet("10.1.0.5", "10.2.0.1")))
    second = key_of(MPLSPacket(stack, IPv4Packet("10.1.0.6", "10.2.0.9")))
    assert first == second
    assert first[0] is second[0] is stack._key


def test_stack_labels_is_the_memos_label_column():
    stack = _stack()
    packet = MPLSPacket(stack, IPv4Packet("10.1.0.5", "10.2.0.1"))
    assert stack_labels(packet) == (20, 21)
    assert stack_labels(packet) is stack._key[0]
    assert stack_labels(IPv4Packet("10.1.0.5", "10.2.0.1")) == ()
