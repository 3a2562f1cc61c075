"""The one forwarding table against a stated model of a banked table.

:class:`BankedTable` states what an ILM or an FTN is, with a plain dict
per bank and nothing else: what a write does inside and outside a
shadow-bank transaction, which order the entries are read in, when the
generation moves and when a stale mark goes.  It shares no code with
:mod:`repro.mpls.tables`.  Each table and the model take the same random
sequence of writes, transactions and stale marks -- over FECs of mixed
and equal specificity, or over labels including reserved ones -- and
must agree after every step on iteration order, ``lookup``, ``len``,
``generation``, the stale listing and the type and message of every
error.  Three seeded mutants show the comparison is not vacuous.
"""

from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.mpls.errors import InvalidLabelError, NoRouteError
from repro.mpls.fec import CoSFEC, PrefixFEC
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.tables import FTN, ILM, Table
from repro.net.packet import IPv4Packet
from tests.strategies import examples, picks


class BankedTable:
    """A ``key -> NHLFE`` table with a shadow bank and stale marks.

    * Outside a transaction a write lands in the active bank, clears the
      key's stale mark and moves the generation by one.  Inside one it
      lands in the staged copy and only notes the key as refreshed.
    * An FTN reads its entries most specific first and, among equals, in
      the order they were last installed (a re-install moves an entry
      behind its equals).  An ILM reads them in the order each label was
      first installed.
    * ``commit`` makes the staged bank active and moves the generation
      once if a lookup could now answer differently: an FTN's ordered
      entries changed, an ILM's label -> NHLFE map changed.  It clears
      the stale mark of every key refreshed inside and drops the marks
      of keys that left.  ``rollback`` drops the staged bank.
    * A stale mark is set on an active key only; ``flush_stale`` removes
      the marked entries from the active bank (one generation step if
      any went) and forgets every mark.
    """

    def __init__(self, ftn: bool) -> None:
        self.ftn = ftn
        self.name, self.key = ("FTN", "FEC {!r}") if ftn else ("ILM", "label {}")
        self.active: Dict[Hashable, NHLFE] = {}
        self.staged: Optional[Dict[Hashable, NHLFE]] = None
        self.refreshed: Set[Hashable] = set()
        self.stale: Set[Hashable] = set()
        self.generation = 0

    def entries(self, bank=None) -> List[Tuple[Hashable, NHLFE]]:
        items = list((self.active if bank is None else bank).items())
        if self.ftn:
            items.sort(key=lambda item: -item[0].specificity)
        return items

    def answers(self, bank):
        """What a lookup reads: the ordered entries, or the map."""
        return self.entries(bank) if self.ftn else bank

    # -- the transaction ---------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self.staged is not None

    def begin(self) -> None:
        if self.staged is not None:
            raise RuntimeError(f"{self.name} transaction already open")
        self.staged, self.refreshed = dict(self.active), set()

    def commit(self) -> None:
        if self.staged is None:
            raise RuntimeError(f"no {self.name} transaction open")
        changed = self.answers(self.staged) != self.answers(self.active)
        self.active, self.staged = self.staged, None
        self.stale = (self.stale - self.refreshed) & set(self.active)
        self.refreshed = set()
        self.generation += changed

    def rollback(self) -> None:
        if self.staged is None:
            raise RuntimeError(f"no {self.name} transaction open")
        self.staged, self.refreshed = None, set()

    # -- writes ------------------------------------------------------
    def install(self, key: Hashable, nhlfe: NHLFE) -> None:
        if not self.ftn and key < 16:
            raise InvalidLabelError(
                f"label {key} is reserved (0..15) and cannot be assigned to an LSP"
            )
        bank = self.active if self.staged is None else self.staged
        if self.ftn:
            bank.pop(key, None)
        bank[key] = nhlfe
        if self.staged is None:
            self.stale.discard(key)
            self.generation += 1
        else:
            self.refreshed.add(key)

    def remove(self, key: Hashable) -> None:
        bank = self.active if self.staged is None else self.staged
        if key not in bank:
            raise KeyError(f"{self.key.format(key)} not installed")
        del bank[key]
        if self.staged is None:
            self.stale.discard(key)
            self.generation += 1

    def clear(self) -> None:
        if self.staged is not None:
            self.staged.clear()
            self.refreshed.clear()
        else:
            self.active.clear()
            self.stale.clear()
            self.generation += 1

    # -- stale marks -------------------------------------------------
    def mark_all_stale(self) -> int:
        self.stale = set(self.active)
        return len(self.stale)

    def mark_stale(self, key: Hashable) -> None:
        if key in self.active:
            self.stale.add(key)

    def is_stale(self, key: Hashable) -> bool:
        return key in self.stale

    def stale_keys(self) -> List[Hashable]:
        if self.ftn:
            return [key for key, _ in self.entries() if key in self.stale]
        return sorted(self.stale)

    def flush_stale(self) -> List[Hashable]:
        removed = self.stale_keys()
        for key in removed:
            del self.active[key]
        self.generation += bool(removed)
        self.stale = set()
        return removed

    stale_fecs = stale_labels = stale_keys

    # -- reads -------------------------------------------------------
    def __iter__(self):
        return iter(self.entries())

    def __len__(self) -> int:
        return len(self.active)

    def __contains__(self, label: int) -> bool:
        return label in self.active

    def get(self, label: int) -> Optional[NHLFE]:
        return self.active.get(label)

    def lookup(self, packet: IPv4Packet):
        for fec, nhlfe in self.entries():
            if fec.matches(packet):
                return fec, nhlfe
        raise NoRouteError(f"no FEC matches packet to {packet.dst}")


# Overlapping prefixes, two /24s and two hosts of equal specificity, and
# CoS wrappers that tie with each other: built afresh per draw, so a
# re-install hands the table an equal FEC that is a different object.
PREFIXES = ["10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "10.1.2.0/24",
            "10.1.1.7/32", "10.1.2.7/32"]


def fec(i: int):
    """Half the draws a plain prefix, half a CoS wrapper of one."""
    plain = PrefixFEC(PREFIXES[i % 6])
    return plain if i < 12 else CoSFEC(plain, (0, 46)[i % 2])


#: labels 14 and 15 are reserved: an ILM install of them is refused
def label(i: int) -> int:
    return 14 + i % 8


#: a step's kind by weight, out of 24: a transaction's ends drawn about
#: as often as a keyed write, so a commit that changed nothing comes up
KINDS = (
    ("install",) * 6 + ("remove", "mark_stale") * 3 + ("begin", "commit") * 4
    + ("clear", "rollback", "mark_all_stale", "flush_stale")
)


def steps_over(key):
    """Step lists over keys ``key(0..23)``: each step one draw of its
    kind, key, out label and next hop."""

    def step(raw):
        kind, which, out, hop = raw
        kind = KINDS[kind]
        if kind == "install":
            nhlfe = NHLFE(op=LabelOp.PUSH, out_label=16 + out, next_hop="pq"[hop])
            return kind, key(which), nhlfe
        if kind in ("remove", "mark_stale"):
            return kind, key(which)
        return (kind,)

    return st.lists(picks(len(KINDS), 24, 4, 2).map(step), max_size=40)


FTN_STEPS = steps_over(fec)
ILM_STEPS = steps_over(label)

PROBES = [
    IPv4Packet(src="192.0.2.1", dst=dst, dscp=dscp)
    for dst in ("10.1.1.7", "10.1.2.9", "10.9.9.9", "172.16.0.1")
    for dscp in (0, 46)
]


def outcome(fn: Callable[[], object]) -> Tuple[str, object, str]:
    """What ``fn`` did: its value, or its exception's type and message."""
    try:
        return ("ok", fn(), "")
    except (KeyError, RuntimeError, NoRouteError, InvalidLabelError) as exc:
        return ("raised", type(exc), str(exc))


def observe_ftn(table) -> Tuple[object, ...]:
    entries = list(table)
    return (
        entries,
        len(table),
        table.generation,
        table.stale_fecs(),
        [table.is_stale(fec) for fec, _ in entries],
        [outcome(lambda: table.lookup(packet)) for packet in PROBES],
    )


def observe_ilm(table) -> Tuple[object, ...]:
    entries = list(table)
    return (
        entries,
        len(table),
        table.generation,
        table.stale_labels(),
        [table.is_stale(label) for label, _ in entries],
        [(label in table, table.get(label)) for label in range(14, 22)],
    )


def replay(table, model: BankedTable, steps, observe) -> None:
    """Run ``steps`` on the table and the model, comparing after every one."""
    for op, *args in steps:
        got = outcome(lambda: getattr(table, op)(*args))
        want = outcome(lambda: getattr(model, op)(*args))
        assert got == want, (op, args)
        assert table.in_transaction == model.in_transaction
        assert observe(table) == observe(model), (op, args)


def check_ftn(steps) -> None:
    replay(FTN(), BankedTable(ftn=True), steps, observe_ftn)


def check_ilm(steps) -> None:
    replay(ILM(), BankedTable(ftn=False), steps, observe_ilm)


@settings(max_examples=examples(400), deadline=None)
@given(FTN_STEPS)
def test_the_ftn_is_the_banked_table(steps):
    check_ftn(steps)


@settings(max_examples=examples(400), deadline=None)
@given(ILM_STEPS)
def test_the_ilm_is_the_banked_table(steps):
    check_ilm(steps)


def test_a_commit_that_changed_nothing_keeps_the_generation():
    """Order counts as a change (a re-install moves an entry behind its
    equals), an identical re-install at the tail does not."""
    a, b = PrefixFEC("10.1.1.0/24"), PrefixFEC("10.1.2.0/24")
    nhlfe = NHLFE(op=LabelOp.PUSH, out_label=16, next_hop="p")
    for table in (FTN(), BankedTable(ftn=True)):
        table.install(a, nhlfe)
        table.install(b, nhlfe)
        generation = table.generation
        table.begin()
        table.install(PrefixFEC("10.1.2.0/24"), nhlfe)  # already last
        table.commit()
        assert table.generation == generation
        table.begin()
        table.install(PrefixFEC("10.1.1.0/24"), nhlfe)  # moves behind b
        table.commit()
        assert table.generation == generation + 1
        assert [fec for fec, _ in table] == [b, a]


def test_iteration_survives_a_write_made_while_iterating():
    table = FTN()
    nhlfe = NHLFE(op=LabelOp.PUSH, out_label=16, next_hop="p")
    for prefix in ("10.1.1.0/24", "10.1.2.0/24", "10.0.0.0/8"):
        table.install(PrefixFEC(prefix), nhlfe)
    seen = []
    for fec, _ in table:
        seen.append(fec)
        table.remove(fec)
    assert len(seen) == 3 and len(table) == 0


# -- seeded mutants: what the comparison must be able to tell apart ------------
def newest_first(bank):
    """Mutant: equal-specificity FECs ordered by recency, newest first."""
    return sorted(reversed(list(bank.items())), key=lambda pair: -pair[0].specificity)


#: the real body, which the mutant below calls before it is patched in
swap_in = Table._swap_in


def bumps_on_every_commit(self, staged) -> bool:
    """Mutant: a commit that changed nothing still moves the generation."""
    swap_in(self, staged)
    return True


MUTANTS = {
    "equal-specificity FECs ordered by recency": (
        FTN, "_ordered", staticmethod(newest_first), check_ftn, FTN_STEPS,
    ),
    "a commit that changed nothing bumps the generation": (
        Table, "_swap_in", bumps_on_every_commit, check_ilm, ILM_STEPS,
    ),
    "an ILM re-install moves the label last": (
        ILM, "_write", FTN.__dict__["_write"], check_ilm, ILM_STEPS,
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_seeded_mutant_is_caught(mutant, monkeypatch):
    cls, attr, body, check, cases = MUTANTS[mutant]
    monkeypatch.setattr(cls, attr, body)

    def caught(steps) -> bool:
        try:
            check(steps)
        except AssertionError:
            return True
        return False

    # raises NoSuchExample if 300 sequences cannot tell the mutant apart
    find(
        cases,
        caught,
        settings=settings(
            max_examples=300, database=None, derandomize=True,
            phases=[Phase.generate],  # any counterexample: no shrinking
        ),
    )
