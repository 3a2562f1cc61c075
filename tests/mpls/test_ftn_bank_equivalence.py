"""Differential tests for the keyed banks of the one forwarding table.

:class:`ListFTN` is the FTN as it was while each bank was a list kept
most-specific-first: every ``install`` and ``remove`` rebuilt the list
through FEC equality and re-sorted it.  :class:`StandaloneILM` is the
ILM as it was before ILM and FTN became subclasses of one ``Table``,
with its own copy of the shadow-bank transaction, stale marking and
generation counter.  They are the oracles; they exist only here.  Each
table and its oracle take the same random sequence of writes,
transactions and stale marks -- over FECs of mixed and equal
specificity, or over labels including reserved ones -- and must agree
after every step on iteration order, ``lookup``, ``len``,
``generation``, the stale listing and the type and message of every
error.
"""

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpls.errors import InvalidLabelError, NoRouteError
from repro.mpls.fec import FEC, CoSFEC, PrefixFEC
from repro.mpls.label import LabelOp, require_real_label
from repro.mpls.nhlfe import NHLFE
from repro.mpls.tables import FTN, ILM
from repro.net.packet import IPv4Packet


class ListFTN:
    """The list-rebuilding FTN."""

    def __init__(self) -> None:
        self._entries: List[Tuple[FEC, NHLFE]] = []
        self._staged: Optional[List[Tuple[FEC, NHLFE]]] = None
        self._staged_refreshed: Set[FEC] = set()
        self._stale: Set[FEC] = set()
        self.generation = 0

    def begin(self) -> None:
        if self._staged is not None:
            raise RuntimeError("FTN transaction already open")
        self._staged = list(self._entries)
        self._staged_refreshed = set()

    def commit(self) -> None:
        if self._staged is None:
            raise RuntimeError("no FTN transaction open")
        changed = self._staged != self._entries
        self._entries = self._staged
        self._stale -= self._staged_refreshed
        self._stale &= {f for f, _ in self._entries}
        self._staged = None
        self._staged_refreshed = set()
        if changed:
            self.generation += 1

    def rollback(self) -> None:
        if self._staged is None:
            raise RuntimeError("no FTN transaction open")
        self._staged = None
        self._staged_refreshed = set()

    def install(self, fec: FEC, nhlfe: NHLFE) -> None:
        if self._staged is not None:
            self._staged = [(f, n) for f, n in self._staged if f != fec]
            self._staged.append((fec, nhlfe))
            self._staged.sort(key=lambda pair: -pair[0].specificity)
            self._staged_refreshed.add(fec)
        else:
            self._entries = [(f, n) for f, n in self._entries if f != fec]
            self._entries.append((fec, nhlfe))
            self._entries.sort(key=lambda pair: -pair[0].specificity)
            self._stale.discard(fec)
            self.generation += 1

    def remove(self, fec: FEC) -> None:
        bank = self._staged if self._staged is not None else self._entries
        before = len(bank)
        kept = [(f, n) for f, n in bank if f != fec]
        if len(kept) == before:
            raise KeyError(f"FEC {fec!r} not installed")
        if self._staged is not None:
            self._staged = kept
        else:
            self._entries = kept
            self._stale.discard(fec)
            self.generation += 1

    def lookup(self, packet: IPv4Packet) -> Tuple[FEC, NHLFE]:
        for fec, nhlfe in self._entries:
            if fec.matches(packet):
                return fec, nhlfe
        raise NoRouteError(f"no FEC matches packet to {packet.dst}")

    def entry_for(self, fec: FEC) -> Optional[NHLFE]:
        # the scan three callers used to spell out for themselves
        return next((n for f, n in self._entries if f == fec), None)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[FEC, NHLFE]]:
        return iter(self._entries)

    def clear(self) -> None:
        if self._staged is not None:
            self._staged.clear()
            self._staged_refreshed.clear()
        else:
            self._entries.clear()
            self._stale.clear()
            self.generation += 1

    def mark_all_stale(self) -> int:
        self._stale = {f for f, _ in self._entries}
        return len(self._stale)

    def mark_stale(self, fec: FEC) -> None:
        if any(f == fec for f, _ in self._entries):
            self._stale.add(fec)

    def is_stale(self, fec: FEC) -> bool:
        return fec in self._stale

    def stale_fecs(self) -> List[FEC]:
        return [f for f, _ in self._entries if f in self._stale]

    def flush_stale(self) -> List[FEC]:
        removed = [f for f, _ in self._entries if f in self._stale]
        if removed:
            self._entries = [
                (f, n) for f, n in self._entries if f not in self._stale
            ]
            self.generation += 1
        self._stale.clear()
        return removed


class StandaloneILM:
    """Incoming Label Map: ``label -> NHLFE``.

    Lookups are per-platform label space (one table per router), which
    is what the paper's single information base models.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, NHLFE] = {}
        self._staged: Optional[Dict[int, NHLFE]] = None
        self._staged_refreshed: Set[int] = set()
        self._stale: Set[int] = set()
        self.generation = 0

    # -- shadow-bank transaction ------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._staged is not None

    def begin(self) -> None:
        """Open a transaction: further mutations go to a shadow bank."""
        if self._staged is not None:
            raise RuntimeError("ILM transaction already open")
        self._staged = dict(self._entries)
        self._staged_refreshed = set()

    def commit(self) -> None:
        """Atomically swap the shadow bank in (one generation bump).

        A commit that changed nothing skips the bump, so hardware nodes
        don't resynchronize their info base for a no-op swap."""
        if self._staged is None:
            raise RuntimeError("no ILM transaction open")
        changed = self._staged != self._entries
        self._entries = self._staged
        self._stale -= self._staged_refreshed
        self._stale &= set(self._entries)
        self._staged = None
        self._staged_refreshed = set()
        if changed:
            self.generation += 1

    def rollback(self) -> None:
        """Discard the shadow bank; the active table is untouched."""
        if self._staged is None:
            raise RuntimeError("no ILM transaction open")
        self._staged = None
        self._staged_refreshed = set()

    # -- mutation ---------------------------------------------------

    def install(self, label: int, nhlfe: NHLFE) -> None:
        require_real_label(label)
        if self._staged is not None:
            self._staged[label] = nhlfe
            self._staged_refreshed.add(label)
        else:
            self._entries[label] = nhlfe
            self._stale.discard(label)
            self.generation += 1

    def remove(self, label: int) -> None:
        bank = self._staged if self._staged is not None else self._entries
        if label not in bank:
            raise KeyError(f"label {label} not installed")
        del bank[label]
        if self._staged is None:
            self._stale.discard(label)
            self.generation += 1

    def get(self, label: int) -> Optional[NHLFE]:
        return self._entries.get(label)

    def __contains__(self, label: int) -> bool:
        return label in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[int, NHLFE]]:
        return iter(self._entries.items())


    def clear(self) -> None:
        if self._staged is not None:
            self._staged.clear()
            self._staged_refreshed.clear()
        else:
            self._entries.clear()
            self._stale.clear()
            self.generation += 1

    # -- graceful-restart stale marking -----------------------------

    def mark_all_stale(self) -> int:
        """Stale-mark every installed entry; returns how many."""
        self._stale = set(self._entries)
        return len(self._stale)

    def mark_stale(self, label: int) -> None:
        if label in self._entries:
            self._stale.add(label)

    def is_stale(self, label: int) -> bool:
        return label in self._stale

    def stale_labels(self) -> List[int]:
        return sorted(self._stale)

    def flush_stale(self) -> List[int]:
        """Remove entries still stale-marked (hold timer expired)."""
        removed = sorted(self._stale & set(self._entries))
        for label in removed:
            del self._entries[label]
        self._stale.clear()
        if removed:
            self.generation += 1
        return removed


# Overlapping prefixes, two /24s and two hosts of equal specificity, and
# CoS wrappers that tie with each other: built afresh per draw, so a
# re-install hands the table an equal FEC that is a different object.
plain_fecs = st.one_of(
    st.sampled_from(
        ["10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "10.1.2.0/24"]
    ).map(PrefixFEC),
    st.sampled_from(["10.1.1.7/32", "10.1.2.7/32"]).map(PrefixFEC),
)
fecs = st.one_of(
    plain_fecs, st.builds(CoSFEC, plain_fecs, st.sampled_from([0, 46]))
)
nhlfes = st.builds(
    NHLFE,
    op=st.just(LabelOp.PUSH),
    out_label=st.integers(16, 19),
    next_hop=st.sampled_from(["p", "q"]),
)
#: labels 14 and 15 are reserved: an ILM install of them is refused
labels = st.integers(14, 21)


def ops_over(keys):
    """One table step: a keyed write or mark, or a whole-table call."""
    return st.one_of(
        st.tuples(st.just("install"), keys, nhlfes),
        st.tuples(st.sampled_from(["remove", "mark_stale"]), keys),
        st.tuples(
            st.sampled_from([
                "clear", "begin", "commit", "rollback", "mark_all_stale",
                "flush_stale",
            ])
        ),
    )


ops = ops_over(fecs)

PROBES = [
    IPv4Packet(src="192.0.2.1", dst=dst, dscp=dscp)
    for dst in ("10.1.1.7", "10.1.2.9", "10.9.9.9", "172.16.0.1")
    for dscp in (0, 46)
]


def outcome(fn: Callable[[], object]) -> Tuple[str, object, str]:
    """What ``fn`` did: its value, or its exception's type and message."""
    try:
        return ("ok", fn(), "")
    except (
        KeyError, RuntimeError, NoRouteError,
        InvalidLabelError,
    ) as exc:
        return ("raised", type(exc), str(exc))


def observe(table) -> Tuple[object, ...]:
    entries = list(table)
    return (
        entries,
        len(table),
        table.generation,
        table.stale_fecs(),
        [table.is_stale(fec) for fec, _ in entries],
        [table.entry_for(fec) for fec, _ in entries],
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


def replay(new, old, steps, observe) -> None:
    """Run ``steps`` on both tables, comparing after every one."""
    for op, *args in steps:
        got = outcome(lambda: getattr(new, op)(*args))
        want = outcome(lambda: getattr(old, op)(*args))
        assert got == want, (op, args)
        assert new.in_transaction == (old._staged is not None)
        assert observe(new) == observe(old), (op, args)


@settings(max_examples=400, deadline=None)
@given(steps=st.lists(ops, max_size=40))
def test_keyed_banks_match_the_rebuilt_lists(steps):
    replay(FTN(), ListFTN(), steps, observe)


@settings(max_examples=400, deadline=None)
@given(steps=st.lists(ops_over(labels), max_size=40))
def test_the_shared_table_matches_the_standalone_ilm(steps):
    replay(ILM(), StandaloneILM(), steps, observe_ilm)


def test_a_commit_that_changed_nothing_keeps_the_generation():
    """Order counts as a change (a re-install moves an entry behind its
    equals), an identical re-install at the tail does not."""
    a, b = PrefixFEC("10.1.1.0/24"), PrefixFEC("10.1.2.0/24")
    nhlfe = NHLFE(op=LabelOp.PUSH, out_label=16, next_hop="p")
    for table in (FTN(), ListFTN()):
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
