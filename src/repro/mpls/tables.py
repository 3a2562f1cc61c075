"""The forwarding tables of RFC 3031: one :class:`Table`, two keys.

The paper's information base is one memory structure used at three
levels, keyed by a 32-bit packet identifier at level 1 and by a label
at levels 2 and 3.  The software side mirrors that: :class:`Table` is
the one banked, stale-aware ``key -> NHLFE`` map, and its two
subclasses differ only in their key and their lookup.

* :class:`ILM` (Incoming Label Map) maps an incoming label to an NHLFE.
  This is what the paper's information base implements in hardware for
  levels 2 and 3 (label -> new label + operation).
* :class:`FTN` (FEC-To-NHLFE) maps a forwarding equivalence class to an
  NHLFE at the ingress LER, resolved most-specific-first.  The hardware
  realizes the common case -- destination-address keying -- as
  information-base level 1, where the index memory holds 32-bit packet
  identifiers.

Every table tracks a generation counter so the embedded architecture can
tell when the software control plane has changed it and the hardware
information base needs re-synchronizing.

Two robustness mechanisms sit on top of the plain map:

* **Shadow-bank transactions** (``begin`` / ``commit`` / ``rollback``).
  While a transaction is open, mutations go to a staged copy of the
  table; lookups keep reading the active bank.  ``commit`` swaps the
  banks in one step and bumps the generation exactly once, which is the
  software analogue of the hardware driver's double-buffered info-base
  banks -- no packet ever observes a half-programmed table, and a crash
  mid-transaction rolls back to the pre-transaction state.
* **Stale marking** (RFC 3478-style graceful restart).  When a node's
  control plane restarts warm, surviving entries are stale-marked and
  keep forwarding; a re-``install`` refreshes an entry in place, and
  ``flush_stale`` removes whatever was never refreshed once the
  forwarding-state holding timer expires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.mpls.errors import NoRouteError
from repro.mpls.label import require_real_label

if TYPE_CHECKING:  # annotation-only; avoids the fec <-> net import cycle
    from repro.mpls.fec import FEC
from repro.mpls.nhlfe import NHLFE
from repro.net.packet import IPv4Packet


class Table:
    """A banked, stale-aware ``key -> NHLFE`` map.

    Subclasses name the key and the table (:attr:`KEY`, :attr:`NAME`)
    and say what differs about their writes through the small hooks at
    the bottom of the class, and define ``_stale_keys()``: the
    stale-marked keys, in the order a flush removes them.
    """

    #: the table's name in transaction errors
    NAME: str
    #: how a key is named in the ``remove`` error (a format string)
    KEY: str

    def __init__(self) -> None:
        #: the active bank
        self._bank: Dict[Hashable, NHLFE] = {}
        self._staged: Optional[Dict[Hashable, NHLFE]] = None
        self._staged_refreshed: Set[Hashable] = set()
        self._stale: Set[Hashable] = set()
        self.generation = 0

    # -- shadow-bank transaction ------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._staged is not None

    def begin(self) -> None:
        """Open a transaction: further mutations go to a shadow bank."""
        if self._staged is not None:
            raise RuntimeError(f"{self.NAME} transaction already open")
        self._staged = dict(self._bank)
        self._staged_refreshed = set()

    def commit(self) -> None:
        """Atomically swap the shadow bank in (one generation bump).

        A commit that changed nothing skips the bump, so hardware nodes
        don't resynchronize their info base for a no-op swap."""
        if self._staged is None:
            raise RuntimeError(f"no {self.NAME} transaction open")
        changed = self._swap_in(self._staged)
        self._stale -= self._staged_refreshed
        self._stale.intersection_update(self._bank)
        self._staged = None
        self._staged_refreshed = set()
        if changed:
            self.generation += 1

    def rollback(self) -> None:
        """Discard the shadow bank; the active table is untouched."""
        if self._staged is None:
            raise RuntimeError(f"no {self.NAME} transaction open")
        self._staged = None
        self._staged_refreshed = set()

    # -- mutation ---------------------------------------------------

    def install(self, key: Hashable, nhlfe: NHLFE) -> None:
        if self._staged is not None:
            self._write(self._staged, key, nhlfe)
            self._staged_refreshed.add(key)
        else:
            self._write(self._bank, key, nhlfe)
            self._written()
            self._stale.discard(key)
            self.generation += 1

    def remove(self, key: Hashable) -> None:
        bank = self._staged if self._staged is not None else self._bank
        if key not in bank:
            raise KeyError(f"{self.KEY.format(key)} not installed")
        del bank[key]
        if self._staged is None:
            self._written()
            self._stale.discard(key)
            self.generation += 1

    def clear(self) -> None:
        if self._staged is not None:
            self._staged.clear()
            self._staged_refreshed.clear()
        else:
            self._bank.clear()
            self._written()
            self._stale.clear()
            self.generation += 1

    def __len__(self) -> int:
        return len(self._bank)

    # -- graceful-restart stale marking -----------------------------

    def mark_all_stale(self) -> int:
        """Stale-mark every installed entry; returns how many."""
        self._stale = set(self._bank)
        return len(self._stale)

    def mark_stale(self, key: Hashable) -> None:
        if key in self._bank:
            self._stale.add(key)

    def is_stale(self, key: Hashable) -> bool:
        return key in self._stale

    def flush_stale(self) -> List[Hashable]:
        """Remove entries still stale-marked (hold timer expired)."""
        removed = self._stale_keys()
        for key in removed:
            del self._bank[key]
        if removed:
            self._written()
            self.generation += 1
        self._stale.clear()
        return removed

    # -- what a subclass may say differently ------------------------

    @staticmethod
    def _write(bank: Dict[Hashable, NHLFE], key: Hashable, nhlfe: NHLFE) -> None:
        """Land one write in ``bank``."""
        bank[key] = nhlfe

    def _written(self) -> None:
        """The active bank changed outside a commit."""

    def _swap_in(self, staged: Dict[Hashable, NHLFE]) -> bool:
        """Make ``staged`` the active bank; whether that changed it."""
        changed = staged != self._bank
        self._bank = staged
        return changed


class ILM(Table):
    """Incoming Label Map: ``label -> NHLFE``.

    Lookups are per-platform label space (one table per router), which
    is what the paper's single information base models.
    """

    NAME = "ILM"
    KEY = "label {}"

    def install(self, label: int, nhlfe: NHLFE) -> None:
        require_real_label(label)
        super().install(label, nhlfe)

    def get(self, label: int) -> Optional[NHLFE]:
        return self._bank.get(label)

    def __contains__(self, label: int) -> bool:
        return label in self._bank

    def __iter__(self) -> Iterator[Tuple[int, NHLFE]]:
        return iter(self._bank.items())

    def stale_labels(self) -> List[int]:
        return sorted(self._stale)

    _stale_keys = stale_labels


class FTN(Table):
    """FEC-To-NHLFE map, resolved most-specific-first.

    Each bank is keyed by FEC, so a write costs one hash probe; the
    most-specific-first list that lookups walk is rebuilt by the first
    read after a write.  Lookup stays O(n) in the number of FECs, which
    matches both real LER software (a RIB walk) and the linear search
    of the paper's hardware information base.
    """

    NAME = "FTN"
    KEY = "FEC {!r}"

    def __init__(self) -> None:
        super().__init__()
        #: the active bank most-specific-first; None after a write
        self._entries: Optional[List[Tuple[FEC, NHLFE]]] = []

    @staticmethod
    def _ordered(bank: Dict[FEC, NHLFE]) -> List[Tuple[FEC, NHLFE]]:
        # a stable sort over install order: a re-installed FEC moves
        # behind its equals
        return sorted(bank.items(), key=lambda pair: -pair[0].specificity)

    def _view(self) -> List[Tuple[FEC, NHLFE]]:
        entries = self._entries
        if entries is None:
            entries = self._entries = self._ordered(self._bank)
        return entries

    @staticmethod
    def _write(bank: Dict[FEC, NHLFE], fec: FEC, nhlfe: NHLFE) -> None:
        bank.pop(fec, None)
        bank[fec] = nhlfe

    def _written(self) -> None:
        self._entries = None

    def _swap_in(self, staged: Dict[FEC, NHLFE]) -> bool:
        # the order among equal-specificity FECs is what lookup walks,
        # so a commit that only reorders them is a change; the one sort
        # per commit becomes the new view
        ordered = self._ordered(staged)
        changed = ordered != self._view()
        self._bank, self._entries = staged, ordered
        return changed

    def lookup(self, packet: IPv4Packet) -> Tuple[FEC, NHLFE]:
        entries = self._entries
        if entries is None:
            entries = self._view()
        for fec, nhlfe in entries:
            if fec.matches(packet):
                return fec, nhlfe
        raise NoRouteError(f"no FEC matches packet to {packet.dst}")

    def get(self, packet: IPv4Packet) -> Optional[Tuple[FEC, NHLFE]]:
        try:
            return self.lookup(packet)
        except NoRouteError:
            return None

    def entry_for(self, fec: FEC) -> Optional[NHLFE]:
        """The active NHLFE installed for exactly ``fec`` (no matching,
        no specificity), or None."""
        return self._bank.get(fec)

    def __iter__(self) -> Iterator[Tuple[FEC, NHLFE]]:
        return iter(self._view())

    def stale_fecs(self) -> List[FEC]:
        # Specificity order (the table's own order) keeps this
        # deterministic without requiring FECs to be sortable.
        return [f for f, _ in self._view() if f in self._stale]

    _stale_keys = stale_fecs
