"""The forwarding tables of RFC 3031: ILM and FTN.

* :class:`ILM` (Incoming Label Map) maps an incoming label to an NHLFE.
  This is what the paper's information base implements in hardware for
  levels 2 and 3 (label -> new label + operation).
* :class:`FTN` (FEC-To-NHLFE) maps a forwarding equivalence class to an
  NHLFE at the ingress LER.  The hardware realizes the common case --
  destination-address keying -- as information-base level 1, where the
  index memory holds 32-bit packet identifiers.

Both tables track a generation counter so the embedded architecture can
tell when the software control plane has changed them and the hardware
information base needs re-synchronizing.

Two robustness mechanisms sit on top of the plain maps:

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

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.mpls.errors import LabelLookupMiss, NoRouteError
from repro.mpls.label import require_real_label

if TYPE_CHECKING:  # annotation-only; avoids the fec <-> net import cycle
    from repro.mpls.fec import FEC
from repro.mpls.nhlfe import NHLFE
from repro.net.packet import IPv4Packet


class ILM:
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

    def lookup(self, label: int) -> NHLFE:
        try:
            return self._entries[label]
        except KeyError:
            raise LabelLookupMiss(f"no ILM entry for label {label}") from None

    def get(self, label: int) -> Optional[NHLFE]:
        return self._entries.get(label)

    def __contains__(self, label: int) -> bool:
        return label in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[int, NHLFE]]:
        return iter(self._entries.items())

    def labels(self) -> List[int]:
        return sorted(self._entries)

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


class FTN:
    """FEC-To-NHLFE map, resolved most-specific-first.

    Each bank is keyed by FEC, so a write costs one hash probe; the
    most-specific-first list that lookups walk is rebuilt by the first
    read after a write.  Lookup stays O(n) in the number of FECs, which
    matches both real LER software (a RIB walk) and the linear search
    of the paper's hardware information base.
    """

    def __init__(self) -> None:
        #: active bank in (re-)install order: with the stable sort in
        #: :meth:`_ordered`, a re-installed FEC moves behind its equals
        self._bank: Dict[FEC, NHLFE] = {}
        self._staged: Optional[Dict[FEC, NHLFE]] = None
        #: the active bank most-specific-first; None after a write
        self._entries: Optional[List[Tuple[FEC, NHLFE]]] = []
        self._staged_refreshed: Set[FEC] = set()
        self._stale: Set[FEC] = set()
        self.generation = 0

    @staticmethod
    def _ordered(bank: Dict[FEC, NHLFE]) -> List[Tuple[FEC, NHLFE]]:
        return sorted(bank.items(), key=lambda pair: -pair[0].specificity)

    def _view(self) -> List[Tuple[FEC, NHLFE]]:
        entries = self._entries
        if entries is None:
            entries = self._entries = self._ordered(self._bank)
        return entries

    # -- shadow-bank transaction ------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._staged is not None

    def begin(self) -> None:
        """Open a transaction: further mutations go to a shadow bank."""
        if self._staged is not None:
            raise RuntimeError("FTN transaction already open")
        self._staged = dict(self._bank)
        self._staged_refreshed = set()

    def commit(self) -> None:
        """Atomically swap the shadow bank in (one generation bump).

        A commit that changed nothing skips the bump, so hardware nodes
        don't resynchronize their info base for a no-op swap."""
        if self._staged is None:
            raise RuntimeError("no FTN transaction open")
        staged = self._ordered(self._staged)
        changed = staged != self._view()
        self._bank, self._entries = self._staged, staged
        self._stale -= self._staged_refreshed
        self._stale.intersection_update(self._bank)
        self._staged = None
        self._staged_refreshed = set()
        if changed:
            self.generation += 1

    def rollback(self) -> None:
        """Discard the shadow bank; the active table is untouched."""
        if self._staged is None:
            raise RuntimeError("no FTN transaction open")
        self._staged = None
        self._staged_refreshed = set()

    # -- mutation ---------------------------------------------------

    def install(self, fec: FEC, nhlfe: NHLFE) -> None:
        if self._staged is not None:
            self._staged.pop(fec, None)
            self._staged[fec] = nhlfe
            self._staged_refreshed.add(fec)
        else:
            self._bank.pop(fec, None)
            self._bank[fec] = nhlfe
            self._entries = None
            self._stale.discard(fec)
            self.generation += 1

    def remove(self, fec: FEC) -> None:
        bank = self._staged if self._staged is not None else self._bank
        if fec not in bank:
            raise KeyError(f"FEC {fec!r} not installed")
        del bank[fec]
        if self._staged is None:
            self._entries = None
            self._stale.discard(fec)
            self.generation += 1

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

    def __len__(self) -> int:
        return len(self._bank)

    def __iter__(self) -> Iterator[Tuple[FEC, NHLFE]]:
        return iter(self._view())

    def clear(self) -> None:
        if self._staged is not None:
            self._staged.clear()
            self._staged_refreshed.clear()
        else:
            self._bank.clear()
            self._entries = []
            self._stale.clear()
            self.generation += 1

    # -- graceful-restart stale marking -----------------------------

    def mark_all_stale(self) -> int:
        """Stale-mark every installed entry; returns how many."""
        self._stale = set(self._bank)
        return len(self._stale)

    def mark_stale(self, fec: FEC) -> None:
        if fec in self._bank:
            self._stale.add(fec)

    def is_stale(self, fec: FEC) -> bool:
        return fec in self._stale

    def stale_fecs(self) -> List[FEC]:
        # Specificity order (the table's own order) keeps this
        # deterministic without requiring FECs to be sortable.
        return [f for f, _ in self._view() if f in self._stale]

    def flush_stale(self) -> List[FEC]:
        """Remove entries still stale-marked (hold timer expired)."""
        removed = self.stale_fecs()
        for fec in removed:
            del self._bank[fec]
        if removed:
            self._entries = None
            self.generation += 1
        self._stale.clear()
        return removed
