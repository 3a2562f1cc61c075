"""Atomic multi-table programming: :class:`TableTransaction`.

Reconvergence touches several tables on several routers (every FTN and
ILM along an LSP).  Committing those writes one at a time would let a
packet observe a half-programmed network -- e.g. an ingress FTN already
pointing at a label the downstream ILM has not accepted yet.

:class:`TableTransaction` groups any number of tables (ILM or FTN, each
a :class:`~repro.mpls.tables.Table`) under one shadow-bank
transaction.  Between :meth:`begin` and :meth:`commit` every mutation
lands in per-table staging banks while the data plane keeps reading the
active banks; :meth:`commit` swaps all banks (each a single generation
bump, which on hardware nodes becomes a single-cycle bank swap in the
info-base driver); :meth:`rollback` discards the staging banks, leaving
the pre-transaction tables untouched.

Used as a context manager, an exception (a crash mid-reconvergence)
rolls back automatically:

    with TableTransaction([node.ftn, node.ilm]):
        ...  # stage the new forwarding state
    # committed on clean exit, rolled back on exception
"""

from __future__ import annotations

from typing import Iterable, List, Mapping

from repro.mpls.tables import Table


class TableTransaction:
    """A shadow-bank transaction spanning several ILM/FTN tables."""

    @classmethod
    def for_nodes(cls, nodes: Mapping[str, object]) -> "TableTransaction":
        """A transaction over every node's ILM and FTN, in sorted node
        order -- the shape a centralized controller resync wants."""
        tables: List[Table] = []
        for name in sorted(nodes):
            node = nodes[name]
            tables.append(node.ilm)  # type: ignore[attr-defined]
            tables.append(node.ftn)  # type: ignore[attr-defined]
        return cls(tables)

    def __init__(self, tables: Iterable[Table]) -> None:
        # Dedup while preserving order: the same table may be listed
        # once per role (e.g. a node acting as both LER and LSR).
        self.tables: List[Table] = []
        seen = set()
        for table in tables:
            if id(table) not in seen:
                seen.add(id(table))
                self.tables.append(table)
        self._open = False

    @property
    def in_transaction(self) -> bool:
        return self._open

    def begin(self) -> "TableTransaction":
        if self._open:
            raise RuntimeError("transaction already open")
        opened: List[Table] = []
        try:
            for table in self.tables:
                table.begin()
                opened.append(table)
        except Exception:
            for table in opened:
                table.rollback()
            raise
        self._open = True
        return self

    def commit(self) -> None:
        if not self._open:
            raise RuntimeError("no transaction open")
        for table in self.tables:
            table.commit()
        self._open = False

    def rollback(self) -> None:
        if not self._open:
            raise RuntimeError("no transaction open")
        for table in self.tables:
            table.rollback()
        self._open = False

    def __enter__(self) -> "TableTransaction":
        if not self._open:
            self.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._open:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
