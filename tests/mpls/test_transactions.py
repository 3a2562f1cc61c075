"""Shadow-bank transactions and stale marking on the ILM/FTN tables."""

import pytest

from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.tables import FTN, ILM
from repro.mpls.transaction import TableTransaction
from repro.net.packet import IPv4Packet


def swap_to(label, nh="peer"):
    return NHLFE(op=LabelOp.SWAP, out_label=label, next_hop=nh)


def pkt(dst="10.1.2.3"):
    return IPv4Packet(src="1.1.1.1", dst=dst)


class TestILMTransaction:
    def test_staged_write_invisible_until_commit(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.begin()
        ilm.install(100, swap_to(999))
        ilm.install(101, swap_to(201))
        # Data plane still reads the active bank.
        assert ilm.get(100).out_label == 200
        assert 101 not in ilm
        ilm.commit()
        assert ilm.get(100).out_label == 999
        assert ilm.get(101).out_label == 201

    def test_rollback_discards_staged_writes(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.begin()
        ilm.install(100, swap_to(999))
        ilm.remove(100)
        ilm.install(300, swap_to(400))
        ilm.rollback()
        assert ilm.get(100).out_label == 200
        assert 300 not in ilm
        assert not ilm.in_transaction

    def test_commit_bumps_generation_exactly_once(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        g0 = ilm.generation
        ilm.begin()
        for label in range(101, 110):
            ilm.install(label, swap_to(label + 100))
        assert ilm.generation == g0  # nothing visible yet
        ilm.commit()
        assert ilm.generation == g0 + 1  # single bank swap

    def test_staged_remove(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.begin()
        ilm.remove(100)
        assert 100 in ilm  # active bank untouched
        ilm.commit()
        assert 100 not in ilm
        assert ilm.get(100) is None

    def test_double_begin_rejected(self):
        ilm = ILM()
        ilm.begin()
        with pytest.raises(RuntimeError):
            ilm.begin()

    def test_commit_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            ILM().commit()
        with pytest.raises(RuntimeError):
            ILM().rollback()


class TestILMStale:
    def test_mark_all_and_flush(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.install(101, swap_to(201))
        assert ilm.mark_all_stale() == 2
        assert ilm.is_stale(100) and ilm.is_stale(101)
        # Stale entries still forward.
        assert ilm.get(100).out_label == 200
        assert ilm.flush_stale() == [100, 101]
        assert len(ilm) == 0

    def test_install_refreshes_in_place(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.install(101, swap_to(201))
        ilm.mark_all_stale()
        ilm.install(100, swap_to(200))  # refresh
        assert not ilm.is_stale(100)
        assert ilm.flush_stale() == [101]
        assert ilm.get(100).out_label == 200

    def test_commit_refreshes_staged_installs(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.install(101, swap_to(201))
        ilm.mark_all_stale()
        ilm.begin()
        ilm.install(100, swap_to(200))
        ilm.commit()
        assert not ilm.is_stale(100)
        assert ilm.is_stale(101)

    def test_rollback_keeps_stale_marks(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.mark_all_stale()
        ilm.begin()
        ilm.install(100, swap_to(200))
        ilm.rollback()
        assert ilm.is_stale(100)

    def test_flush_nothing_keeps_generation(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        g0 = ilm.generation
        assert ilm.flush_stale() == []
        assert ilm.generation == g0


class TestFTNTransaction:
    def test_staged_write_invisible_until_commit(self):
        ftn = FTN()
        fec = PrefixFEC("10.0.0.0/8")
        ftn.install(fec, swap_to(100))
        ftn.begin()
        ftn.install(fec, swap_to(999))
        _, nhlfe = ftn.lookup(pkt())
        assert nhlfe.out_label == 100
        ftn.commit()
        _, nhlfe = ftn.lookup(pkt())
        assert nhlfe.out_label == 999

    def test_rollback(self):
        ftn = FTN()
        fec = PrefixFEC("10.0.0.0/8")
        ftn.install(fec, swap_to(100))
        ftn.begin()
        ftn.remove(fec)
        ftn.rollback()
        _, nhlfe = ftn.lookup(pkt())
        assert nhlfe.out_label == 100

    def test_specificity_order_preserved_through_commit(self):
        ftn = FTN()
        ftn.begin()
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        ftn.install(PrefixFEC("10.1.0.0/16"), swap_to(200))
        ftn.commit()
        _, nhlfe = ftn.lookup(pkt("10.1.2.3"))
        assert nhlfe.out_label == 200

    def test_stale_mark_and_flush(self):
        ftn = FTN()
        a, b = PrefixFEC("10.0.0.0/8"), PrefixFEC("11.0.0.0/8")
        ftn.install(a, swap_to(100))
        ftn.install(b, swap_to(101))
        assert ftn.mark_all_stale() == 2
        ftn.install(a, swap_to(100))  # refresh
        assert ftn.flush_stale() == [b]
        assert ftn.get(pkt("11.1.1.1")) is None
        _, nhlfe = ftn.lookup(pkt("10.1.1.1"))
        assert nhlfe.out_label == 100


#: each table kind with a key installed before the transaction and a key
#: that is not
TABLES = {
    "ilm": (ILM, 100, 101),
    "ftn": (FTN, PrefixFEC("10.0.0.0/8"), PrefixFEC("11.0.0.0/8")),
}

#: the staged writes a rollback must undo, as (key, out label or None
#: for a remove); "old" and "new" name the two keys above
STAGED = {
    "install-new": [("new", 300)],
    "overwrite": [("old", 999)],
    "remove": [("old", None)],
}


def contents(table):
    return sorted(((repr(key), nhlfe.out_label) for key, nhlfe in table))


class TestRollbackMatrix:
    """Every kind of staged write, on both tables: a rollback leaves
    the active bank, its generation and its stale marks as they were
    before ``begin``, and the table takes a new transaction after."""

    @pytest.mark.parametrize("staged", sorted(STAGED))
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_rollback_restores_the_active_bank(self, kind, staged):
        cls, old, new = TABLES[kind]
        keys = {"old": old, "new": new}
        table = cls()
        table.install(old, swap_to(200))
        table.mark_stale(old)
        before, generation = contents(table), table.generation
        table.begin()
        assert table.in_transaction
        for name, label in STAGED[staged]:
            if label is None:
                table.remove(keys[name])
            else:
                table.install(keys[name], swap_to(label))
        assert contents(table) == before  # staged writes stay unseen
        table.rollback()
        assert not table.in_transaction
        assert contents(table) == before
        assert table.generation == generation
        assert table.is_stale(old)
        table.begin()
        table.install(new, swap_to(301))
        table.commit()
        assert len(table) == 2 and table.generation == generation + 1

    def test_transaction_rollback_spans_tables(self):
        ilm, ftn = ILM(), FTN()
        ilm.install(100, swap_to(200))
        txn = TableTransaction([ilm, ftn])
        txn.begin()
        assert txn.in_transaction
        ilm.remove(100)
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        txn.rollback()
        assert not txn.in_transaction
        assert not ilm.in_transaction and not ftn.in_transaction
        assert ilm.get(100).out_label == 200 and len(ftn) == 0


class TestTableTransaction:
    def test_commit_spans_tables(self):
        ilm, ftn = ILM(), FTN()
        txn = TableTransaction([ilm, ftn])
        txn.begin()
        ilm.install(100, swap_to(200))
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        assert len(ilm) == 0 and len(ftn) == 0
        txn.commit()
        assert len(ilm) == 1 and len(ftn) == 1

    def test_context_manager_commits_on_clean_exit(self):
        ilm = ILM()
        with TableTransaction([ilm]):
            ilm.install(100, swap_to(200))
        assert ilm.get(100).out_label == 200

    def test_context_manager_rolls_back_on_exception(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        with pytest.raises(ValueError):
            with TableTransaction([ilm]):
                ilm.install(100, swap_to(999))
                raise ValueError("crash mid-reconvergence")
        assert ilm.get(100).out_label == 200
        assert not ilm.in_transaction

    def test_duplicate_tables_deduped(self):
        ilm = ILM()
        txn = TableTransaction([ilm, ilm])
        txn.begin()  # would raise "already open" without dedup
        ilm.install(100, swap_to(200))
        txn.commit()
        assert 100 in ilm
