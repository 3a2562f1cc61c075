"""Tests for the ILM and FTN tables."""

import ast
import inspect
import textwrap

import pytest

from repro.mpls.errors import (
    InvalidLabelError,
    NoRouteError,
)
from repro.mpls.fec import CoSFEC, PrefixFEC
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.tables import FTN, ILM, Table
from repro.net.packet import IPv4Packet


def swap_to(label, nh="peer"):
    return NHLFE(op=LabelOp.SWAP, out_label=label, next_hop=nh)


def pkt(dst="10.0.0.1", dscp=0):
    return IPv4Packet(src="1.1.1.1", dst=dst, dscp=dscp)


class TestILM:
    def test_install_lookup(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        assert ilm.get(100).out_label == 200

    def test_get_returns_none_on_miss(self):
        assert ILM().get(999) is None

    def test_reserved_label_rejected(self):
        ilm = ILM()
        with pytest.raises(InvalidLabelError):
            ilm.install(3, swap_to(200))

    def test_overwrite(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.install(100, swap_to(300))
        assert ilm.get(100).out_label == 300
        assert len(ilm) == 1

    def test_remove(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.remove(100)
        assert 100 not in ilm

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ILM().remove(100)

    def test_generation_increments(self):
        ilm = ILM()
        g0 = ilm.generation
        ilm.install(100, swap_to(200))
        assert ilm.generation > g0

    def test_iteration(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        assert dict(iter(ilm))[100].out_label == 200

    def test_clear(self):
        ilm = ILM()
        ilm.install(100, swap_to(200))
        ilm.clear()
        assert len(ilm) == 0


class TestFTN:
    def test_install_lookup(self):
        ftn = FTN()
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        fec, nhlfe = ftn.lookup(pkt("10.1.2.3"))
        assert nhlfe.out_label == 100

    def test_no_route(self):
        ftn = FTN()
        with pytest.raises(NoRouteError):
            ftn.lookup(pkt())

    def test_longest_match_wins(self):
        ftn = FTN()
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        ftn.install(PrefixFEC("10.1.0.0/16"), swap_to(200))
        _, nhlfe = ftn.lookup(pkt("10.1.2.3"))
        assert nhlfe.out_label == 200
        _, nhlfe = ftn.lookup(pkt("10.2.2.3"))
        assert nhlfe.out_label == 100

    def test_host_beats_prefix(self):
        ftn = FTN()
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        ftn.install(PrefixFEC("10.1.2.3/32"), swap_to(300))
        _, nhlfe = ftn.lookup(pkt("10.1.2.3"))
        assert nhlfe.out_label == 300

    def test_cos_beats_plain(self):
        """EF-marked traffic takes the premium LSP, rest the default."""
        ftn = FTN()
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        ftn.install(CoSFEC(PrefixFEC("10.0.0.0/8"), 46), swap_to(500))
        _, nhlfe = ftn.lookup(pkt("10.1.2.3", dscp=46))
        assert nhlfe.out_label == 500
        _, nhlfe = ftn.lookup(pkt("10.1.2.3", dscp=0))
        assert nhlfe.out_label == 100

    def test_reinstall_replaces(self):
        ftn = FTN()
        fec = PrefixFEC("10.0.0.0/8")
        ftn.install(fec, swap_to(100))
        ftn.install(fec, swap_to(200))
        assert len(ftn) == 1
        _, nhlfe = ftn.lookup(pkt("10.1.1.1"))
        assert nhlfe.out_label == 200

    def test_remove(self):
        ftn = FTN()
        fec = PrefixFEC("10.0.0.0/8")
        ftn.install(fec, swap_to(100))
        ftn.remove(fec)
        assert ftn.get(pkt("10.1.1.1")) is None

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            FTN().remove(PrefixFEC("10.0.0.0/8"))

    def test_generation_increments(self):
        ftn = FTN()
        g0 = ftn.generation
        ftn.install(PrefixFEC("10.0.0.0/8"), swap_to(100))
        assert ftn.generation > g0


SHARED = {
    "in_transaction", "begin", "commit", "rollback", "install", "remove",
    "clear", "__len__", "mark_all_stale", "mark_stale", "is_stale",
    "flush_stale",
}


class TestOneTable:
    """ILM and FTN are one ``Table`` with two keys: the twelve shared
    members are written once, in the base, and stay there."""

    def test_both_tables_are_the_one_table(self):
        assert issubclass(ILM, Table) and issubclass(FTN, Table)
        assert SHARED <= set(vars(Table))

    def test_neither_key_redefines_a_shared_member(self):
        assert not SHARED & set(vars(FTN))
        assert SHARED & set(vars(ILM)) == {"install"}

    def test_the_ilm_install_only_checks_the_label(self):
        source = textwrap.dedent(inspect.getsource(ILM.install))
        body = ast.parse(source).body[0].body
        assert [ast.unparse(stmt) for stmt in body] == [
            "require_real_label(label)",
            "super().install(label, nhlfe)",
        ]
