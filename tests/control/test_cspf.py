"""Tests for constraint-based SPF."""

import pytest

from repro.control.cspf import CSPFError, cspf_path
from repro.net.topology import Topology, line, paper_figure1


def _diamond():
    """a - b - d (fast) and a - c - d (slow but fat)."""
    topo = Topology()
    for name in "abcd":
        topo.add_node(name)
    topo.add_link("a", "b", metric=1, bandwidth_bps=10e6)
    topo.add_link("b", "d", metric=1, bandwidth_bps=10e6)
    topo.add_link("a", "c", metric=5, bandwidth_bps=100e6)
    topo.add_link("c", "d", metric=5, bandwidth_bps=100e6)
    return topo


class TestCSPF:
    def test_unconstrained_is_shortest(self):
        assert cspf_path(_diamond(), "a", "d") == ["a", "b", "d"]

    def test_bandwidth_constraint_diverts(self):
        assert cspf_path(_diamond(), "a", "d", bandwidth_bps=50e6) == [
            "a",
            "c",
            "d",
        ]

    def test_reservations_consume_headroom(self):
        topo = _diamond()
        topo.link("a", "b").reserve("a", 8e6)
        # only 2 Mbps left on a->b; a 5 Mbps LSP must divert
        assert cspf_path(topo, "a", "d", bandwidth_bps=5e6) == ["a", "c", "d"]

    def test_no_feasible_path(self):
        with pytest.raises(CSPFError):
            cspf_path(_diamond(), "a", "d", bandwidth_bps=1e9)

    def test_avoid_nodes_gives_disjoint_backup(self):
        topo = paper_figure1()
        primary = cspf_path(topo, "ler-a", "ler-b")
        middle = set(primary[1:-1]) - {"lsr-1"}
        backup = cspf_path(topo, "ler-a", "ler-b", avoid_nodes=middle)
        assert set(backup[1:-1]).isdisjoint(middle)

    def test_avoid_endpoint_rejected(self):
        with pytest.raises(CSPFError):
            cspf_path(_diamond(), "a", "d", avoid_nodes={"a"})

    def test_line_trivial(self):
        assert cspf_path(line(3), "n0", "n2") == ["n0", "n1", "n2"]
