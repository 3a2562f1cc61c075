"""Tests for topology structures and builders."""

import pytest

from repro.net.topology import (
    Topology,
    TopologyError,
    line,
    paper_figure1,
    ring,
)


class TestTopology:
    def test_add_nodes_and_links(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", metric=5)
        assert topo.has_link("a", "b")
        assert topo.has_link("b", "a")  # undirected
        assert topo.link("a", "b").metric == 5

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_node("a")

    def test_duplicate_link_rejected(self):
        topo = line(2)
        with pytest.raises(TopologyError):
            topo.add_link("n1", "n0")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "a")

    def test_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "ghost")

    def test_neighbors(self):
        topo = line(3)
        assert topo.neighbors("n1") == ["n0", "n2"]
        assert len(topo.adjacent("n0")) == 1

    def test_neighbors_unknown_node(self):
        with pytest.raises(TopologyError):
            line(2).neighbors("ghost")

    def test_remove_link(self):
        topo = line(3)
        topo.remove_link("n0", "n1")
        assert not topo.has_link("n0", "n1")
        with pytest.raises(TopologyError):
            topo.remove_link("n0", "n1")

    def test_link_lookup_missing(self):
        with pytest.raises(TopologyError):
            line(2).link("n0", "n5")

    def test_edges_with_attrs(self):
        topo = line(3, metric=7)
        edges = list(topo.edges_with_attrs())
        assert len(edges) == 2
        assert all(attrs.metric == 7 for _, _, attrs in edges)


class TestVersionAndMetrics:
    def test_every_mutator_moves_the_version(self):
        topo = Topology()
        seen = [topo.version]

        def moved() -> bool:
            seen.append(topo.version)
            return seen[-1] == seen[-2] + 1

        topo.add_node("a")
        assert moved()
        topo.add_node("b")
        assert moved()
        attrs = topo.add_link("a", "b")
        assert moved()
        topo.set_metric("a", "b", 7)
        assert moved() and attrs.metric == 7
        topo.remove_link("b", "a")
        assert moved()
        topo.restore_link("b", "a", attrs)
        assert moved() and topo.link("a", "b") is attrs

    def test_a_refused_mutation_leaves_the_version(self):
        topo = line(2)
        version = topo.version
        for refused in (
            lambda: topo.add_node("n0"),
            lambda: topo.add_link("n0", "n1"),
            lambda: topo.add_link("n0", "ghost"),
            lambda: topo.add_link("n0", "n1", metric=-1),
            lambda: topo.remove_link("n0", "ghost"),
            lambda: topo.restore_link("n0", "n1", topo.link("n0", "n1")),
            lambda: topo.set_metric("n0", "ghost", 2),
            lambda: topo.set_metric("n0", "n1", float("nan")),
        ):
            with pytest.raises(TopologyError):
                refused()
        assert topo.version == version
        assert topo.link("n0", "n1").metric == 1.0

    @pytest.mark.parametrize(
        "metric", [-1, -1e-9, float("nan"), float("inf"), float("-inf")]
    )
    def test_metric_must_be_finite_and_non_negative(self, metric):
        topo = line(3)
        topo.remove_link("n1", "n2")
        with pytest.raises(TopologyError, match="'n1'-'n2'"):
            topo.add_link("n1", "n2", metric=metric)
        assert not topo.has_link("n1", "n2")
        with pytest.raises(TopologyError, match="'n0'-'n1'"):
            topo.set_metric("n0", "n1", metric)
        assert topo.link("n0", "n1").metric == 1.0

    def test_zero_metric_is_allowed(self):
        topo = line(2)
        topo.set_metric("n0", "n1", 0)
        assert topo.link("n1", "n0").metric == 0

    def test_adjacency_follows_remove_and_restore(self):
        topo = ring(4)
        attrs = topo.link("n0", "n3")
        topo.remove_link("n0", "n3")
        assert topo.neighbors("n0") == ["n1"] and len(topo.adjacent("n3")) == 1
        assert "n3" not in topo.adjacent("n0")
        topo.restore_link("n3", "n0", attrs)
        assert topo.neighbors("n0") == ["n1", "n3"]
        assert topo.adjacent("n0")["n3"] is topo.adjacent("n3")["n0"] is attrs

    def test_restore_refuses_a_self_loop(self):
        topo = line(2)
        with pytest.raises(TopologyError, match="self-loop"):
            topo.restore_link("n0", "n0", topo.link("n0", "n1"))


class TestReservations:
    def test_reserve_and_release(self):
        topo = line(2, bandwidth_bps=100.0)
        attrs = topo.link("n0", "n1")
        attrs.reserve("n0", 60.0)
        assert attrs.reservable("n0") == pytest.approx(40.0)
        # the reverse direction is unaffected
        assert attrs.reservable("n1") == pytest.approx(100.0)
        attrs.release("n0", 60.0)
        assert attrs.reservable("n0") == pytest.approx(100.0)

    def test_over_reservation_rejected(self):
        topo = line(2, bandwidth_bps=100.0)
        attrs = topo.link("n0", "n1")
        with pytest.raises(TopologyError):
            attrs.reserve("n0", 150.0)

    def test_release_clamps_to_capacity(self):
        topo = line(2, bandwidth_bps=100.0)
        attrs = topo.link("n0", "n1")
        attrs.release("n0", 500.0)
        assert attrs.reservable("n0") == pytest.approx(100.0)


class TestBuilders:
    def test_line(self):
        topo = line(4)
        assert len(topo.nodes) == 4
        assert len(topo.links) == 3

    def test_ring(self):
        topo = ring(5)
        assert len(topo.links) == 5
        assert topo.has_link("n4", "n0")

    def test_ring_minimum(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_paper_figure1(self):
        """Two LERs, three LSRs, with a redundant core path."""
        topo = paper_figure1()
        assert len(topo.nodes) == 5
        assert topo.has_link("ler-a", "lsr-1")
        assert topo.has_link("lsr-2", "ler-b")
        assert topo.has_link("lsr-3", "ler-b")
        # two disjoint paths from lsr-1 to ler-b
        assert len(topo.adjacent("lsr-1")) == 3
