"""Tests for the link-state database and SPF."""

import pytest

from repro.control.routing import LinkStateDatabase, shortest_path
from repro.net.topology import (
    Topology,
    TopologyError,
    full_mesh,
    line,
    paper_figure1,
    ring,
)


class TestSPF:
    def test_line_path(self):
        result = LinkStateDatabase(line(4)).spf("n0")
        assert result.paths["n3"] == ["n0", "n1", "n2", "n3"]
        assert result.cost["n3"] == 3

    def test_next_hop(self):
        result = LinkStateDatabase(line(4)).spf("n0")
        assert result.next_hop("n3") == "n1"
        assert result.next_hop("n0") is None

    def test_metrics_respected(self):
        topo = Topology()
        for name in "abcd":
            topo.add_node(name)
        topo.add_link("a", "b", metric=1)
        topo.add_link("b", "d", metric=1)
        topo.add_link("a", "c", metric=5)
        topo.add_link("c", "d", metric=1)
        result = LinkStateDatabase(topo).spf("a")
        assert result.paths["d"] == ["a", "b", "d"]

    def test_high_metric_reroutes(self):
        topo = Topology()
        for name in "abcd":
            topo.add_node(name)
        topo.add_link("a", "b", metric=10)
        topo.add_link("b", "d", metric=10)
        topo.add_link("a", "c", metric=1)
        topo.add_link("c", "d", metric=1)
        result = LinkStateDatabase(topo).spf("a")
        assert result.paths["d"] == ["a", "c", "d"]

    def test_unreachable(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("island")
        result = LinkStateDatabase(topo).spf("a")
        assert not result.reachable("island")
        assert result.next_hop("island") is None

    def test_unknown_source(self):
        with pytest.raises(TopologyError):
            LinkStateDatabase(line(2)).spf("ghost")

    def test_negative_metric_rejected(self):
        topo = line(2)
        topo.link("n0", "n1").metric = -1
        with pytest.raises(TopologyError):
            LinkStateDatabase(topo).spf("n0")

    def test_source_path_to_itself(self):
        result = LinkStateDatabase(line(2)).spf("n0")
        assert result.paths["n0"] == ["n0"]
        assert result.cost["n0"] == 0

    def test_paper_figure1_shortest(self):
        path = shortest_path(paper_figure1(), "ler-a", "ler-b")
        # both core paths have equal metric; either 3-hop path is valid
        assert path[0] == "ler-a" and path[-1] == "ler-b"
        assert len(path) == 4

    def test_matches_networkx_reference(self):
        """Cross-check Dijkstra against networkx on a ring and mesh."""
        import networkx as nx

        for topo in (ring(8), full_mesh(6)):
            graph = nx.Graph()
            for a, b, attrs in topo.edges_with_attrs():
                graph.add_edge(a, b, weight=attrs.metric)
            lsdb = LinkStateDatabase(topo)
            for src in topo.nodes:
                ours = lsdb.spf(src)
                ref = nx.single_source_dijkstra_path_length(graph, src)
                assert {k: v for k, v in ours.cost.items()} == ref

    def test_spf_run_counter(self):
        lsdb = LinkStateDatabase(line(3))
        lsdb.spf("n0")
        lsdb.spf("n1")
        assert lsdb.spf_runs == 2


class TestSPFMemo:
    """``spf_runs`` counts Dijkstra executions, so it shows the memo."""

    def test_same_source_twice_is_one_run(self):
        lsdb = LinkStateDatabase(ring(6))
        first = lsdb.spf("n0")
        assert lsdb.spf("n0") is first
        assert lsdb.spf_runs == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda topo, attrs: topo.add_node("extra"),
            lambda topo, attrs: topo.add_link("n0", "n3"),
            lambda topo, attrs: topo.remove_link("n1", "n2"),
            lambda topo, attrs: topo.restore_link("n0", "n5", attrs),
            lambda topo, attrs: topo.set_metric("n0", "n1", 9),
        ],
        ids=["add_node", "add_link", "remove_link", "restore_link",
             "set_metric"],
    )
    def test_every_mutator_invalidates(self, mutate):
        topo = ring(6)
        attrs = topo.link("n0", "n5")
        topo.remove_link("n0", "n5")
        lsdb = LinkStateDatabase(topo)
        stale = lsdb.spf("n0")
        mutate(topo, attrs)
        fresh = lsdb.spf("n0")
        assert fresh is not stale and lsdb.spf_runs == 2
        assert fresh.cost == LinkStateDatabase(topo).spf("n0").cost
        assert lsdb.spf("n0") is fresh and lsdb.spf_runs == 2

    def test_metric_change_reroutes_through_the_memo(self):
        topo = ring(4)
        lsdb = LinkStateDatabase(topo)
        assert lsdb.spf("n0").paths["n1"] == ["n0", "n1"]
        topo.set_metric("n0", "n1", 10)
        assert lsdb.spf("n0").paths["n1"] == ["n0", "n3", "n2", "n1"]

    def test_databases_over_one_topology_share_nothing(self):
        topo = ring(5)
        one, two = LinkStateDatabase(topo), LinkStateDatabase(topo)
        result = one.spf("n0")
        assert two.spf("n0") is not result
        assert (one.spf_runs, two.spf_runs) == (1, 1)

    def test_unknown_source_is_never_memoised(self):
        lsdb = LinkStateDatabase(line(2))
        for _ in range(2):
            with pytest.raises(TopologyError, match="unknown SPF source"):
                lsdb.spf("ghost")
        assert lsdb.spf_runs == 0

    def test_shortest_path_hands_out_a_list_of_the_callers_own(self):
        topo = line(4)
        path = shortest_path(topo, "n0", "n3")
        path.append("scribble")
        assert shortest_path(topo, "n0", "n3") == ["n0", "n1", "n2", "n3"]

    def test_runs_stay_proportional_to_topology_changes(self):
        """Ring-16 under the ``ctrl_churn`` fault pattern: message-level
        LDP asks for a next hop per mapping, withdraw and refresh, yet
        Dijkstra runs at most once per node per topology change."""
        from repro.faults.chaos import build_run
        from repro.faults.scenario import Scenario

        n, duration = 16, 2.6
        kinds = ("ldp-session-drop", "link-down", "link-flap",
                 "node-crash", "node-restart")
        faults, at, a = [], 0.25, 0
        while at < duration - 0.4:
            kind = kinds[len(faults) % len(kinds)]
            fault = {"at": round(at, 3), "kind": kind, "target": [f"n{a}"]}
            if kind in kinds[:3]:
                fault["target"].append(f"n{(a + 1) % n}")
            if kind == "link-flap":
                fault.update(flaps=2, period=0.03)
            elif kind == "node-restart":
                fault.update(heal_at=round(at + 0.06, 3), hold_time=0.2)
            elif kind != "ldp-session-drop":
                fault["heal_at"] = round(at + 0.06, 3)
            faults.append(fault)
            at, a = at + 0.12, (a + 5) % n
        traffic = [
            {"ingress": f"n{i}", "egress": f"n{(i + 7) % n}",
             "prefix": f"10.{(i + 7) % n + 1}.{i}.0/24",
             "src": f"10.{i + 1}.0.9", "dst": f"10.{(i + 7) % n + 1}.{i}.9",
             "rate_bps": 20e3, "packet_size": 200, "start": 0.15}
            for i in range(n)
        ]
        run = build_run(Scenario.from_dict({
            "name": "churn-replay",
            "topology": {"kind": "ring", "n": n, "bandwidth_bps": 10e6,
                         "delay_s": 1e-3},
            "control": "ldp-messages", "duration": duration,
            "traffic": traffic, "faults": faults,
            "overload": {"enabled": True},
        }), seed=7)
        lsdb = run.message_ldp.lsdb
        built_at = run.network.topology.version
        run.network.run(until=duration)
        changes = run.network.topology.version - built_at
        assert changes >= 2 * len(faults) - 8  # the faults really ran
        assert run.message_ldp.total_messages > 20 * changes
        assert 0 < lsdb.spf_runs <= (changes + 1) * n
