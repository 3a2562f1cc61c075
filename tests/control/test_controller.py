"""Tests for the centralized PCE controller.

Unit coverage for the config/CSPF/transaction building blocks, plus
end-to-end crash and partition failover through ``run_scenario``: the
fallback to distributed control (delegation) blackholes **zero** FECs.
"""

import copy

import pytest

from repro.control.controller import (
    HOLD_TIME,
    KEEPALIVE_INTERVAL,
    STATE_ADOPTED,
    STATE_DISTRIBUTED,
    ControllerConfig,
    PCEController,
)
from repro.control.cspf import CSPFError, cspf_over_view
from repro.faults import Scenario, run_scenario
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.transaction import TableTransaction
from repro.obs import telemetry_session

SCENARIO = {
    "name": "controller-e2e",
    "topology": {"kind": "paper_figure1",
                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
    "control": "ldp",
    "duration": 1.2,
    "traffic": [
        {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
         "src": "10.1.0.5", "dst": "10.2.0.9",
         "rate_bps": 2e6, "packet_size": 500},
        {"ingress": "ler-b", "egress": "ler-a", "prefix": "10.1.0.0/16",
         "src": "10.2.0.9", "dst": "10.1.0.5",
         "rate_bps": 1e6, "packet_size": 500},
    ],
    "controller": {},
    "faults": [
        {"at": 0.2, "kind": "controller-crash",
         "target": ["controller"], "heal_at": 0.5},
        {"at": 0.8, "kind": "controller-partition",
         "target": ["lsr-1"], "heal_at": 0.95},
    ],
}


def _run(seed=7):
    with telemetry_session():
        return run_scenario(Scenario.from_dict(SCENARIO), seed=seed)


class TestControllerConfig:
    def test_defaults_are_valid(self):
        assert ControllerConfig().enabled

    def test_hold_time_exceeds_keepalive(self):
        # a single on-time keepalive must refresh the hold timer
        assert HOLD_TIME > KEEPALIVE_INTERVAL

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(
            ValueError,
            match=r"^controller: unknown key\(s\) delegatoin, hold_tme ",
        ):
            ControllerConfig.from_dict(
                {"delegatoin": True, "hold_tme": 0.1}
            )

    def test_from_dict_casts_and_threads_horizon(self):
        cfg = ControllerConfig.from_dict({"enabled": False}, horizon=2.5)
        assert cfg.enabled is False
        assert cfg.horizon == 2.5

    def test_from_dict_takes_only_enabled(self):
        with pytest.raises(
            ValueError,
            match=r"^controller: unknown key\(s\) delegation "
            r"\(accepted: enabled\)$",
        ):
            ControllerConfig.from_dict({"delegation": False})


class TestCspfOverView:
    VIEW = {
        "nodes": {"a": "up", "b": "up", "c": "up", "d": "up"},
        "links": {"a|b": "up", "b|d": "up", "a|c": "up",
                  "c|d": "up", "a|d": "down"},
    }

    def test_shortest_observed_path(self):
        # the direct a-d link is observed down; both two-hop detours
        # tie, and the sorted-neighbor order picks b first
        assert cspf_over_view(self.VIEW, "a", "d") == ["a", "b", "d"]

    def test_degraded_links_still_forward(self):
        view = copy.deepcopy(self.VIEW)
        view["links"]["a|d"] = "degraded"
        assert cspf_over_view(view, "a", "d") == ["a", "d"]

    def test_down_node_pruned(self):
        view = copy.deepcopy(self.VIEW)
        view["nodes"]["b"] = "down"
        assert cspf_over_view(view, "a", "d") == ["a", "c", "d"]

    def test_endpoint_down_raises(self):
        view = copy.deepcopy(self.VIEW)
        view["nodes"]["d"] = "down"
        with pytest.raises(CSPFError, match="endpoint down in the view"):
            cspf_over_view(view, "a", "d")

    def test_unreachable_raises(self):
        view = {
            "nodes": {"a": "up", "b": "up"},
            "links": {"a|b": "down"},
        }
        with pytest.raises(CSPFError, match="unreachable"):
            cspf_over_view(view, "a", "b")


class TestForNodesTransaction:
    def _nodes(self):
        nodes = {
            name: LSRNode(name, RouterRole.LSR) for name in ("n2", "n1")
        }
        nodes["n1"].ilm.install(
            100, NHLFE(op=LabelOp.POP, next_hop=None)
        )
        return nodes

    def test_rollback_spans_every_table(self):
        nodes = self._nodes()
        with pytest.raises(RuntimeError):
            with TableTransaction.for_nodes(nodes):
                nodes["n1"].ilm.install(
                    200, NHLFE(op=LabelOp.POP, next_hop=None)
                )
                nodes["n2"].ilm.install(
                    300, NHLFE(op=LabelOp.POP, next_hop=None)
                )
                raise RuntimeError("abort")
        assert nodes["n1"].ilm.get(200) is None
        assert nodes["n2"].ilm.get(300) is None
        assert nodes["n1"].ilm.get(100) is not None  # pre-txn survives

    def test_commit_keeps_writes(self):
        nodes = self._nodes()
        with TableTransaction.for_nodes(nodes):
            nodes["n2"].ilm.install(
                300, NHLFE(op=LabelOp.POP, next_hop=None)
            )
        assert nodes["n2"].ilm.get(300) is not None


class TestCrashFailover:
    def test_delegation_blackholes_nothing(self):
        report = _run(seed=7)
        ctl = report["controller"]
        assert ctl["enabled"] and ctl["delegation"]
        assert ctl["fecs_blackholed"] == 0
        assert ctl["blackholed_fecs"] == []
        assert ctl["fecs_blackholed_final"] == 0

    def test_failover_and_readopt_times_recorded(self):
        ctl = _run(seed=7)["controller"]
        assert ctl["time_to_failover_s"] is not None
        assert ctl["time_to_readopt_s"] is not None
        assert 0 < ctl["time_to_failover_s"] < 0.2
        assert 0 < ctl["time_to_readopt_s"] < 0.3

    def test_every_node_fails_over_and_readopts(self):
        ctl = _run(seed=7)["controller"]
        crash_overs = [f for f in ctl["failovers"]
                       if f["reason"] == "crash"]
        assert sorted(f["node"] for f in crash_overs) == [
            "ler-a", "ler-b", "lsr-1", "lsr-2", "lsr-3"
        ]
        assert all(f["delegated"] for f in ctl["failovers"])
        crash_readopts = [r for r in ctl["readopts"]
                          if r["reason"] == "crash"]
        assert sorted(r["node"] for r in crash_readopts) == [
            "ler-a", "ler-b", "lsr-1", "lsr-2", "lsr-3"
        ]
        assert ctl["crashes"] == 1 and ctl["restarts"] == 1

    def test_resync_is_transactional_and_counted(self):
        ctl = _run(seed=7)["controller"]
        # one read + one atomic write transaction per readopt
        assert ctl["resync"]["transactions"] == len(ctl["readopts"])
        assert ctl["resync"]["reads"] >= ctl["resync"]["transactions"]
        assert ctl["resync"]["rewrites"] > 0

    def test_orphan_accounting(self):
        ctl = _run(seed=7)["controller"]
        assert ctl["fecs_orphaned"] == 2  # one FEC per direction


class TestPartitionFailover:
    def test_only_the_cut_node_falls_back(self):
        ctl = _run(seed=7)["controller"]
        partition_overs = [f for f in ctl["failovers"]
                           if f["reason"] == "partition"]
        assert [f["node"] for f in partition_overs] == ["lsr-1"]

    def test_partition_readopt_anchored_to_heal(self):
        ctl = _run(seed=7)["controller"]
        readopts = [r for r in ctl["readopts"]
                    if r["reason"] == "partition"]
        assert len(readopts) == 1
        assert readopts[0]["node"] == "lsr-1"
        # healed at 0.95; re-adoption happens after, anchored to it
        assert readopts[0]["at"] > 0.95
        assert readopts[0]["restore_s"] == pytest.approx(
            readopts[0]["at"] - 0.95, abs=1e-9
        )

    def test_channel_drops_accounted(self):
        ctl = _run(seed=7)["controller"]
        assert ctl["channel"]["drops_by_cause"].get("partition", 0) > 0
        assert ctl["channel"]["timeouts"] > 0


class TestDeterminismAndGating:
    def test_same_seed_byte_identical(self):
        assert _run(seed=19).to_json() == _run(seed=19).to_json()

    def test_disabled_controller_is_inert(self):
        raw = copy.deepcopy(SCENARIO)
        raw["controller"]["enabled"] = False
        with telemetry_session():
            report = run_scenario(Scenario.from_dict(raw), seed=7)
        ctl = report["controller"]
        assert ctl["enabled"] is False
        assert ctl["adoptions"] == 0
        assert ctl["failovers"] == [] and ctl["readopts"] == []

    def test_reports_without_controller_key_unchanged(self):
        raw = copy.deepcopy(SCENARIO)
        del raw["controller"]
        raw["faults"] = [
            {"at": 0.2, "kind": "link-down",
             "target": ["lsr-1", "lsr-2"], "heal_at": 0.45},
        ]
        with telemetry_session():
            report = run_scenario(Scenario.from_dict(raw), seed=7)
        assert "controller" not in report.data


class TestAgentStates:
    def test_state_constants_are_distinct(self):
        assert STATE_DISTRIBUTED != STATE_ADOPTED

    def test_fec_specs_sorted_on_construction(self):
        from repro.mpls.fec import PrefixFEC
        from repro.net.topology import paper_figure1
        from repro.net.network import MPLSNetwork

        network = MPLSNetwork(paper_figure1(delay_s=1e-3))
        specs = [
            (PrefixFEC("10.2.0.0/16"), "ler-b", "ler-a"),
            (PrefixFEC("10.1.0.0/16"), "ler-a", "ler-b"),
        ]
        ctl = PCEController(network, ControllerConfig(), fec_specs=specs)
        assert [s[1] for s in ctl.fec_specs] == ["ler-a", "ler-b"]
