"""Tests for the topology observatory (``repro.obs.topo``)."""

import json

import pytest

from repro.net.topology import paper_figure1
from repro.obs.events import (
    FaultHealed,
    FaultInjected,
    LabelMappingInstalled,
    LabelMappingWithdrawn,
    LSPEvent,
    SessionStateChange,
    StaleEntriesFlushed,
)
from repro.obs.telemetry import Telemetry, telemetry_session
from repro.obs.topo import TopologyObserver


def _observer(snapshot_every=64):
    return TopologyObserver(paper_figure1(), snapshot_every=snapshot_every)


def _emit(obs, event, at):
    event.time = at
    obs.consume(event)


class TestLiveView:
    def test_initial_view_has_every_node_and_link_up(self):
        obs = _observer()
        view = obs.live_view()
        assert view.data["nodes"] == {
            name: "up"
            for name in ("ler-a", "ler-b", "lsr-1", "lsr-2", "lsr-3")
        }
        assert all(s == "up" for s in view.data["links"].values())
        assert obs.version == 0

    def test_live_view_is_a_copy(self):
        obs = _observer()
        obs.live_view().data["nodes"]["ler-a"] = "down"
        assert obs.live_view().data["nodes"]["ler-a"] == "up"

    def test_install_and_withdraw_round_trip(self):
        obs = _observer()
        _emit(obs, LabelMappingInstalled(
            node="lsr-1", fec_id="10.2.0.0/16", label=17, next_hop="lsr-2"
        ), 0.1)
        assert obs.live_view().data["fecs"]["10.2.0.0/16"] == {
            "lsr-1": {"label": 17, "next_hop": "lsr-2"}
        }
        _emit(obs, LabelMappingWithdrawn(
            node="lsr-1", fec_id="10.2.0.0/16", label=17
        ), 0.2)
        assert "10.2.0.0/16" not in obs.live_view().data["fecs"]

    def test_identical_install_does_not_journal_a_delta(self):
        obs = _observer()
        event = LabelMappingInstalled(
            node="lsr-1", fec_id="f", label=17, next_hop="lsr-2"
        )
        _emit(obs, event, 0.1)
        version = obs.version
        again = LabelMappingInstalled(
            node="lsr-1", fec_id="f", label=17, next_hop="lsr-2"
        )
        _emit(obs, again, 0.2)
        assert obs.version == version

    def test_directed_adjacencies(self):
        obs = _observer()
        _emit(obs, SessionStateChange(
            node="lsr-1", peer="lsr-2", state="up"
        ), 0.0)
        assert obs.live_view().data["adjacencies"] == {"lsr-1>lsr-2": "up"}

    def test_data_plane_kinds_are_ignored(self):
        from repro.obs.events import PacketForwarded

        obs = _observer()
        _emit(obs, PacketForwarded(node="lsr-1", uid=1, flow_id=1), 0.5)
        assert obs.version == 0


class TestFaultModel:
    def test_link_down_and_heal(self):
        obs = _observer()
        _emit(obs, FaultInjected(
            fault="link-down", target="lsr-1-lsr-2"
        ), 0.2)
        view = obs.live_view().data
        assert view["links"]["lsr-1|lsr-2"] == "down"
        assert view["faults"] == {"link-down|lsr-1-lsr-2": 0.2}
        _emit(obs, FaultHealed(
            fault="link-down", target="lsr-1-lsr-2", downtime=0.1
        ), 0.3)
        view = obs.live_view().data
        assert view["links"]["lsr-1|lsr-2"] == "up"
        assert view["faults"] == {}

    def test_hyphenated_target_labels_split_against_node_set(self):
        obs = _observer()
        assert obs._split_link_target("ler-a-lsr-1") == ("ler-a", "lsr-1")
        assert obs._split_link_target("lsr-1-lsr-3") == ("lsr-1", "lsr-3")
        assert obs._split_link_target("nonsense") is None

    def test_loss_degrades_without_downing(self):
        obs = _observer()
        _emit(obs, FaultInjected(
            fault="link-loss", target="ler-a-lsr-1"
        ), 0.1)
        assert obs.live_view().data["links"]["ler-a|lsr-1"] == "degraded"
        _emit(obs, FaultHealed(
            fault="link-loss", target="ler-a-lsr-1", downtime=0.1
        ), 0.2)
        assert obs.live_view().data["links"]["ler-a|lsr-1"] == "up"

    def test_node_crash_downs_incident_links(self):
        obs = _observer()
        _emit(obs, FaultInjected(fault="node-crash", target="lsr-1"), 0.1)
        view = obs.live_view().data
        assert view["nodes"]["lsr-1"] == "down"
        assert view["links"]["ler-a|lsr-1"] == "down"
        assert view["links"]["lsr-1|lsr-2"] == "down"
        assert view["links"]["ler-b|lsr-2"] == "up"
        _emit(obs, FaultHealed(
            fault="node-crash", target="lsr-1", downtime=0.1
        ), 0.2)
        view = obs.live_view().data
        assert view["nodes"]["lsr-1"] == "up"
        assert view["links"]["ler-a|lsr-1"] == "up"

    def test_crash_then_heal_keeps_separately_failed_link_down(self):
        obs = _observer()
        _emit(obs, FaultInjected(
            fault="link-down", target="lsr-1-lsr-2"
        ), 0.1)
        _emit(obs, FaultInjected(fault="node-crash", target="lsr-1"), 0.2)
        _emit(obs, FaultHealed(
            fault="node-crash", target="lsr-1", downtime=0.1
        ), 0.3)
        view = obs.live_view().data
        # the link-down fault is still active: only the node heal
        # must not resurrect the link
        assert view["links"]["lsr-1|lsr-2"] == "down"
        assert view["links"]["ler-a|lsr-1"] == "up"

    def test_skipped_reinjection_mirrors_the_injector(self):
        obs = _observer()
        _emit(obs, FaultInjected(
            fault="link-down", target="lsr-1-lsr-2"
        ), 0.1)
        disruptions = len(obs.disruptions)
        # the injector emits FaultInjected even for a skipped fault
        # (link already down); the observer must not double-count it
        _emit(obs, FaultInjected(
            fault="link-down", target="lsr-1-lsr-2",
            detail="link already down",
        ), 0.15)
        assert len(obs.disruptions) == disruptions

    def test_node_restart_is_warm(self):
        obs = _observer()
        _emit(obs, FaultInjected(fault="node-restart", target="lsr-2"), 0.1)
        view = obs.live_view().data
        assert view["nodes"]["lsr-2"] == "restarting"
        # warm restart: the data plane keeps forwarding
        assert view["links"]["lsr-1|lsr-2"] == "up"


class TestLSPTracking:
    def test_setup_teardown(self):
        obs = _observer()
        _emit(obs, LSPEvent(
            name="t1", event="setup",
            detail="ler-a->lsr-1->lsr-2 @ 1e+06 bps",
        ), 0.0)
        assert obs.live_view().data["lsps"]["t1"] == {
            "state": "up", "route": "ler-a->lsr-1->lsr-2"
        }
        _emit(obs, LSPEvent(name="t1", event="teardown"), 0.2)
        assert obs.live_view().data["lsps"]["t1"] == {
            "state": "down", "route": "ler-a->lsr-1->lsr-2"
        }

    def test_frr_switchover_and_revert(self):
        obs = _observer()
        _emit(obs, LSPEvent(
            name="p1", event="frr-switchover",
            detail="link lsr-1-lsr-2 failed; now on backup",
        ), 0.1)
        assert obs.live_view().data["frr"]["p1"] == "backup"
        _emit(obs, LSPEvent(
            name="p1", event="frr-revert", detail="back on primary"
        ), 0.2)
        assert obs.live_view().data["frr"]["p1"] == "primary"


class TestTimeTravel:
    def _scripted(self, snapshot_every=4):
        obs = _observer(snapshot_every=snapshot_every)
        for i in range(10):
            _emit(obs, LabelMappingInstalled(
                node="lsr-1", fec_id=f"fec-{i}", label=16 + i,
                next_hop="lsr-2",
            ), 0.1 * (i + 1))
        _emit(obs, FaultInjected(
            fault="link-down", target="lsr-1-lsr-2"
        ), 1.5)
        return obs

    def test_at_end_equals_live_view_byte_for_byte(self):
        obs = self._scripted()
        live = obs.live_view()
        replayed = obs.at(99.0)
        assert (
            json.dumps(replayed.data, sort_keys=True)
            == json.dumps(live.data, sort_keys=True)
        )

    def test_at_mid_run_reconstructs_the_moment(self):
        obs = self._scripted()
        view = obs.at(0.35)  # after fec-0..2, before fec-3
        assert set(view.data["fecs"]) == {"fec-0", "fec-1", "fec-2"}
        assert view.data["links"]["lsr-1|lsr-2"] == "up"

    def test_at_zero_is_the_initial_topology(self):
        obs = self._scripted()
        view = obs.at(0.0)
        assert view.data["fecs"] == {}
        assert all(s == "up" for s in view.data["links"].values())

    def test_snapshot_cadence(self):
        obs = self._scripted(snapshot_every=4)
        # the delta count is >= 12 (10 installs, fault ledger + link)
        assert len(obs.snapshots) == 1 + obs.version // 4

    def test_replay_from_every_snapshot_agrees(self):
        obs = self._scripted(snapshot_every=3)
        for t in (0.0, 0.15, 0.45, 0.95, 1.5, 2.0):
            replayed = obs.at(t)
            # replaying the full delta prefix from snapshot 0 must give
            # the same bytes as the bisected snapshot's shorter replay
            idx = len([x for x in obs._delta_times if x <= t])
            full = json.loads(json.dumps(obs.snapshots[0]["view"]))
            for delta in obs.deltas[:idx]:
                TopologyObserver._apply(full, delta)
            assert (
                json.dumps(replayed.data, sort_keys=True)
                == json.dumps(full, sort_keys=True)
            )

    def test_diff_lists_leaf_changes(self):
        obs = self._scripted()
        before, after = obs.at(1.4), obs.at(1.6)
        changes = before.diff(after)
        paths = {c["path"] for c in changes}
        assert "links.lsr-1|lsr-2" in paths
        assert "faults.link-down|lsr-1-lsr-2" in paths
        assert before.diff(before) == []


class TestHealthAndExports:
    def test_health_scores(self):
        obs = _observer()
        _emit(obs, FaultInjected(fault="node-crash", target="lsr-1"), 0.1)
        health = obs.live_view().health()
        assert health["nodes"]["lsr-1"] == 0.0
        assert health["nodes"]["ler-a"] == 1.0
        assert health["links"]["lsr-1|lsr-2"] == 0.0
        assert 0.0 < health["overall"] < 1.0

    def test_congested_link_scores_half(self):
        obs = _observer()
        obs.record_utilization(0.1, {("ler-a", "lsr-1"): 0.97})
        health = obs.live_view().health()
        assert health["links"]["ler-a|lsr-1"] == 0.5

    def test_to_json_is_stable(self):
        obs = _observer()
        assert obs.live_view().to_json() == obs.live_view().to_json()
        assert obs.live_view().to_json().endswith("\n")

    def test_to_dot_renders_states(self):
        obs = _observer()
        _emit(obs, FaultInjected(
            fault="link-down", target="lsr-1-lsr-2"
        ), 0.1)
        dot = obs.live_view().to_dot()
        assert dot.startswith("graph topology {")
        assert '"lsr-1" -- "lsr-2" [color=red]' in dot


class TestConvergence:
    def test_changes_attribute_to_the_latest_disruption(self):
        obs = _observer()
        _emit(obs, LabelMappingInstalled(
            node="lsr-1", fec_id="f", label=16, next_hop="lsr-2"
        ), 0.0)
        _emit(obs, FaultInjected(
            fault="link-down", target="lsr-1-lsr-2"
        ), 0.2)
        _emit(obs, LabelMappingWithdrawn(
            node="lsr-1", fec_id="f", label=16
        ), 0.201)
        _emit(obs, LabelMappingInstalled(
            node="lsr-1", fec_id="f", label=16, next_hop="lsr-3"
        ), 0.202)
        conv = obs.convergence()
        assert conv["initial"]["table_transactions"] == 1
        [disruption] = conv["disruptions"]
        assert disruption["kind"] == "link-down"
        assert disruption["table_transactions"] == 2
        assert disruption["settled_at"] == 0.202
        assert disruption["time_to_converge_s"] == pytest.approx(0.002)

    def test_stale_flush_counts_tables_without_view_change(self):
        obs = _observer()
        _emit(obs, FaultInjected(
            fault="node-restart", target="lsr-1"
        ), 0.1)
        version = obs.version
        _emit(obs, StaleEntriesFlushed(
            node="lsr-1", ilm_flushed=3, ftn_flushed=2
        ), 0.4)
        assert obs.version == version  # no delta: bindings unchanged
        [disruption] = obs.convergence()["disruptions"]
        assert disruption["table_transactions"] == 5

    def test_convergence_seconds_metric_published_on_finalize(self):
        tel = Telemetry(enabled=True)
        with telemetry_session(telemetry=tel):
            obs = _observer()
            obs.attach(tel)
            _emit(obs, FaultInjected(
                fault="link-down", target="lsr-1-lsr-2"
            ), 0.2)
            _emit(obs, LabelMappingInstalled(
                node="lsr-1", fec_id="f", label=16, next_hop="lsr-3"
            ), 0.25)
            obs.finalize()
            obs.detach()
            family = tel.registry.get("repro_topo_convergence_seconds")
            [(labels, child)] = family.samples()
            assert labels == ("link-down",)
            assert child.count == 1
            # the link is still down at finalize: health reflects it
            health = tel.registry.value("repro_topo_health")
            assert 0.0 < health < 1.0
            assert health == obs.live_view().health()["overall"]


class TestAttachment:
    def test_attach_consumes_emitted_events(self):
        tel = Telemetry(enabled=True)
        obs = _observer()
        obs.attach(tel)
        assert tel.topo is obs
        event = FaultInjected(fault="link-down", target="lsr-1-lsr-2")
        event.time = 0.1
        tel.events.emit(event)
        assert obs.live_view().data["links"]["lsr-1|lsr-2"] == "down"
        assert tel.registry.value("repro_topo_deltas_total") > 0
        obs.detach()
        assert tel.topo is None

    def test_double_attach_raises(self):
        tel = Telemetry(enabled=True)
        obs = _observer()
        obs.attach(tel)
        with pytest.raises(RuntimeError):
            obs.attach(tel)
        obs.detach()

    def test_snapshot_every_must_be_positive(self):
        with pytest.raises(ValueError):
            TopologyObserver(paper_figure1(), snapshot_every=0)


class TestUtilization:
    def test_mirrors_collector_ticks(self):
        obs = _observer()
        obs.record_utilization(0.1, {("ler-a", "lsr-1"): 0.25})
        assert obs.live_view().data["utilization"] == {
            "ler-a>lsr-1": 0.25
        }
        # a link with no traffic this interval keeps its last gauge
        # value (Prometheus semantics)
        obs.record_utilization(0.2, {("lsr-1", "lsr-2"): 0.5})
        assert obs.live_view().data["utilization"] == {
            "ler-a>lsr-1": 0.25,
            "lsr-1>lsr-2": 0.5,
        }
