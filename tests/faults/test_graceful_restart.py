"""Graceful (warm) restart, the hold-timer flush, transactional
reconvergence, and the consistency auditor."""

import json

import pytest

from repro.control.ldp import LDPProcess
from repro.faults import (
    ConsistencyAuditor,
    FaultKind,
    FaultSpec,
    Scenario,
    ScenarioError,
)
from repro.faults.chaos import build_run, run_scenario
from repro.faults.injector import FaultInjector
from repro.faults.planes import CONTROL_PLANES, ConvergedLDP
from repro.faults.scenario import FAULT_KINDS
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource


def _network():
    topology = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    network = MPLSNetwork(
        topology,
        roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER},
    )
    network.attach_host("ler-b", "10.2.0.0/16")
    ldp = LDPProcess(topology, network.nodes)
    ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
    return network, ldp


#: the fault kinds a run needs a control plane for
PLANE_KINDS = [kind for kind, row in FAULT_KINDS.items() if row.controls]


def _value(param):
    return getattr(param, "value", param)


def _needing(kind, control):
    """A scenario with one ``kind`` fault, run under ``control``."""
    row = FAULT_KINDS[kind]
    doc = {
        "name": "bad",
        "topology": {"kind": "paper_figure1"},
        "control": control,
        "traffic": [
            {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
             "src": "10.1.0.5", "dst": "10.2.0.9"}
        ],
        "faults": [{
            "at": 0.1, "kind": kind.value,
            "target": ["ler-a", "lsr-1"] if row.target == "link" else "ler-a",
        }],
        "protection": [{"name": "p1", "ingress": "ler-a", "egress": "ler-b"}],
    }
    if row.key is not None:
        doc[row.key] = {}
    return Scenario.from_dict(doc)


def _flow(network, rate_bps=2e6, stop=1.0):
    source = CBRSource(
        network.scheduler,
        network.source_sink("ler-a"),
        src="10.1.0.5",
        dst="10.2.0.9",
        rate_bps=rate_bps,
        packet_size=500,
        stop=stop,
    )
    source.begin()
    return source


class TestWarmRestart:
    def test_non_stop_forwarding_through_warm_restart(self):
        """All traffic traverses lsr-1; a warm restart there must lose
        nothing at all -- the defining property of graceful restart."""
        network, ldp = _network()
        source = _flow(network, stop=0.8)
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_RESTART, at=0.2,
                target=("lsr-1",), heal_at=0.4,
                params={"hold_time": 0.5},
            )
        )
        network.run(until=1.0)
        assert network.delivered_count() == source.sent
        assert not network.drops
        restart = injector.restarts[0]
        assert restart.ilm_stale_marked > 0
        assert restart.resumed_at == pytest.approx(0.4)
        # the reconvergence refreshed every entry in place, so the
        # hold-timer expiry had nothing left to flush
        assert restart.ilm_flushed == 0 and restart.ftn_flushed == 0
        assert restart.stale_forwarding_s == pytest.approx(0.2)
        # a warm restart never takes links down
        assert injector.node_was_up("lsr-1", 0.3)
        assert injector.link_was_up("ler-a", "lsr-1", 0.3)

    def test_hold_timer_flushes_exactly_on_expiry(self):
        """A control plane that never comes back: stale entries keep
        forwarding until began_at + hold_time, then vanish."""
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_RESTART, at=0.1,
                target=("lsr-1",), params={"hold_time": 0.2},
            )
        )
        node = network.nodes["lsr-1"]
        observed = {}
        network.scheduler.at(
            0.299, lambda: observed.__setitem__(
                "before", (len(node.ilm), node.ilm.stale_labels())
            )
        )
        network.scheduler.at(
            0.3001, lambda: observed.__setitem__(
                "after", (len(node.ilm), node.ilm.stale_labels())
            )
        )
        network.run(until=0.5)
        entries_before, stale_before = observed["before"]
        entries_after, stale_after = observed["after"]
        assert entries_before > 0 and stale_before
        assert entries_after == 0 and not stale_after
        restart = injector.restarts[0]
        assert restart.hold_expired_at == pytest.approx(0.3)
        assert restart.ilm_flushed == len(stale_before)
        assert restart.resumed_at is None
        assert restart.stale_forwarding_s == pytest.approx(0.2)

    def test_forwarding_survives_until_flush_then_drops(self):
        network, ldp = _network()
        source = _flow(network, stop=0.6)
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_RESTART, at=0.1,
                target=("lsr-1",), params={"hold_time": 0.25},
            )
        )
        network.run(until=0.8)
        assert injector.restarts[0].ilm_flushed > 0
        # deliveries continue well into the stale window...
        assert any(0.1 < t < 0.35 for t in network.deliveries.time)
        # ...and every drop comes after the flush removed the entries
        assert network.drops
        assert all(t >= 0.35 for t in network.drops.time)

    @pytest.mark.parametrize("kind", PLANE_KINDS, ids=_value)
    def test_restart_needs_a_label_distribution_protocol(self, kind):
        """Every kind that needs a control plane -- a graceful restart
        the LDP rows, the session and attack kinds message LDP -- is
        refused by an injector with no plane, naming the kind."""
        network, _ = _network()
        injector = FaultInjector(network)  # no plane
        with pytest.raises(ScenarioError, match=f"^{kind.value} .*needs control = "):
            injector.apply(_needing(kind, "ldp"))

    @pytest.mark.parametrize("kind,control", [
        (kind, control) for kind in PLANE_KINDS for control in CONTROL_PLANES
        if control not in FAULT_KINDS[kind].controls
    ], ids=_value)
    def test_a_kind_is_refused_under_the_wrong_plane(self, kind, control):
        with pytest.raises(ScenarioError, match=f"^{kind.value} .*needs control = "):
            build_run(_needing(kind, control))

    def test_double_restart_skips(self):
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_RESTART, at=0.1,
                target=("lsr-1",), heal_at=0.5,
                params={"hold_time": 0.6},
            )
        )
        second = injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_RESTART, at=0.2,
                target=("lsr-1",), heal_at=0.3,
            )
        )
        network.run(until=1.0)
        assert second.skipped
        assert len(injector.restarts) == 1


class TestMessageLDPWarmRestart:
    def test_sessions_reform_and_refresh_in_place(self):
        scenario = Scenario.from_dict(
            {
                "name": "gr-messages",
                "topology": {"kind": "paper_figure1",
                             "bandwidth_bps": 10e6, "delay_s": 1e-3},
                "control": "ldp-messages",
                "duration": 1.2,
                "traffic": [
                    {"ingress": "ler-a", "egress": "ler-b",
                     "prefix": "10.2.0.0/16",
                     "src": "10.1.0.5", "dst": "10.2.0.9",
                     "rate_bps": 2e6, "packet_size": 500,
                     "start": 0.3, "stop": 0.9}
                ],
                "faults": [
                    {"at": 0.4, "kind": "node-restart", "target": "lsr-1",
                     "heal_at": 0.5, "hold_time": 0.6}
                ],
            }
        )
        run = build_run(scenario, seed=3)
        run.network.run(until=scenario.duration)
        restart = run.injector.restarts[0]
        # helpers stale-marked the entries routed via lsr-1 on top of
        # the restarting node's own preserved state
        assert restart.ilm_stale_marked > 0
        # sessions re-formed and keepalive re-advertisement refreshed
        # everything before the hold timer fired: nothing was flushed
        assert restart.ilm_flushed == 0 and restart.ftn_flushed == 0
        for name in ("ler-a", "lsr-1", "lsr-2", "lsr-3", "ler-b"):
            node = run.network.nodes[name]
            assert not node.ilm.stale_labels(), name
            assert not node.ftn.stale_fecs(), name
        # non-stop forwarding: no packet was lost to the restart
        sent = sum(s.sent for s in run.sources)
        assert run.network.delivered_count() == sent
        assert not run.network.drops


    def test_the_hold_timer_flushes_the_helpers_too(self):
        """A restart that never resumes: at hold-timer expiry the helper
        peers' entries routed via the restarting node are flushed with
        its own (ler-a's ILM and FTN entries via lsr-1)."""
        scenario = Scenario.from_dict({
            "name": "gr-helpers",
            "topology": {"kind": "paper_figure1"},
            "control": "ldp-messages",
            "duration": 1.0,
            "traffic": [
                {"ingress": "ler-a", "egress": "ler-b",
                 "prefix": "10.2.0.0/16", "src": "10.1.0.5",
                 "dst": "10.2.0.9", "start": 0.3, "stop": 0.9}
            ],
            "faults": [
                {"at": 0.4, "kind": "node-restart", "target": "lsr-1",
                 "hold_time": 0.2}
            ],
        })
        run = build_run(scenario, seed=3)
        run.network.run(until=0.55)
        ler_a = run.network.nodes["ler-a"]
        assert ler_a.ilm.stale_labels() and ler_a.ftn.stale_fecs()
        run.network.run(until=scenario.duration)
        restart = run.injector.restarts[0]
        assert (restart.ilm_flushed, restart.ftn_flushed) == (2, 1)
        for name, node in run.network.nodes.items():
            assert not node.ilm.stale_labels(), name
            assert not node.ftn.stale_fecs(), name


class TestAdjacentCrashRestarts:
    def test_shared_link_stays_down_until_both_restart(self):
        """Regression for the injector/network disagreement on shared
        crash links: restarting one of two adjacent crashed nodes must
        not mark (or restore) the link between them."""
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_CRASH, at=0.1,
                target=("lsr-1",), heal_at=0.3,
            )
        )
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_CRASH, at=0.1,
                target=("lsr-2",), heal_at=0.5,
            )
        )
        network.run(until=1.0)
        # between the two restarts only lsr-1 is back; the shared link
        # must still be down in the network AND in the injector's log
        assert not injector.link_was_up("lsr-1", "lsr-2", 0.4)
        assert injector.link_was_up("ler-a", "lsr-1", 0.4)
        # after the second restart everything is whole again
        assert network.link_is_up("lsr-1", "lsr-2")
        assert injector.link_was_up("lsr-1", "lsr-2", 0.6)
        # no dangling failed-link bookkeeping
        assert not network._failed_links
        assert not network._down_nodes


class TestTransactionalReconvergence:
    def test_crash_mid_reconverge_leaves_old_tables_forwarding(self):
        """An exception halfway through reconvergence rolls the
        transaction back on every table: the data plane keeps
        forwarding on the pre-transaction state."""
        network, ldp = _network()
        before = {
            name: (dict(node.ilm), list(node.ftn))
            for name, node in network.nodes.items()
        }
        generations = {
            name: (node.ilm.generation, node.ftn.generation)
            for name, node in network.nodes.items()
        }
        original = ldp.establish_fec

        def exploding(*args, **kwargs):
            # the withdraw half of the re-derivation has already staged
            # its removals when this fires: all of it must roll back
            raise RuntimeError("control plane died mid-reconverge")

        ldp.establish_fec = exploding
        with pytest.raises(RuntimeError):
            ldp.reconverge()
        ldp.establish_fec = original
        for name, node in network.nodes.items():
            assert not node.ilm.in_transaction
            assert not node.ftn.in_transaction
            assert dict(node.ilm) == before[name][0]
            assert list(node.ftn) == before[name][1]
            # no generation bump: hardware nodes would not resync
            assert (
                node.ilm.generation, node.ftn.generation
            ) == generations[name]
        # and the network still forwards end to end on the old tables
        source = _flow(network, stop=0.2)
        network.run(until=0.4)
        assert network.delivered_count() == source.sent


class TestConsistencyAuditor:
    def _hw_network(self):
        from repro.core.hwnode import HardwareLSRNode

        topology = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
        network = MPLSNetwork(
            topology,
            roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER},
            node_factory=HardwareLSRNode,
        )
        network.attach_host("ler-b", "10.2.0.0/16")
        ldp = LDPProcess(topology, network.nodes)
        ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
        return network, ldp

    def test_repairs_drift_from_corruption(self):
        network, _ = self._hw_network()
        node = network.nodes["lsr-1"]
        node._sync_info_base()
        auditor = ConsistencyAuditor(network, period=0.1)
        network.scheduler.at(
            0.15, lambda: node.modifier.corrupt_pair(2, 0, label_xor=0x4)
        )
        network.run(until=0.35)
        assert len(auditor.records) == 3
        assert auditor.records[0].clean  # before the corruption
        hit = auditor.records[1]  # the 0.2 pass sees the flip
        assert hit.drift_nodes == ["lsr-1"]
        assert hit.repaired >= 1
        assert hit.cycles > 0
        assert auditor.records[2].clean  # repaired: clean again
        for level in (1, 2, 3):
            assert sorted(node.modifier.ib_pairs(level)) == sorted(
                node._expected_pairs(level)
            )

    def test_watchdog_flags_transaction_open_across_passes(self):
        network, _ = self._hw_network()
        node = network.nodes["lsr-2"]
        network.scheduler.at(0.05, node.ilm.begin)
        auditor = ConsistencyAuditor(network, period=0.1)
        network.run(until=0.35)
        # first pass sees it open (no alarm yet), second pass alarms
        assert not auditor.records[0].watchdog_alarms
        assert auditor.records[1].watchdog_alarms == ["lsr-2"]
        assert auditor.records[2].watchdog_alarms == ["lsr-2"]
        assert not auditor.clean
        node.ilm.rollback()

    def test_stale_mirror_is_not_drift(self):
        """A generation the node was never asked to sync is lazily
        stale, not corrupted: the auditor must not cry wolf."""
        network, ldp = self._hw_network()
        node = network.nodes["lsr-1"]
        node._sync_info_base()
        auditor = ConsistencyAuditor(network, period=0.1)
        # bump the ILM without a sync: the mirror is now behind
        network.scheduler.at(
            0.15, lambda: ldp.establish_fec(
                PrefixFEC("10.9.0.0/16"), egress="ler-b"
            )
        )
        network.run(until=0.35)
        assert auditor.clean


class TestGracefulRestartScenario:
    def test_example_contrasts_warm_and_cold(self):
        scenario = Scenario.load("examples/chaos_graceful_restart.json")
        report = run_scenario(scenario, seed=7)
        gr = report["graceful_restart"]
        warm = gr["restarts"][0]
        # the warm restart dropped nothing at the node and refreshed
        # every stale entry in place at resume
        assert warm["drops_at_node_during_restart"] == 0
        assert warm["flushed"] == {"ilm": 0, "ftn": 0}
        assert warm["stale_marked"]["ilm"] > 0
        # the flow that never traverses n1 sees zero loss end to end
        flows = {f["index"]: f for f in gr["flows"]}
        assert flows[1]["lost"] == 0
        # the cold crash of the same node is the contrast: the n0->n2
        # flow loses packets only to it, never to the warm restart
        cold = next(
            f for f in report["faults"] if f["kind"] == "node-crash"
        )
        assert not cold["skipped"]
        assert report["audit"]["passes"] > 0

    def test_report_is_byte_stable(self):
        scenario = Scenario.load("examples/chaos_graceful_restart.json")
        first = run_scenario(scenario, seed=7).to_json()
        second = run_scenario(
            Scenario.load("examples/chaos_graceful_restart.json"), seed=7
        ).to_json()
        assert first == second
        json.loads(first)  # well-formed
