"""FRR path protection under injected link failures.

The documented switchover budget (docs/fault_injection.md): failure
detection (1 ms loss-of-light stand-in) plus one FTN rewrite, which at
the paper's 50 MHz clock must complete within 100,000 cycles.  The
switchover itself is a single ingress FTN write, so the measured
latency is dominated by -- and equal to -- the detection delay.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.device import STRATIX_EP1S40
from repro.faults import FaultKind, FaultSpec, Scenario
from repro.faults.chaos import build_run, run_scenario

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: documented switchover budget in 50 MHz cycles (2 ms)
SWITCHOVER_BUDGET_CYCLES = 100_000

DETECTION = 1e-3


def _frr_scenario(**overrides):
    doc = {
        "name": "frr-test",
        "topology": {"kind": "paper_figure1",
                     "bandwidth_bps": 10e6, "delay_s": 1e-3},
        "control": "frr",
        "duration": 1.0,
        "traffic": [
            {"ingress": "ler-a", "egress": "ler-b",
             "prefix": "10.2.0.0/16",
             "src": "10.1.0.5", "dst": "10.2.0.9",
             "rate_bps": 2e6, "packet_size": 500}
        ],
        "protection": [
            {"name": "p1", "ingress": "ler-a", "egress": "ler-b",
             "prefix": "10.2.0.0/16"}
        ],
    }
    doc.update(overrides)
    return Scenario.from_dict(doc)


def _primary_core_link(run):
    """The first core link of the protected primary path."""
    protected = run.control.process.protected["p1"]
    return tuple(protected.primary.path[1:3])


class TestSwitchoverUnderInjection:
    def _run_with_failure(self):
        run = build_run(_frr_scenario(), seed=7)
        a, b = _primary_core_link(run)
        run.injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.LINK_DOWN, at=0.3,
                target=(a, b), heal_at=0.7,
            )
        )
        run.network.run(until=1.0)
        return run

    def test_backup_within_cycle_budget(self):
        run = self._run_with_failure()
        assert run.control.process.switchovers == 1
        assert len(run.control.switchovers) == 1
        switchover = run.control.switchovers[0]
        assert switchover.paths == ["p1"]
        assert switchover.latency_s == pytest.approx(DETECTION)
        cycles = int(round(
            switchover.latency_s * STRATIX_EP1S40.clock_hz
        ))
        assert cycles <= SWITCHOVER_BUDGET_CYCLES, (
            f"switchover took {cycles} cycles; "
            f"budget is {SWITCHOVER_BUDGET_CYCLES}"
        )

    def test_traffic_rides_backup_during_outage(self):
        run = self._run_with_failure()
        network = run.network
        # only the detection window loses packets; everything sent
        # while riding the backup is delivered
        outage_drops = [
            d for d in network.drops.views() if 0.3 <= d.time <= 0.3 + 5 * DETECTION
        ]
        late_drops = [
            d for d in network.drops.views() if d.time > 0.3 + 5 * DETECTION
        ]
        assert late_drops == [], "drops continued after the switchover"
        assert len(outage_drops) <= 5
        sent = run.sources[0].sent
        assert network.delivered_count() >= sent - len(outage_drops) - 5

    def test_revert_restores_primary_on_heal(self):
        run = self._run_with_failure()
        protected = run.control.process.protected["p1"]
        assert protected.active == "primary", (
            "heal detection must revert the protected path"
        )
        assert run.control.reverts, "no revert was recorded"
        revert_time, name = run.control.reverts[0]
        assert name == "p1"
        assert revert_time == pytest.approx(0.7 + DETECTION)
        # the ingress pushes the primary's first label again
        ingress = run.network.nodes["ler-a"]
        from repro.net.packet import IPv4Packet

        _, nhlfe = ingress.ftn.lookup(
            IPv4Packet(src="10.1.0.5", dst="10.2.0.9")
        )
        assert nhlfe.out_label == protected.primary.hop_labels[0]

    def test_backup_failure_while_active_switches_back_on_heal(self):
        """Kill the primary, then the backup too: the FEC is stranded
        until the primary heals, at which point recovery steers back."""
        run = build_run(_frr_scenario(duration=1.4), seed=3)
        protected = run.control.process.protected["p1"]
        pa, pb = _primary_core_link(run)
        # the backup's first core link
        ba, bb = tuple(protected.backup.path[1:3])
        run.injector.schedule_fault(
            FaultSpec(kind=FaultKind.LINK_DOWN, at=0.3,
                      target=(pa, pb), heal_at=0.9)
        )
        run.injector.schedule_fault(
            FaultSpec(kind=FaultKind.LINK_DOWN, at=0.5,
                      target=(ba, bb), heal_at=1.2)
        )
        run.network.run(until=1.4)
        # primary healed first while the backup was dead: FRR must have
        # steered the FEC back onto the primary
        assert protected.active == "primary"
        late = [t for t in run.network.deliveries.time if t > 0.95]
        assert late, "traffic never recovered after the primary healed"


class TestScenarioLevel:
    def test_bundled_frr_scenario_report(self):
        report = run_scenario(
            Scenario.load(str(EXAMPLES / "chaos_frr.json")), seed=7
        )
        frr = report["frr"]
        assert frr["switchovers"] == 1
        assert frr["reverts"] == 1
        assert frr["switchover_latency_cycles"][0] <= SWITCHOVER_BUDGET_CYCLES
        assert report["traffic"]["availability"] > 0.98

    @pytest.mark.parametrize("seed", [0, 7])
    def test_hardware_nodes_report_what_software_nodes_report(
        self, seed, tmp_path, capsys
    ):
        # A hardware ingress serves a known destination from its
        # level-1 learned pair, and a switchover or revert rewrites
        # only the FTN: a pair still holding the primary's label kept
        # the ingress switching onto the dead link (availability 0.59).
        raw = json.loads((EXAMPLES / "chaos_frr.json").read_text())
        path = tmp_path / "chaos_frr_hw.json"
        path.write_text(json.dumps({**raw, "hardware": True}))
        reports = []
        for scenario in (EXAMPLES / "chaos_frr.json", path):
            assert main(["chaos", str(scenario), "--seed", str(seed)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        software, hardware = reports
        assert (software.pop("hardware"), hardware.pop("hardware")) == (
            False, True
        )
        # the software engine emits label-op events, the hardware
        # info-base-programmed ones
        software.pop("events")
        hardware.pop("events")
        assert hardware == software
