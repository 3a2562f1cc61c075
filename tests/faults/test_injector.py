"""FaultInjector unit behaviour, one fault kind at a time."""

import re

import pytest

from repro.control.ldp import LDPProcess
from repro.faults import FaultKind, FaultSpec, Scenario, ScenarioError
from repro.faults.chaos import build_run, run_scenario
from repro.faults.injector import SPOOFED_SRC, WINDOW_S, FaultInjector
from repro.faults.planes import ConvergedLDP
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.packet import MPLSPacket
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


class TestLinkDown:
    def test_outage_and_reconvergence(self):
        network, ldp = _network()
        source = _flow(network)
        injector = FaultInjector(network, ConvergedLDP(ldp))
        record = injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.LINK_DOWN,
                at=0.3,
                target=("lsr-1", "lsr-2"),
                heal_at=0.6,
            )
        )
        network.run(until=1.0)
        # the alternate path through lsr-3 carries traffic during the
        # outage: nearly everything is delivered
        assert network.delivered_count() >= source.sent - 10
        assert record.healed_at == pytest.approx(0.6)
        assert record.recovered_at == pytest.approx(0.601)
        assert record.mttr == pytest.approx(0.301)
        assert injector.link_was_up("lsr-1", "lsr-2", 0.2)
        assert not injector.link_was_up("lsr-1", "lsr-2", 0.45)
        assert injector.link_was_up("lsr-1", "lsr-2", 0.7)

    def test_double_injection_skips(self):
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.LINK_DOWN, at=0.1,
                target=("lsr-1", "lsr-2"), heal_at=0.5,
            )
        )
        second = injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.LINK_DOWN, at=0.2,
                target=("lsr-1", "lsr-2"), heal_at=0.3,
            )
        )
        network.run(until=1.0)
        assert second.skipped
        # the first fault's heal still restored the link
        assert network.link_is_up("lsr-1", "lsr-2")


class TestLinkLossAndCorruption:
    def test_loss_window_loses_packets(self):
        network, ldp = _network()
        source = _flow(network)
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.LINK_LOSS, at=0.2,
                target=("ler-a", "lsr-1"), heal_at=0.6,
                params={"rate": 0.5},
            )
        )
        network.run(until=1.0)
        lost = source.sent - network.delivered_count()
        assert lost > 10
        # healed: the channel's loss rate is back to zero
        assert network.link("ler-a", "lsr-1").forward.loss_rate == 0.0

    def test_corruption_flips_labels(self):
        network, ldp = _network()
        source = _flow(network)
        injector = FaultInjector(network, ConvergedLDP(ldp), seed=3)
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.LINK_CORRUPT, at=0.1,
                target=("ler-a", "lsr-1"), heal_at=0.9,
                params={"rate": 0.4},
            )
        )
        # run past the source's stop so in-flight packets drain and
        # the conservation check below is exact
        network.run(until=1.2)
        assert injector.corrupted_packets > 5
        # a corrupted label misses the ILM and is discarded there
        ilm_misses = [
            d for d in network.drops.views() if "no ILM entry" in d.reason
        ]
        assert ilm_misses, "corrupted labels should miss the ILM"
        assert (
            network.delivered_count()
            + len(network.drops)
            + sum(
                ch.lost
                for link in network.links.values()
                for ch in (link.forward, link.reverse)
            )
            == source.sent
        )


class TestNodeCrash:
    def test_crash_restart_reprograms_cold_tables(self):
        network, ldp = _network()
        source = _flow(network)
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(
                kind=FaultKind.NODE_CRASH, at=0.3,
                target=("lsr-1",), heal_at=0.6,
            )
        )
        network.run(until=1.0)
        # lsr-1 cuts ler-a off entirely (it is the single attachment
        # point), so the outage is a hard partition...
        assert not injector.node_was_up("lsr-1", 0.4)
        during = [t for t in network.drops.time if 0.302 < t < 0.6]
        assert during, "packets during the crash must be dropped"
        # ...but after restart + reconvergence traffic flows again
        late = [t for t in network.deliveries.time if t > 0.65]
        assert late, "no deliveries after the node restarted"
        assert len(network.nodes["lsr-1"].ilm) > 0, (
            "reconvergence must re-program the cold-restarted tables"
        )
        assert network.delivered_count() < source.sent

    def test_down_node_drops_in_flight(self):
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        injector.schedule_fault(
            FaultSpec(kind=FaultKind.NODE_CRASH, at=0.0, target=("lsr-1",))
        )
        _flow(network, stop=0.2)
        network.run(until=0.5)
        assert network.delivered_count() == 0


class TestValidation:
    def test_unknown_target_rejected(self):
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        scenario = Scenario.from_dict(
            {
                "name": "bad",
                "topology": {"kind": "paper_figure1"},
                "traffic": [
                    {"ingress": "ler-a", "egress": "ler-b",
                     "prefix": "10.2.0.0/16",
                     "src": "10.1.0.5", "dst": "10.2.0.9"}
                ],
                "faults": [
                    {"at": 0.1, "kind": "node-crash", "target": "nope"}
                ],
            }
        )
        with pytest.raises(ScenarioError):
            injector.apply(scenario)

    def test_session_drop_needs_message_ldp(self):
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        scenario = Scenario.from_dict(
            {
                "name": "bad",
                "topology": {"kind": "paper_figure1"},
                "traffic": [
                    {"ingress": "ler-a", "egress": "ler-b",
                     "prefix": "10.2.0.0/16",
                     "src": "10.1.0.5", "dst": "10.2.0.9"}
                ],
                "faults": [
                    {"at": 0.1, "kind": "ldp-session-drop",
                     "target": ["lsr-1", "lsr-2"]}
                ],
            }
        )
        with pytest.raises(ScenarioError):
            injector.apply(scenario)

    def test_bitflip_needs_hardware_node(self):
        network, ldp = _network()
        injector = FaultInjector(network, ConvergedLDP(ldp))
        scenario = Scenario.from_dict(
            {
                "name": "bad",
                "topology": {"kind": "paper_figure1"},
                "traffic": [
                    {"ingress": "ler-a", "egress": "ler-b",
                     "prefix": "10.2.0.0/16",
                     "src": "10.1.0.5", "dst": "10.2.0.9"}
                ],
                "faults": [
                    {"at": 0.1, "kind": "ib-bitflip", "target": "lsr-1"}
                ],
            }
        )
        with pytest.raises(ScenarioError):
            injector.apply(scenario)


class TestBitflipScrub:
    def test_flip_detected_and_repaired(self):
        scenario = Scenario.from_dict(
            {
                "name": "scrub",
                "topology": {"kind": "paper_figure1",
                             "bandwidth_bps": 10e6, "delay_s": 1e-3},
                "hardware": True,
                "duration": 0.6,
                "traffic": [
                    {"ingress": "ler-a", "egress": "ler-b",
                     "prefix": "10.2.0.0/16",
                     "src": "10.1.0.5", "dst": "10.2.0.9",
                     "rate_bps": 1e6, "packet_size": 500}
                ],
                "faults": [
                    {"at": 0.2, "kind": "ib-bitflip", "target": "lsr-1",
                     "level": 2, "heal_at": 0.3}
                ],
            }
        )
        report = run_scenario(scenario, seed=5)
        scrub = report["scrub"]
        assert scrub["corrupted"] >= 1
        assert scrub["repaired"] >= 1
        assert scrub["clean"] is True
        assert scrub["cycles"] > 0
        # forwarding still healthy at the end of the run
        assert report["traffic"]["availability"] > 0.9

    def test_scrub_restores_forwarding_equivalence(self):
        run = build_run(
            Scenario.from_dict(
                {
                    "name": "scrub2",
                    "topology": {"kind": "paper_figure1",
                                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
                    "hardware": True,
                    "duration": 0.5,
                    "traffic": [
                        {"ingress": "ler-a", "egress": "ler-b",
                         "prefix": "10.2.0.0/16",
                         "src": "10.1.0.5", "dst": "10.2.0.9",
                         "rate_bps": 1e6, "packet_size": 500}
                    ],
                    "faults": [
                        {"at": 0.2, "kind": "ib-bitflip",
                         "target": "lsr-1", "level": 2, "heal_at": 0.3}
                    ],
                }
            ),
            seed=11,
        )
        run.network.run(until=0.5)
        node = run.network.nodes["lsr-1"]
        # after the scrub the hardware mirror matches the control
        # plane's expectation exactly
        for level in (1, 2, 3):
            expected = sorted(node._expected_pairs(level))
            stored = sorted(node.modifier.ib_pairs(level))
            assert stored == expected


def _hardware_flip(seed, **params):
    """A hardware Figure 1 run with one ib-bitflip at lsr-1, t = 0.2."""
    return build_run(
        Scenario.from_dict(
            {
                "name": "flip",
                "topology": {"kind": "paper_figure1",
                             "bandwidth_bps": 10e6, "delay_s": 1e-3},
                "hardware": True,
                "duration": 0.4,
                "traffic": [
                    {"ingress": "ler-a", "egress": "ler-b",
                     "prefix": "10.2.0.0/16",
                     "src": "10.1.0.5", "dst": "10.2.0.9",
                     "rate_bps": 1e6, "packet_size": 500}
                ],
                "faults": [
                    {"at": 0.2, "kind": "ib-bitflip", "target": "lsr-1",
                     **params}
                ],
            }
        ),
        seed=seed,
    )


_FLIP = re.compile(
    r"level (\d) addr (\d+) xor index=0x0 label=(0x[0-9a-f]+) op=0x0"
)


class TestBitflipConstants:
    """The slot's address and the flipped bit are seeded, and exactly
    one bit of one stored label flips (the index and op are never
    touched); the detail text keeps the masks' old shape."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_seeded_label_bit_of_one_slot_flips(self, seed):
        run = _hardware_flip(seed)
        node = run.network.nodes["lsr-1"]
        run.network.run(until=0.19)
        node._sync_info_base()
        before = {lvl: node.modifier.ib_pairs(lvl) for lvl in (1, 2, 3)}
        run.network.run(until=0.21)
        (record,) = run.injector.records
        level, address, label_xor = _FLIP.fullmatch(record.detail).groups()
        level, address, label_xor = int(level), int(address), int(label_xor, 16)
        assert label_xor.bit_count() == 1 and label_xor < 1 << 20
        after = {lvl: node.modifier.ib_pairs(lvl) for lvl in (1, 2, 3)}
        changed = [
            (lvl, i)
            for lvl in (1, 2, 3)
            for i, (old, new) in enumerate(zip(before[lvl], after[lvl]))
            if old != new
        ]
        assert changed == [(level, address)]
        index, label, op = before[level][address]
        assert after[level][address] == (index, label ^ label_xor, op)

    def test_the_same_seed_flips_the_same_bit(self):
        details = []
        for seed in (5, 5, 6, 7, 8):
            run = _hardware_flip(seed)
            run.network.run(until=0.21)
            details.append(run.injector.records[0].detail)
        assert details[0] == details[1]
        assert len(set(details)) > 1

    def test_the_level_param_picks_the_level(self):
        levels = set()
        for seed in range(4):
            run = _hardware_flip(seed, level=2)
            run.network.run(until=0.21)
            detail = run.injector.records[0].detail
            levels.add(int(_FLIP.fullmatch(detail).group(1)))
        assert levels == {2}


_ATTACKS = {
    "name": "attacks",
    "topology": {"kind": "ring", "n": 6, "bandwidth_bps": 10e6,
                 "delay_s": 1e-3},
    "edges": ["n0", "n2", "n4"],
    "control": "ldp-messages",
    "duration": 1.0,
    "traffic": [
        {"ingress": "n0", "egress": "n2", "prefix": "10.2.0.0/16",
         "src": "10.0.0.5", "dst": "10.2.0.9",
         "rate_bps": 1e5, "packet_size": 200, "start": 0.1},
    ],
    "overload": {},
    "security": {},
}
#: each timed attack: a target it applies to and a small load
_TIMED = {
    "signaling-storm": {"target": "n1", "mappings": 50, "hellos": 5},
    "label-spoof": {"target": "n0", "packets": 50},
    "ttl-flood": {"target": "n0", "packets": 50},
}


def _attack(kind, **fault):
    doc = dict(_ATTACKS, faults=[
        {"at": 0.3, "kind": kind, **_TIMED[kind], **fault}
    ])
    return build_run(Scenario.from_dict(doc), seed=3)


class TestAttackConstants:
    """A storm, spoof or flood lasts ``heal_at - at``, or ``WINDOW_S``
    without a ``heal_at``; every forged packet comes from
    ``SPOOFED_SRC``."""

    @pytest.mark.parametrize("kind", sorted(_TIMED))
    def test_without_heal_at_the_window_is_the_constant(self, kind):
        run = _attack(kind)
        run.network.run(until=0.31)
        (record,) = run.injector.records
        assert WINDOW_S == 0.5
        assert record.detail.endswith(" over 0.5s")

    @pytest.mark.parametrize("kind", sorted(_TIMED))
    def test_heal_at_sets_the_window(self, kind):
        run = _attack(kind, heal_at=0.5)
        run.network.run(until=0.31)
        (record,) = run.injector.records
        assert record.detail.endswith(" over 0.2s")

    @pytest.mark.parametrize("kind", ["label-spoof", "ttl-flood"])
    def test_forged_packets_come_from_the_spoofed_source(
        self, kind, monkeypatch
    ):
        forged = []
        inject = MPLSNetwork.inject_external

        def record(network, node, packet):
            forged.append((node, packet))
            inject(network, node, packet)

        monkeypatch.setattr(MPLSNetwork, "inject_external", record)
        run = _attack(kind)
        run.network.run(until=1.0)
        assert len(forged) == 50
        for node, packet in forged:
            inner = packet.inner if isinstance(packet, MPLSPacket) else packet
            assert node == "n0"
            assert str(inner.src) == SPOOFED_SRC == "203.0.113.66"
            assert 0.3 <= inner.created_at <= 0.3 + WINDOW_S
