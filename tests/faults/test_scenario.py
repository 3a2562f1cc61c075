"""Scenario parsing, validation, and deterministic schedule expansion."""

import json

import pytest

from repro.faults.scenario import (
    FAULT_KINDS,
    FaultKind,
    FaultSpec,
    RandomFaultSpec,
    Scenario,
    ScenarioError,
)


def _minimal(**overrides):
    doc = {
        "name": "t",
        "topology": {"kind": "paper_figure1"},
        "traffic": [
            {
                "ingress": "ler-a",
                "egress": "ler-b",
                "prefix": "10.2.0.0/16",
                "src": "10.1.0.5",
                "dst": "10.2.0.9",
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestFaultSpec:
    def test_link_kind_needs_two_targets(self):
        with pytest.raises(ScenarioError):
            FaultSpec(kind=FaultKind.LINK_DOWN, at=0.1, target=("a",))

    def test_node_kind_needs_one_target(self):
        with pytest.raises(ScenarioError):
            FaultSpec(
                kind=FaultKind.NODE_CRASH, at=0.1, target=("a", "b")
            )

    def test_heal_must_follow_inject(self):
        with pytest.raises(ScenarioError):
            FaultSpec(
                kind=FaultKind.NODE_CRASH,
                at=0.5,
                target=("a",),
                heal_at=0.5,
            )

    def test_read_from_a_dict(self):
        spec = FaultSpec.from_dict(
            {
                "kind": "link-loss",
                "at": 0.2,
                "target": ["a", "b"],
                "heal_at": 0.4,
                "rate": 0.25,
            }
        )
        assert spec.kind is FaultKind.LINK_LOSS
        assert spec.params["rate"] == 0.25
        assert (spec.at, spec.target, spec.heal_at) == (0.2, ("a", "b"), 0.4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            FaultSpec.from_dict(
                {"kind": "gamma-ray", "at": 0.1, "target": ["a"]}
            )


#: a value each param of each fault kind cannot mean
BAD_VALUES = [
    ("link-loss", "rate", "high"),
    ("link-loss", "rate", 7),        # was: set_loss, mid-run
    ("link-loss", "rate", 1.0),      # set_loss refuses 1 too
    ("link-corrupt", "rate", -0.1),
    ("link-flap", "flaps", "3x"),
    ("link-flap", "period", "nan"),
    ("node-restart", "hold_time", "x"),
    ("node-restart", "hold_time", -1),
    ("ib-bitflip", "level", 0),      # was: KeyError: 0
    ("ib-bitflip", "level", 4),
    ("signaling-storm", "mappings", 1e400),
    ("signaling-storm", "hellos", -1),
    ("label-spoof", "ttl", 256),
    ("ttl-flood", "packets", -5),
    ("label-spoof", "packets", -1),
    ("xconnect-leak", "victim", 5),
    ("xconnect-leak", "imposter", ["10.2.0.0/16"]),
]


class TestFaultParams:
    """A param value its kind cannot mean is refused when the file is
    read, naming the kind and the param -- not met mid-run inside
    ``set_loss`` or as a ``KeyError`` from the info base."""

    @pytest.mark.parametrize("kind,name,value", BAD_VALUES)
    def test_a_bad_value_names_kind_and_param(self, kind, name, value):
        target = ["a", "b"] if kind.startswith("link") else ["a"]
        with pytest.raises(ScenarioError) as exc:
            FaultSpec.from_dict(
                {"kind": kind, "at": 0.1, "target": target, name: value}
            )
        assert str(exc.value).startswith(f"{kind}: bad {name} {value!r}: ")

    def test_every_param_has_a_bad_value_row(self):
        # a param no row refuses could take any value unread
        accepted = {
            (kind.value, name)
            for kind, contract in FAULT_KINDS.items()
            for name in contract.params
        }
        assert {(kind, name) for kind, name, _ in BAD_VALUES} == accepted
        assert len(accepted) == 13

    def test_values_are_parsed_to_what_the_injector_reads(self):
        spec = FaultSpec.from_dict(
            {"kind": "signaling-storm", "at": 0.1, "target": "a",
             "mappings": "2", "hellos": None}
        )
        # null is the default, as for heal_at
        assert spec.params == {"mappings": 2}

    @pytest.mark.parametrize(
        "kind,name,accepted",
        [
            # each was a param while some value of it could be set; no
            # workload set one, so each is now its kind's constant
            ("ib-bitflip", "label_xor", "level"),
            ("ib-bitflip", "address", "level"),
            ("signaling-storm", "window", "hellos, mappings"),
            ("signaling-storm", "setups", "hellos, mappings"),
            ("label-spoof", "src", "packets, ttl"),
            ("ttl-flood", "window", "packets"),
        ],
    )
    def test_a_param_that_became_a_constant(self, kind, name, accepted):
        with pytest.raises(ScenarioError) as exc:
            FaultSpec.from_dict({"kind": kind, "at": 0.1, "target": "a",
                                 name: 1})
        assert str(exc.value) == (
            f"{kind}: unknown param(s) {name} (accepted: {accepted})"
        )

    def test_unknown_random_kind_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown fault kind 'bogus'"):
            Scenario.from_dict(_minimal(random_faults={"kinds": ["bogus"]}))

    def test_a_random_flap_is_expanded_like_an_explicit_one(self):
        scenario = Scenario.from_dict(_minimal(random_faults={
            "count": 2, "kinds": ["link-flap"], "window": [0.1, 0.5],
        }))
        schedule = scenario.materialize(seed=3)
        assert len(schedule) == 6
        assert {s.kind for s in schedule} == {FaultKind.LINK_DOWN}


def _ring(**args):
    """A ring scenario whose topology entry carries ``args``."""
    return _minimal(
        topology={"kind": "ring", **args},
        edges=["n0", "n2"],
        traffic=[{"ingress": "n0", "egress": "n2", "prefix": "10.2.0.0/16",
                  "src": "10.0.0.5", "dst": "10.2.0.9"}],
    )


class TestTopologyKinds:
    """Each argument a topology kind accepts reaches what it builds."""

    @pytest.mark.parametrize("arg,value", [("bandwidth_bps", 3e6),
                                           ("delay_s", 2e-3)])
    @pytest.mark.parametrize("kind", ["paper_figure1", "ring"])
    def test_a_link_argument_reaches_every_link(self, kind, arg, value):
        if kind == "ring":
            doc = _ring(n=5, **{arg: value})
        else:
            doc = _minimal(topology={"kind": kind, arg: value})
        topology, _roles = Scenario.from_dict(doc).build_topology()
        links = topology.edges_with_attrs()
        assert links
        assert all(getattr(attrs, arg) == value for _a, _b, attrs in links)

    @pytest.mark.parametrize("n", [3, 7])
    def test_n_is_the_ring_size(self, n):
        topology, _roles = Scenario.from_dict(_ring(n=n)).build_topology()
        assert topology.nodes == [f"n{i}" for i in range(n)]
        assert len(topology.links) == n
        assert all(len(topology.adjacent(node)) == 2 for node in topology.nodes)


class TestSubsystemKeys:
    @pytest.mark.parametrize(
        "key", ["audit", "oam", "overload", "flows", "alerts", "security",
                "topo", "controller"],
    )
    def test_a_non_object_names_the_key(self, key):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(_minimal(**{key: 5}))
        assert str(exc.value) == f"'{key}' must be an object, got 5"

    def test_objects_are_copied_and_absent_keys_are_none(self):
        audit = {"period": 0.1}
        scenario = Scenario.from_dict(_minimal(audit=audit, oam=None))
        assert scenario.audit == audit and scenario.audit is not audit
        assert scenario.oam is None and scenario.controller is None


class TestScenarioParsing:
    def test_minimal_document(self):
        scenario = Scenario.from_dict(_minimal())
        assert scenario.control == "ldp"
        assert scenario.duration == 1.0
        topo, roles = scenario.build_topology()
        assert set(roles) == {"ler-a", "ler-b"}
        assert "lsr-1" in topo.nodes

    def test_bad_json_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_json("{not json")

    def test_needs_traffic(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(_minimal(traffic=[]))

    def test_frr_needs_protection(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(_minimal(control="frr"))

    def test_unknown_control_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(_minimal(control="ospf"))

    def test_unknown_topology_kind_rejected(self):
        scenario = Scenario.from_dict(
            _minimal(topology={"kind": "hypercube"})
        )
        with pytest.raises(ScenarioError):
            scenario.build_topology()

    def test_edge_must_exist(self):
        scenario = Scenario.from_dict(_minimal(edges=["nope"]))
        with pytest.raises(ScenarioError):
            scenario.build_topology()

    def test_ring_edges_default_to_traffic_endpoints(self):
        doc = _minimal(topology={"kind": "ring", "n": 4})
        doc["traffic"][0]["ingress"] = "n0"
        doc["traffic"][0]["egress"] = "n2"
        scenario = Scenario.from_dict(doc)
        _, roles = scenario.build_topology()
        assert set(roles) == {"n0", "n2"}

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(_minimal()))
        assert Scenario.load(str(path)).name == "t"


class TestFlapExpansion:
    def test_flap_becomes_down_up_cycles(self):
        doc = _minimal(
            faults=[
                {
                    "at": 0.1,
                    "kind": "link-flap",
                    "target": ["lsr-1", "lsr-2"],
                    "flaps": 3,
                    "period": 0.05,
                }
            ]
        )
        schedule = Scenario.from_dict(doc).materialize(seed=0)
        assert len(schedule) == 3
        assert all(s.kind is FaultKind.LINK_DOWN for s in schedule)
        assert [s.at for s in schedule] == [0.1, 0.15, 0.2]
        for s in schedule:
            assert s.heal_at == pytest.approx(s.at + 0.025)


class TestRandomSchedule:
    def _scenario(self, count=8, seed_window=(0.1, 0.8)):
        return Scenario.from_dict(
            _minimal(
                duration=1.0,
                random_faults={
                    "count": count,
                    "kinds": ["link-down", "link-loss"],
                    "window": list(seed_window),
                    "mean_outage": 0.05,
                },
            )
        )

    def test_same_seed_same_schedule(self):
        scenario = self._scenario()
        assert scenario.materialize(7) == scenario.materialize(7)

    def test_different_seeds_differ(self):
        scenario = self._scenario()
        schedules = {
            tuple(
                (s.kind, s.at, s.target) for s in scenario.materialize(seed)
            )
            for seed in range(5)
        }
        assert len(schedules) == 5, "five seeds produced colliding schedules"

    def test_no_overlapping_outages_per_target(self):
        scenario = self._scenario(count=12)
        for seed in (1, 2, 3):
            by_target = {}
            for spec in scenario.materialize(seed):
                by_target.setdefault(spec.target, []).append(
                    (spec.at, spec.heal_at)
                )
            for intervals in by_target.values():
                intervals.sort()
                for (_, h1), (a2, _) in zip(intervals, intervals[1:]):
                    assert a2 >= h1

    def test_targets_are_real_links(self):
        scenario = self._scenario()
        topo, _ = scenario.build_topology()
        for spec in scenario.materialize(3):
            a, b = spec.target
            assert topo.has_link(a, b)

    def test_random_spec_validation(self):
        with pytest.raises(ScenarioError):
            RandomFaultSpec.from_dict({"window": [0.5, 0.5]})


class TestHostileTraffic:
    """Numbers a traffic entry cannot mean are refused when the file is
    read, with the entry named -- not met later inside the event loop."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("packet_size", -30), ("packet_size", -1),
            ("rate_bps", "inf"), ("rate_bps", "-inf"), ("rate_bps", "nan"),
            ("rate_bps", 0), ("rate_bps", -2e6), ("rate_bps", 1e400),
            ("start", -0.1), ("start", "nan"),
            ("stop", -0.5), ("stop", "nan"),
        ],
    )
    def test_out_of_range_numbers_name_the_entry(self, key, value):
        doc = _minimal()
        doc["traffic"][0][key] = value
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(doc)
        message = str(exc.value)
        assert message.startswith("traffic entry {")
        assert repr(key) in message and "'ler-a'" in message

    @pytest.mark.parametrize(
        "key,value",
        [("rate_bps", "fast"), ("packet_size", "big"), ("start", [1]),
         ("cos", None), ("stop", {})],
    )
    def test_values_that_are_not_numbers(self, key, value):
        doc = _minimal()
        doc["traffic"][0][key] = value
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(doc)
        assert str(exc.value).startswith("traffic entry {")

    def test_an_entry_that_is_not_an_object(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(_minimal(traffic=["ler-a"]))

    def test_the_accepted_edges(self):
        doc = _minimal()
        doc["traffic"][0].update(
            packet_size=0, start=0, stop=0, rate_bps="2e6"
        )
        flow = Scenario.from_dict(doc).traffic[0]
        assert (flow.packet_size, flow.start, flow.stop, flow.rate_bps) == (
            0, 0.0, 0.0, 2e6
        )
