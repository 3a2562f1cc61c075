"""The fault kind contract: one row per kind, read by the loader, the
injector and ``--list-faults``.

Every refusal the rows drive is pinned here with its exact text, and
``data/list_faults.sha256`` (``sha256sum -c`` format) holds the digest
of ``repro chaos --list-faults``.  The refusals were computed with the
``src/`` of the commit before the kind sets, param table, validation
ladder and dispatch dicts became one table; the digest was recomputed
when the params no workload sets became constants (24 -> 13).  CI's
``perf-smoke`` job checks the same digest file with
``sha256sum -c``.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import FaultKind, Scenario, ScenarioError, build_run
from repro.faults.injector import FaultInjector
from repro.faults.planes import NO_PLANE
from repro.faults.scenario import FAULT_KINDS
from repro.obs import telemetry_session

PIN_FILE = Path(__file__).parent / "data" / "list_faults.sha256"

FLOW = {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
        "src": "10.1.0.5", "dst": "10.2.0.9"}
PROTECTION = [{"name": "p1", "ingress": "ler-a", "egress": "ler-b"}]


def _doc(*faults, **keys):
    doc = {"name": "refusal", "topology": {"kind": "paper_figure1"},
           "duration": 0.5, "traffic": [dict(FLOW)], "faults": list(faults)}
    doc.update(keys)
    return doc


def _fault(kind, target, **params):
    return {"at": 0.1, "kind": kind, "target": target, **params}


MESSAGES = "ldp-messages"
SPOOF = _fault("label-spoof", "ler-a")

#: (document, where it is refused, the exact message)
REFUSALS = [
    pytest.param(_doc(control="ospf"), "load",
                 "unknown control plane 'ospf'", id="control"),
    pytest.param(_doc(duration=0), "load",
                 "duration must be positive", id="duration"),
    pytest.param(_doc(traffic=[]), "load",
                 "a scenario needs at least one flow", id="traffic"),
    pytest.param(_doc(control="frr"), "load",
                 "frr control needs a 'protection' list", id="protection"),
    pytest.param(
        _doc(alerts={"rules": []}), "load",
        "'alerts' needs 'flows': the alert engine is evaluated on the "
        "traffic-matrix collector tick",
        id="alerts-without-flows",
    ),
    pytest.param(
        _doc(SPOOF, control=MESSAGES,
             random_faults={"count": 1, "kinds": ["ttl-flood"]}),
        "load",
        "'label-spoof, ttl-flood' faults need a 'security' key: adversarial "
        "faults are measured against the security monitor's guards (set "
        "\"enabled\": false to run them unmitigated)",
        id="security-key",
    ),
    pytest.param(
        _doc(_fault("controller-crash", "controller")), "load",
        "'controller-crash' faults need a 'controller' key: controller "
        "faults act on the PCE and its node channels (set \"enabled\": "
        "false to run them against a dark controller)",
        id="controller-key",
    ),
    pytest.param(
        _doc(_fault("link-down", ["lsr-1", "lsr-2"], losss=0.5)), "load",
        "link-down: unknown param(s) losss (accepted: none)",
        id="unknown-param",
    ),
    pytest.param(
        _doc(_fault("node-crash", "nope")), "build",
        "node-crash targets unknown node 'nope'", id="unknown-node",
    ),
    pytest.param(
        _doc(_fault("link-flap", ["lsr-1", "lsr-2"], flaps=0)), "build",
        "bad flap parameters in FaultSpec(kind=<FaultKind.LINK_FLAP: "
        "'link-flap'>, at=0.1, target=('lsr-1', 'lsr-2'), heal_at=None, "
        "params={'flaps': 0})",
        id="flap",
    ),
    pytest.param(
        _doc(_fault("ldp-session-drop", ["lsr-1", "lsr-2"])), "build",
        "ldp-session-drop needs control = 'ldp-messages'",
        id="session-drop-control",
    ),
    pytest.param(
        _doc(_fault("node-restart", "lsr-1"), control="frr",
             protection=PROTECTION),
        "build",
        "node-restart (graceful restart) needs control = 'ldp' or "
        "'ldp-messages'",
        id="restart-control",
    ),
    pytest.param(
        _doc(_fault("ib-bitflip", "lsr-1")), "build",
        "ib-bitflip targets software node 'lsr-1'; set \"hardware\": true",
        id="bitflip-hardware",
    ),
    pytest.param(
        _doc(_fault("signaling-storm", "lsr-1")), "build",
        "signaling-storm needs control = 'ldp-messages'",
        id="storm-control",
    ),
    pytest.param(
        _doc(SPOOF, security={}), "build",
        "label-spoof needs control = 'ldp-messages'", id="attack-control",
    ),
    pytest.param(
        _doc(_fault("label-spoof", "lsr-1"), control=MESSAGES, security={}),
        "build",
        "label-spoof targets 'lsr-1', which is not an edge LER: forged "
        "traffic enters over the trust boundary",
        id="attack-edge",
    ),
    pytest.param(
        _doc(_fault("ttl-flood", "ler-a"), control=MESSAGES, security={}),
        "build",
        "ttl-flood needs an 'overload' key: the exception path lands in the "
        "bounded control queues",
        id="flood-queues",
    ),
    pytest.param(
        _doc(_fault("controller-crash", "lsr-1"), controller={}), "build",
        "controller-crash targets the controller itself: use \"target\": "
        "[\"controller\"]",
        id="crash-target",
    ),
    pytest.param(
        _doc(_fault("controller-partition", "nope"), controller={}), "build",
        "controller-partition targets unknown node 'nope'",
        id="partition-target",
    ),
    pytest.param(
        _doc(_fault("xconnect-leak", "lsr-1"), control=MESSAGES, security={}),
        "injector without a monitor",
        "xconnect-leak needs a security monitor (scenario 'security' key)",
        id="monitor",
    ),
    pytest.param(
        _doc(_fault("controller-partition", "lsr-1"), controller={}),
        "injector without a controller",
        "controller-partition needs a PCE controller (scenario 'controller' "
        "key)",
        id="pce",
    ),
]


@pytest.mark.parametrize("doc,where,message", REFUSALS)
def test_every_refusal_keeps_its_text(doc, where, message):
    with pytest.raises(ScenarioError) as exc, telemetry_session():
        scenario = Scenario.from_dict(doc)
        assert where != "load", "the document loaded"
        run = build_run(scenario)
        assert where != "build", "the run was built"
        # a run built from a file always has the key's subsystem: only
        # a hand-made injector can lack it
        plane = run.control if "monitor" in where else NO_PLANE
        FaultInjector(run.network, plane).apply(scenario)
    assert str(exc.value) == message


def test_list_faults_matches_its_pin(capsys):
    assert main(["chaos", "--list-faults"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert PIN_FILE.read_text() == f"{digest}  list-faults.txt\n"


class TestKindMethods:
    """A kind is a row plus methods found by name, once per class."""

    def test_every_injected_kind_resolves(self):
        sugar = {k for k, c in FAULT_KINDS.items() if c.expand is not None}
        assert sugar == {FaultKind.LINK_FLAP}
        assert set(FaultInjector._injects) == set(FaultKind) - sugar
        for kind, inject in FaultInjector._injects.items():
            assert inject.__name__ == "_inject_" + kind.value.replace("-", "_")
            assert (FaultInjector._heals[kind], FaultInjector._backfills[kind]) != (
                None, None
            )

    def test_a_kind_without_an_inject_method_fails_at_class_creation(self):
        from repro.faults.injector import _methods_by_kind

        body = {
            name: value for name, value in vars(FaultInjector).items()
            if name != "_inject_ttl_flood"
        }
        with pytest.raises(TypeError, match="cannot inject ttl-flood"):
            _methods_by_kind(type("Broken", (), body))

    def test_a_kind_nothing_recovers_fails_at_class_creation(self):
        from repro.faults.injector import _methods_by_kind

        body = {
            name: value for name, value in vars(FaultInjector).items()
            if name != "_backfill_ldp_hijack"
        }
        with pytest.raises(TypeError, match="never recovers ldp-hijack"):
            _methods_by_kind(type("Broken", (), body))


#: a target for each kind that every check before the control plane's
#: passes on Figure 1 (an attack on an edge, a restart in the core)
_TARGETS = {"link": ["lsr-1", "lsr-2"], "node": "lsr-1"}
_EDGE_TARGET = "ler-a"
_CONTROLS = ("ldp", "ldp-messages", "frr")


def _kind_under(kind, control):
    """A document that runs one fault of ``kind`` under ``control``,
    with every other key the kind's row asks for."""
    contract = FAULT_KINDS[kind]
    target = _EDGE_TARGET if contract.edge else _TARGETS[contract.target]
    keys = {"control": control}
    if control == "frr":
        keys["protection"] = PROTECTION
    if contract.key is not None:
        keys[contract.key] = {}
    if contract.queues:
        keys["overload"] = {}
    return _doc(_fault(kind.value, target), **keys)


_CONTROLLED = [
    pytest.param(kind, control, id=f"{kind.value}-{control}")
    for kind, contract in FAULT_KINDS.items()
    if contract.controls
    for control in _CONTROLS
]
_ANY_CONTROL = [
    pytest.param(kind, control, id=f"{kind.value}-{control}")
    for kind in (FaultKind.LINK_DOWN, FaultKind.LINK_FLAP,
                 FaultKind.LINK_LOSS, FaultKind.LINK_CORRUPT,
                 FaultKind.NODE_CRASH)
    for control in _CONTROLS
]


class TestKindByControl:
    """A row's ``controls`` is the whole of where the kind runs: the run
    is built under each listed control plane and refused by name under
    every other one (the signalling storm runs under ``ldp-messages``
    only: no workload ran its FRR arm)."""

    def test_the_storm_runs_under_message_ldp_only(self):
        assert FAULT_KINDS[FaultKind.SIGNALING_STORM].controls == (
            "ldp-messages",
        )

    @pytest.mark.parametrize("kind,control", _CONTROLLED)
    def test_a_listed_control_builds_and_any_other_is_refused(
        self, kind, control
    ):
        contract = FAULT_KINDS[kind]
        doc = _kind_under(kind, control)
        with telemetry_session():
            scenario = Scenario.from_dict(doc)
            if control in contract.controls:
                run = build_run(scenario)
                assert [s.kind for s in run.schedule] == [kind]
                return
            with pytest.raises(ScenarioError) as exc:
                build_run(scenario)
        feature = f" ({contract.feature})" if contract.feature else ""
        either = " or ".join(repr(c) for c in contract.controls)
        assert str(exc.value) == f"{kind.value}{feature} needs control = {either}"

    @pytest.mark.parametrize("kind,control", _ANY_CONTROL)
    def test_a_kind_without_controls_builds_under_every_plane(
        self, kind, control
    ):
        assert FAULT_KINDS[kind].controls == ()
        with telemetry_session():
            run = build_run(Scenario.from_dict(_kind_under(kind, control)))
        # a flap is sugar for three link-downs
        assert {s.kind for s in run.schedule} <= {kind, FaultKind.LINK_DOWN}
        assert run.schedule
