"""Fault scenarios: what breaks, when, and for how long.

A scenario is a declarative JSON document binding a topology, traffic,
and a control-plane flavour to a schedule of fault events.  Everything
is deterministic: explicit faults carry their own times, and the
optional randomized schedule is expanded by :meth:`Scenario.materialize`
from a caller-supplied seed, so the same (scenario, seed) pair always
produces the same schedule -- the property the chaos CLI and the soak
tests rely on.

Schema (all times in simulated seconds)::

    {
      "name": "link-flap",
      "description": "...",
      "topology": {"kind": "paper_figure1",
                   "bandwidth_bps": 10e6, "delay_s": 1e-3},
      "edges": ["ler-a", "ler-b"],
      "hardware": false,
      "control": "ldp",                    // ldp | ldp-messages | frr
      "duration": 1.0,
      "detection_delay_s": 1e-3,
      "traffic": [{"ingress": "ler-a", "egress": "ler-b",
                   "prefix": "10.2.0.0/16",
                   "src": "10.1.0.5", "dst": "10.2.0.9",
                   "rate_bps": 2e6, "packet_size": 500,
                   "start": 0.0, "stop": null}],
      "protection": [{"name": "p1", "ingress": "ler-a",
                      "egress": "ler-b"}],   // frr only
      "faults": [{"at": 0.2, "kind": "link-down",
                  "target": ["lsr-1", "lsr-2"], "heal_at": 0.6}],
      "random_faults": {"count": 6, "kinds": ["link-down"],
                        "window": [0.1, 0.7], "mean_outage": 0.05},
      "audit": {"period": 0.1, "start": 0.05},  // consistency auditor
      "oam": {"period": 0.05, "start": 0.0,     // continuous LSP pings
              "timeout": 0.05, "slo_rtt_s": 0.01}
    }

The ``oam`` key arms a :class:`~repro.control.oam.OAMMonitor` over
every traffic flow's FEC (prefix pinged from its ingress); omit it to
run without probes, keeping older reports byte-identical.

``node-restart`` faults are *warm* (graceful) restarts: the target's
control plane goes away between ``at`` and ``heal_at`` while its data
plane keeps forwarding on stale-marked tables; the fault's ``hold_time``
parameter (seconds after injection, default 0.25) sets the RFC 3478
forwarding-state holding timer after which unrefreshed entries flush.
"""

from __future__ import annotations

import json
import math
import random
from collections import abc
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Annotated, Any, Callable, Dict, List, Mapping, Optional
from typing import Tuple

from repro.config import (
    AMOUNT,
    COUNT,
    INTEGER,
    NOT_NEGATIVE,
    POSITIVE,
    REAL,
    REQUIRED,
    SIZE,
    TEXT,
    ScenarioError,
    build,
    parser,
    read,
)
from repro.mpls.router import RouterRole
from repro.net.addressing import IPv4Address, IPv4Prefix
from repro.net.topology import (
    Topology,
    TopologyError,
    full_mesh,
    line,
    paper_figure1,
    ring,
)


class FaultKind(str, Enum):
    """The fault taxonomy, one per recoverable failure mode."""

    LINK_DOWN = "link-down"          #: adjacency out of service
    LINK_FLAP = "link-flap"          #: repeated short down/up cycles
    LINK_LOSS = "link-loss"          #: random packet loss on a link
    LINK_CORRUPT = "link-corrupt"    #: label bit errors in transit
    NODE_CRASH = "node-crash"        #: cold crash/restart of a router
    NODE_RESTART = "node-restart"    #: warm control-plane-only restart
    LDP_SESSION_DROP = "ldp-session-drop"  #: session reset + backoff
    IB_BITFLIP = "ib-bitflip"        #: SEU in the hardware info base
    SIGNALING_STORM = "signaling-storm"  #: seeded setup/hello flood
    LABEL_SPOOF = "label-spoof"      #: forged label stacks at an edge
    LDP_HIJACK = "ldp-hijack"        #: forged LDP shutdown on a session
    XCONNECT_LEAK = "xconnect-leak"  #: ILM corruption leaking a FEC
    TTL_FLOOD = "ttl-flood"          #: low-TTL exception-path storm
    CONTROLLER_CRASH = "controller-crash"  #: PCE dies, warm restarts
    CONTROLLER_PARTITION = "controller-partition"  #: channel cut to one node


def _kind(value: Any) -> FaultKind:
    try:
        return FaultKind(value)
    except ValueError:
        raise ScenarioError(f"unknown fault kind {value!r}") from None


# every test is positive, so a NaN fails them all
_LOSS = parser(REAL, lambda x: 0 <= x < 1, "in [0, 1)")  # as set_loss
_PROBABILITY = parser(REAL, lambda x: 0 <= x <= 1, "in [0, 1]")
_FINITE = parser(REAL, math.isfinite, "finite")
_LEVEL = parser(INTEGER, lambda n: 1 <= n <= 3, "1, 2 or 3")
_TTL = parser(INTEGER, lambda n: 0 <= n <= 255, "in 0..255")
_COS = parser(INTEGER, lambda n: 0 <= n <= 7, "in 0..7")  # 3 bits
# kept as written; the constructor refuses what it cannot parse
_PREFIX = parser(TEXT, IPv4Prefix, "an IPv4 prefix")
_ADDRESS = parser(TEXT, IPv4Address, "an IPv4 address")
_KINDS = parser(
    lambda x: [_kind(k) for k in x] if isinstance(x, list) else None,
    bool, "a non-empty list",
)
_WINDOW = parser(
    lambda w: tuple(REAL(t) for t in w),
    lambda w: len(w) == 2 and 0 <= w[0] < w[1] < math.inf,
    "two finite times >= 0, the second later",
)
_TARGET = parser(
    lambda t: (t,) if isinstance(t, str) else tuple(t),
    bool, "a node name or a list of them",
)


def _targets(value) -> List[Tuple[str, ...]]:
    """``random_faults.targets``: links / nodes, each as a target."""
    return [_TARGET(target) for target in value]


@dataclass(frozen=True)
class Param:
    """One accepted fault param: its ``--list-faults`` line, and how a
    scenario file's value becomes what the injector reads."""

    description: str
    parse: Callable[[Any], Any]


@dataclass(frozen=True)
class KindContract:
    """What the loader, the injector and ``--list-faults`` know about
    one fault kind: one row of :data:`FAULT_KINDS`."""

    #: ``"link"`` (two node names), ``"node"`` or ``"controller"`` (the
    #: literal name ``"controller"``)
    target: str
    params: Mapping[str, Param] = field(default_factory=dict)
    #: the scenario key the kind needs (a
    #: :data:`~repro.faults.subsystems.KIND_KEYS` name)
    key: Optional[str] = None
    #: the ``control`` values any one of which the kind needs (empty: any)
    controls: Tuple[str, ...] = ()
    #: what those control planes provide, named in the refusal
    feature: str = ""
    #: the target must be an edge LER / a hardware node, and the run
    #: needs bounded control queues (the ``overload`` key)
    edge: bool = False
    hardware: bool = False
    queues: bool = False
    #: how the randomized schedule draws a target: ``"link"``,
    #: ``"core"`` (a node no flow starts or ends at) or None (never: the
    #: target is part of the fault -- an attack's edge or link, a
    #: hardware node, the controller)
    draw_target: Optional[str] = None
    #: params the randomized schedule draws, uniform in ``(lo, hi)``
    draw_params: Mapping[str, Tuple[float, float]] = field(
        default_factory=dict)
    #: sugar: :meth:`Scenario.materialize` replaces the spec with what
    #: this returns, so the injector never sees the kind
    expand: Optional[Callable[["FaultSpec"], List["FaultSpec"]]] = None


def _expand_flap(spec: "FaultSpec") -> List["FaultSpec"]:
    """A flap is sugar for ``flaps`` short link-down/up cycles, each
    ``period`` long with a 50% duty cycle."""
    flaps = spec.params.get("flaps", 3)
    period = spec.params.get("period", 0.05)
    if flaps < 1 or period <= 0:
        raise ScenarioError(f"bad flap parameters in {spec!r}")
    return [
        FaultSpec(
            kind=FaultKind.LINK_DOWN,
            at=round(spec.at + i * period, 9),
            target=spec.target,
            heal_at=round(spec.at + i * period + period / 2, 9),
        )
        for i in range(flaps)
    ]


_SRC = Param("spoofed source address (default 203.0.113.66)", TEXT)

#: the fault kind contract, one row per kind.  Adding a kind is one row
#: here plus the injector's ``_inject_<kind>`` method and its
#: ``_heal_<kind>`` and/or ``_backfill_<kind>``.  ``FaultSpec`` refuses
#: a param outside the row (a misspelled ``losss=0.5`` errors instead
#: of vanishing) or one its parser refuses; ``--list-faults`` renders
#: the rows.
FAULT_KINDS: Dict[FaultKind, KindContract] = {
    FaultKind.LINK_DOWN: KindContract("link", draw_target="link"),
    FaultKind.LINK_FLAP: KindContract("link", {
        "flaps": Param("number of down/up cycles (default 3)", INTEGER),
        "period": Param("cycle length in seconds, 50% duty (default 0.05)",
                        _FINITE),
    }, draw_target="link", expand=_expand_flap),
    FaultKind.LINK_LOSS: KindContract("link", {
        "rate": Param("packet loss probability while active (default 0.2)",
                      _LOSS),
    }, draw_target="link", draw_params={"rate": (0.05, 0.4)}),
    FaultKind.LINK_CORRUPT: KindContract("link", {
        "rate": Param("label bit-error probability while active "
                      "(default 0.1)", _PROBABILITY),
    }, draw_target="link", draw_params={"rate": (0.05, 0.3)}),
    FaultKind.NODE_CRASH: KindContract("node", draw_target="core"),
    FaultKind.NODE_RESTART: KindContract("node", {
        "hold_time": Param("RFC 3478 forwarding-state holding timer in "
                           "seconds after injection (default 0.25)", AMOUNT),
    }, controls=("ldp", "ldp-messages"), feature="graceful restart",
        draw_target="core"),
    FaultKind.LDP_SESSION_DROP: KindContract(
        "link", controls=("ldp-messages",), draw_target="link"),
    FaultKind.IB_BITFLIP: KindContract("node", {
        "level": Param("info-base level 1..3 to corrupt (default: seeded)",
                       _LEVEL),
        "address": Param("entry address within the level (default: seeded)",
                         COUNT),
        "label_xor": Param("XOR mask applied to the stored label (default 0)",
                           INTEGER),
        "index_xor": Param("XOR mask applied to the stored index (default 0)",
                           INTEGER),
        "op_xor": Param("XOR mask applied to the stored opcode (default 0)",
                        INTEGER),
    }, hardware=True),
    FaultKind.SIGNALING_STORM: KindContract("node", {
        "mappings": Param("forged label mappings to flood (default 2000)",
                          COUNT),
        "hellos": Param("forged hellos to flood (default 100)", COUNT),
        "window": Param("storm length in seconds when heal_at is omitted "
                        "(default 0.5)", AMOUNT),
        "setups": Param("priority LSP setup bursts, frr control (default 20)",
                        COUNT),
        "bandwidth_bps": Param("bandwidth per burst LSP, frr control "
                               "(default 1e6)", AMOUNT),
    }, controls=("ldp-messages", "frr"), draw_target="core"),
    FaultKind.LABEL_SPOOF: KindContract("node", {
        "packets": Param("forged labelled packets to inject (default 40)",
                         COUNT),
        "window": Param("injection window in seconds when heal_at is "
                        "omitted (default 0.5)", AMOUNT),
        "ttl": Param("TTL carried by the forged stacks (default 64)", _TTL),
        "src": _SRC,
    }, key="security", controls=("ldp-messages",), edge=True),
    FaultKind.LDP_HIJACK: KindContract(
        "link", key="security", controls=("ldp-messages",)),
    FaultKind.XCONNECT_LEAK: KindContract("node", {
        "victim": Param("FEC id whose ILM entry is corrupted (default: "
                        "first announced FEC at the target)", TEXT),
        "imposter": Param("FEC id whose LSP receives the leaked traffic "
                          "(default: first FEC with a different egress)",
                          TEXT),
    }, key="security", controls=("ldp-messages",)),
    FaultKind.TTL_FLOOD: KindContract("node", {
        "packets": Param("TTL=1 packets to inject (default 400)", COUNT),
        "window": Param("flood length in seconds when heal_at is omitted "
                        "(default 0.5)", AMOUNT),
        "src": _SRC,
    }, key="security", controls=("ldp-messages",), edge=True, queues=True),
    FaultKind.CONTROLLER_CRASH: KindContract("controller", key="controller"),
    # the partition targets the one node whose channel is cut
    FaultKind.CONTROLLER_PARTITION: KindContract("node", key="controller"),
}


def _kinds(test: Callable[[KindContract], bool]) -> frozenset:
    return frozenset(k for k, c in FAULT_KINDS.items() if test(c))


# views of the table
LINK_KINDS = _kinds(lambda c: c.target == "link")
SECURITY_KINDS = _kinds(lambda c: c.key == "security")
CONTROLLER_KINDS = _kinds(lambda c: c.key == "controller")
FAULT_PARAMS = {kind: {name: p.description for name, p in c.params.items()}
                for kind, c in FAULT_KINDS.items()}
#: each kind's params as a read table: an absent or null one is absent
_PARAMS = {kind: {name: (p.parse, None) for name, p in c.params.items()}
           for kind, c in FAULT_KINDS.items()}


#: a fault entry's own fields; every other key is one of its kind's
#: params.  Omitting ``heal_at`` is a fault that never heals.
_FAULT = {
    "target": (_TARGET, REQUIRED),
    "at": (REAL, 0.0),
    "heal_at": (REAL, None),
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: inject at ``at``, heal at ``heal_at``.

    ``target`` is ``(a, b)`` for link-scoped kinds and ``(node,)`` for
    node-scoped ones.  ``params`` carries kind-specific knobs (loss
    ``rate``, bit-flip ``level``/``address``, flap ``flaps``/``period``),
    each parsed by its row of :data:`FAULT_KINDS` when :meth:`from_dict`
    reads the entry; a ``None`` value is the default, as for
    ``heal_at``.
    """

    kind: FaultKind
    at: float
    target: Tuple[str, ...]
    heal_at: Optional[float] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        want = 2 if FAULT_KINDS[self.kind].target == "link" else 1
        if len(self.target) != want:
            raise ScenarioError(
                f"{self.kind.value} targets {want} node(s), "
                f"got {self.target!r}"
            )
        if self.at < 0:
            raise ScenarioError(f"fault time {self.at} is negative")
        if not math.isfinite(self.at):
            raise ScenarioError(
                f"{self.kind.value}: bad at {self.at}: must be finite"
            )
        if self.heal_at is not None and not math.isfinite(self.heal_at):
            raise ScenarioError(
                f"{self.kind.value}: bad heal_at {self.heal_at}: must be "
                "finite (omit heal_at for a fault that never heals)"
            )
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ScenarioError(
                f"heal_at {self.heal_at} must come after at {self.at}"
            )

    @property
    def label(self) -> str:
        """A stable human-readable target label (``a-b`` or ``node``)."""
        return "-".join(self.target)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FaultSpec":
        """A fault entry: ``kind``, ``target`` and the times, every
        other key one of the kind's params."""
        if not isinstance(raw, abc.Mapping):
            raise ScenarioError(f"fault entry {raw!r} must be an object")
        if "kind" not in raw:
            raise ScenarioError(f"fault entry missing 'kind': {raw!r}")
        kind = _kind(raw["kind"])
        where = kind.value
        own = {k: raw[k] for k in _FAULT if k in raw}
        rest = {k: v for k, v in raw.items() if k not in own and k != "kind"}
        # most entries carry no params: nothing to read
        params = rest and read(where, rest, _PARAMS[kind], noun="param")
        return cls(
            kind=kind, **read(where, own, _FAULT),
            params={k: v for k, v in params.items() if v is not None},
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind.value,
            "at": self.at,
            "target": list(self.target),
        }
        if self.heal_at is not None:
            out["heal_at"] = self.heal_at
        out.update(self.params)
        return out


@dataclass
class TrafficSpec:
    """One CBR flow across the domain."""

    ingress: str
    egress: str
    prefix: Annotated[str, _PREFIX]
    src: Annotated[str, _ADDRESS]
    dst: Annotated[str, _ADDRESS]
    rate_bps: Annotated[float, POSITIVE] = 1e6
    packet_size: Annotated[int, COUNT] = 500
    start: Annotated[float, NOT_NEGATIVE] = 0.0
    stop: Annotated[Optional[float], NOT_NEGATIVE] = None
    #: class of service, 0 (lowest) .. 7; ingress load shedding sheds
    #: the lowest-CoS FECs first
    cos: Annotated[int, _COS] = 0

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TrafficSpec":
        return build(cls, lambda: f"traffic entry {raw!r}", raw)


@dataclass(frozen=True)
class ProtectionSpec:
    """One FRR-protected LSP (``frr`` control).  What an entry leaves
    unset is its flow's, filled in by :meth:`of`."""

    name: Optional[str] = None
    ingress: Optional[str] = None
    egress: Optional[str] = None
    prefix: Annotated[Optional[str], _PREFIX] = None
    bandwidth_bps: Annotated[float, AMOUNT] = 0.0

    def of(self, traffic: List[TrafficSpec]) -> "ProtectionSpec":
        """This entry read against the flows: ``prefix`` defaults to the
        first flow's and must be a flow's, ``ingress`` and ``egress`` to
        that flow's and must differ, ``name`` to ``protect-<prefix>``."""
        prefix = self.prefix or traffic[0].prefix
        name = f"protect-{prefix}" if self.name is None else self.name
        flow = {f.prefix: f for f in traffic}.get(prefix)
        if flow is None:
            raise ScenarioError(
                f"protection {name!r}: bad prefix {prefix!r}: no flow has it"
            )
        spec = replace(
            self, name=name, prefix=prefix,
            ingress=flow.ingress if self.ingress is None else self.ingress,
            egress=flow.egress if self.egress is None else self.egress,
        )
        if spec.ingress == spec.egress:
            raise ScenarioError(
                f"protection {name!r}: bad egress {spec.egress!r}: it is "
                "the ingress"
            )
        return spec


@dataclass
class RandomFaultSpec:
    """A seeded randomized fault schedule, expanded at materialize time."""

    count: Annotated[int, COUNT] = 4
    kinds: Annotated[List[FaultKind], _KINDS] = field(
        default_factory=lambda: [FaultKind.LINK_DOWN])
    window: Annotated[Tuple[float, float], _WINDOW] = (0.0, 1.0)
    mean_outage: Annotated[float, POSITIVE] = 0.05
    #: restrict link faults to these links / node faults to these nodes
    targets: Annotated[Optional[List[Tuple[str, ...]]], _targets] = None

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "RandomFaultSpec":
        return build(cls, "random_faults", raw)


#: kind -> its builder and the builder's arguments, each read like any
#: scenario field; an absent (or null) argument is the builder's default
_LINK_ARGS = {
    "bandwidth_bps": (POSITIVE, None),
    "delay_s": (AMOUNT, None),
    "metric": (POSITIVE, None),
}
_SIZED_ARGS = {"n": (SIZE, REQUIRED), "prefix": (TEXT, None), **_LINK_ARGS}
_TOPOLOGIES = {
    "paper_figure1": (paper_figure1, _LINK_ARGS),
    "ring": (ring, _SIZED_ARGS),
    "line": (line, _SIZED_ARGS),
    "full_mesh": (full_mesh, _SIZED_ARGS),
}
_TOPOLOGY_KIND = {"kind": (parser(
    lambda kind: kind,
    lambda kind: isinstance(kind, str) and kind in _TOPOLOGIES,
    f"one of {', '.join(sorted(_TOPOLOGIES))}",
), REQUIRED)}


def _each(key: str, parse) -> Callable[[Any], list]:
    """A top-level key that holds a list, each item through ``parse``."""

    def each(value):
        if not isinstance(value, list):
            raise ScenarioError(f"'{key}' must be a list, got {value!r}")
        return [parse(item) for item in value]

    return each


def _object(key: str, parse=dict) -> Callable[[Any], Any]:
    """A top-level key that holds an object, through ``parse``."""

    def one(value):
        if not isinstance(value, abc.Mapping):
            raise ScenarioError(f"'{key}' must be an object, got {value!r}")
        return parse(value)

    return one


_TRAFFIC = _each("traffic", TrafficSpec.from_dict)
_PROTECTION = _each("protection", lambda raw: build(
    ProtectionSpec, f"protection entry {raw!r}", raw))
_FAULTS = _each("faults", FaultSpec.from_dict)
# an empty object is no randomized schedule
_RANDOM = _object("random_faults", lambda value: (
    RandomFaultSpec.from_dict(value) if value else None
))
#: an optional subsystem key: its row parses the object when the run is
#: built
_Key = Optional[Mapping[str, Any]]


@dataclass
class Scenario:
    """A complete chaos scenario: network + traffic + fault schedule.

    :meth:`from_dict` reads a document field by field
    (:func:`repro.config.build`): a field's parser is the one its
    ``Annotated`` type names, or its type's.  Each optional subsystem
    key below holds the file's object as is; its row of
    :data:`~repro.faults.subsystems.SUBSYSTEMS` parses it when the run
    is built.
    """

    name: str = "unnamed"
    topology: Annotated[Mapping[str, Any], _object("topology")] = field(
        default_factory=lambda: {"kind": "paper_figure1"})
    traffic: Annotated[List[TrafficSpec], _TRAFFIC] = field(
        default_factory=list)
    description: str = ""
    edges: Annotated[Optional[List[str]], _each("edges", TEXT)] = None
    hardware: bool = False
    control: str = "ldp"  # "ldp" | "ldp-messages" | "frr"
    duration: float = 1.0
    detection_delay_s: float = 1e-3
    protection: Annotated[List[ProtectionSpec], _PROTECTION] = field(
        default_factory=list)
    faults: Annotated[List[FaultSpec], _FAULTS] = field(default_factory=list)
    random_faults: Annotated[Optional[RandomFaultSpec], _RANDOM] = None
    #: consistency-auditor configuration ({"period": s, "start": s}),
    #: or None to run without the auditor
    audit: Annotated[_Key, _object("audit")] = None
    #: OAM monitor configuration ({"period": s, "start": s,
    #: "timeout": s, "slo_rtt_s": s}), or None to run without probes
    oam: Annotated[_Key, _object("oam")] = None
    #: control-plane overload protection (see
    #: :class:`repro.control.overload.OverloadConfig`), or None to run
    #: with the legacy unbounded control plane
    overload: Annotated[_Key, _object("overload")] = None
    #: flow accounting / traffic-matrix configuration
    #: ({"active_timeout": s, "idle_timeout": s, "capacity": n,
    #: "matrix_period": s, "matrix_start": s}), or None to run without
    #: the accountant (older reports stay byte-identical)
    flows: Annotated[_Key, _object("flows")] = None
    #: alerting rules ({"rules": [{"name", "signal", "threshold",
    #: "clear", "description"}, ...]}), or None for no alert engine;
    #: requires ``flows`` (the engine evaluates on the collector tick)
    alerts: Annotated[_Key, _object("alerts")] = None
    #: adversarial-security configuration (see
    #: :class:`repro.security.SecurityConfig`), or None to run without
    #: the monitor; required by the attack fault kinds and gates the
    #: report's ``security`` section (older reports stay byte-identical)
    security: Annotated[_Key, _object("security")] = None
    #: topology-observatory configuration ({"snapshot_every": n}), or
    #: None to run without the observer; gates the report's
    #: ``convergence`` section (older reports stay byte-identical)
    topo: Annotated[_Key, _object("topo")] = None
    #: centralized PCE controller configuration (see
    #: :class:`repro.control.controller.ControllerConfig`), or None to
    #: run pure distributed control; required by the controller fault
    #: kinds and gates the report's ``controller`` section (older
    #: reports stay byte-identical)
    controller: Annotated[_Key, _object("controller")] = None

    def __post_init__(self) -> None:
        from repro.faults.subsystems import SUBSYSTEMS

        if self.control not in ("ldp", "ldp-messages", "frr"):
            raise ScenarioError(f"unknown control plane {self.control!r}")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        # the horizon and the detection delay are scheduler times: NaN
        # or infinity spins to the event budget or fails mid-run
        if not math.isfinite(self.duration):
            raise ScenarioError(f"bad duration {self.duration!r}: must be finite")
        if not 0 <= self.detection_delay_s < math.inf:
            raise ScenarioError(
                f"bad detection_delay_s {self.detection_delay_s!r}: must be "
                "finite and >= 0"
            )
        if not self.traffic:
            raise ScenarioError("a scenario needs at least one flow")
        if self.control == "frr" and not self.protection:
            raise ScenarioError("frr control needs a 'protection' list")
        self.protection = [p.of(self.traffic) for p in self.protection]
        names = [p.name for p in self.protection]
        if len(set(names)) < len(names):
            raise ScenarioError(f"protection names must be unique: {names}")
        kinds = {s.kind for s in self.faults}
        if self.random_faults is not None:
            kinds.update(self.random_faults.kinds)
        for sub in SUBSYSTEMS:
            if getattr(self, sub.key) is not None:
                continue
            for key, why in sub.carries.items():
                if getattr(self, key) is not None:
                    raise ScenarioError(f"'{key}' needs '{sub.key}': {why}")
            needing = sorted(
                k.value for k in kinds if FAULT_KINDS[k].key == sub.key
            )
            if needing:
                raise ScenarioError(
                    f"'{', '.join(needing)}' faults need a '{sub.key}' key: "
                    f"{sub.kinds[2]}"
                )

    # -- construction -------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Scenario":
        return build(cls, "", raw)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- topology -----------------------------------------------------------
    def build_topology(self) -> Tuple[Topology, Dict[str, RouterRole]]:
        """Instantiate the topology and its LER role map."""
        spec = dict(self.topology)
        where = f"topology {dict(self.topology)!r}"
        kind = spec.pop("kind", "paper_figure1")
        kind = read(where, {"kind": kind}, _TOPOLOGY_KIND)["kind"]
        builder, table = _TOPOLOGIES[kind]
        args = read(where, spec, table)
        try:
            topo = builder(**{k: v for k, v in args.items() if v is not None})
            for a, b, attrs in topo.edges_with_attrs():
                # every test is positive: a NaN fails them all
                if not (
                    0 < attrs.bandwidth_bps < math.inf
                    and 0 <= attrs.delay_s < math.inf
                ):
                    raise ValueError(
                        f"link {a}-{b} needs a finite positive bandwidth_bps "
                        "and a finite delay_s >= 0"
                    )
        except (ValueError, TopologyError) as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        edges = self.edges
        if edges is None:
            if kind == "paper_figure1":
                edges = ["ler-a", "ler-b"]
            else:
                # line/ring/mesh: traffic endpoints are the edges
                edges = sorted(
                    {t.ingress for t in self.traffic}
                    | {t.egress for t in self.traffic}
                )
        ends = [
            (f"{what} {end}", getattr(spec, end))
            for what, specs in (("traffic", self.traffic),
                                ("protection", self.protection))
            for spec in specs
            for end in ("ingress", "egress")
        ]
        # edges first: a flow's egress must be one
        for what, name in [("edge", name) for name in edges] + ends:
            if name not in topo.nodes:
                raise ScenarioError(f"{what} {name!r} is not in the topology")
            if what == "traffic egress" and name not in edges:
                raise ScenarioError(
                    f"{what} {name!r} is not an edge: hosts attach to LERs"
                )
        roles = {name: RouterRole.LER for name in edges}
        return topo, roles

    # -- schedule expansion -------------------------------------------------
    def materialize(self, seed: int) -> List[FaultSpec]:
        """The full fault schedule: explicit faults plus the seeded
        randomized schedule, sugar (flaps) expanded, sorted by injection
        time."""
        schedule = [s for spec in self.faults for s in _expanded(spec)]
        if self.random_faults is not None:
            topo, _ = self.build_topology()
            drawn = _random_schedule(
                self.random_faults, topo, self, seed, schedule
            )
            schedule.extend(s for spec in drawn for s in _expanded(spec))
        schedule.sort(key=lambda s: (s.at, s.kind.value, s.target))
        return schedule


def _expanded(spec: FaultSpec) -> List[FaultSpec]:
    expand = FAULT_KINDS[spec.kind].expand
    return [spec] if expand is None else expand(spec)


def _random_schedule(
    rand: RandomFaultSpec,
    topology: Topology,
    scenario: Scenario,
    seed: int,
    existing: Optional[List[FaultSpec]] = None,
) -> List[FaultSpec]:
    """Expand a randomized schedule deterministically from ``seed``.

    Draws are rejected when they would overlap an existing outage on
    the same target -- whether from an earlier draw or from the
    scenario's explicit faults (concurrent faults on one link/node
    would make heal bookkeeping ambiguous) -- with a bounded retry
    budget so the expansion always terminates.
    """
    rng = random.Random((seed << 8) ^ 0xFA17)
    links = sorted(
        tuple(sorted((a, b)))
        for a, b, _ in topology.edges_with_attrs()
    )
    edge_names = {t.ingress for t in scenario.traffic} | {
        t.egress for t in scenario.traffic
    }
    core = sorted(set(topology.nodes) - edge_names)
    busy: Dict[Tuple[str, ...], List[Tuple[float, float]]] = {}
    for spec in existing or []:
        key = tuple(sorted(spec.target))
        hi = spec.heal_at if spec.heal_at is not None else scenario.duration
        busy.setdefault(key, []).append((spec.at, hi))
    out: List[FaultSpec] = []
    attempts = 0
    while len(out) < rand.count and attempts < rand.count * 20:
        attempts += 1
        kind = rng.choice(sorted(rand.kinds, key=lambda k: k.value))
        contract = FAULT_KINDS[kind]
        if rand.targets is not None:
            target = tuple(rng.choice(rand.targets))
        elif contract.draw_target == "link":
            target = rng.choice(links)
        elif contract.draw_target == "core" and core:
            target = (rng.choice(core),)
        else:  # never drawn, or a node kind with no core node to break
            continue
        at = round(rng.uniform(*rand.window), 6)
        outage = max(rand.mean_outage / 10.0,
                     rng.expovariate(1.0 / rand.mean_outage))
        heal_at = round(min(at + outage, rand.window[1] + outage), 6)
        if heal_at <= at:
            continue
        intervals = busy.setdefault(target, [])
        if any(at < hi and heal_at > lo for lo, hi in intervals):
            continue  # overlaps an existing outage on this target
        intervals.append((at, heal_at))
        params = {
            name: round(rng.uniform(lo, hi), 3)
            for name, (lo, hi) in contract.draw_params.items()
        }
        out.append(
            FaultSpec(
                kind=kind, at=at, target=target,
                heal_at=heal_at, params=params,
            )
        )
    return out
