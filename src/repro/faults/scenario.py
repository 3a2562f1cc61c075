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
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.mpls.router import RouterRole
from repro.net.topology import (
    Topology,
    TopologyError,
    full_mesh,
    line,
    paper_figure1,
    ring,
)


class ScenarioError(ValueError):
    """A scenario document is malformed or internally inconsistent."""


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


def _parser(convert, holds, want):
    """A param parser: ``convert`` a scenario file's value, then refuse
    it unless it ``holds`` (``want`` says what would)."""

    def parse(value):
        parsed = convert(value)
        if not holds(parsed):
            raise ValueError(f"must be {want}")
        return parsed

    return parse


# every test is positive, so a NaN fails them all
_LOSS = _parser(float, lambda x: 0 <= x < 1, "in [0, 1)")  # as set_loss
_PROBABILITY = _parser(float, lambda x: 0 <= x <= 1, "in [0, 1]")
_AMOUNT = _parser(float, lambda x: 0 <= x < math.inf, "finite and >= 0")
_FINITE = _parser(float, math.isfinite, "finite")
_COUNT = _parser(int, lambda n: n >= 0, ">= 0")
_POSITIVE = _parser(float, lambda x: 0 < x < math.inf, "finite and > 0")
_KIND_LIST = _parser(
    lambda x: x, lambda x: isinstance(x, list) and x, "a non-empty list"
)
_BOOL = _parser(lambda x: x, lambda x: isinstance(x, bool), "true or false")
_WINDOW = _parser(
    lambda w: tuple(float(t) for t in w),
    lambda w: len(w) == 2 and 0 <= w[0] < w[1] < math.inf,
    "two finite times >= 0, the second later",
)
_LEVEL = _parser(int, lambda n: 1 <= n <= 3, "1, 2 or 3")
_TTL = _parser(int, lambda n: 0 <= n <= 255, "in 0..255")


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


_SRC = Param("spoofed source address (default 203.0.113.66)", str)

#: the fault kind contract, one row per kind.  Adding a kind is one row
#: here plus the injector's ``_inject_<kind>`` method and its
#: ``_heal_<kind>`` and/or ``_backfill_<kind>``.  ``FaultSpec`` refuses
#: a param outside the row (a misspelled ``losss=0.5`` errors instead
#: of vanishing) or one its parser refuses; ``--list-faults`` renders
#: the rows.
FAULT_KINDS: Dict[FaultKind, KindContract] = {
    FaultKind.LINK_DOWN: KindContract("link", draw_target="link"),
    FaultKind.LINK_FLAP: KindContract("link", {
        "flaps": Param("number of down/up cycles (default 3)", int),
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
                           "seconds after injection (default 0.25)", _AMOUNT),
    }, controls=("ldp", "ldp-messages"), feature="graceful restart",
        draw_target="core"),
    FaultKind.LDP_SESSION_DROP: KindContract(
        "link", controls=("ldp-messages",), draw_target="link"),
    FaultKind.IB_BITFLIP: KindContract("node", {
        "level": Param("info-base level 1..3 to corrupt (default: seeded)",
                       _LEVEL),
        "address": Param("entry address within the level (default: seeded)",
                         _COUNT),
        "label_xor": Param("XOR mask applied to the stored label (default 0)",
                           int),
        "index_xor": Param("XOR mask applied to the stored index (default 0)",
                           int),
        "op_xor": Param("XOR mask applied to the stored opcode (default 0)",
                        int),
    }, hardware=True),
    FaultKind.SIGNALING_STORM: KindContract("node", {
        "mappings": Param("forged label mappings to flood (default 2000)",
                          _COUNT),
        "hellos": Param("forged hellos to flood (default 100)", _COUNT),
        "window": Param("storm length in seconds when heal_at is omitted "
                        "(default 0.5)", _AMOUNT),
        "setups": Param("priority LSP setup bursts, frr control (default 20)",
                        _COUNT),
        "bandwidth_bps": Param("bandwidth per burst LSP, frr control "
                               "(default 1e6)", _AMOUNT),
    }, controls=("ldp-messages", "frr"), draw_target="core"),
    FaultKind.LABEL_SPOOF: KindContract("node", {
        "packets": Param("forged labelled packets to inject (default 40)",
                         _COUNT),
        "window": Param("injection window in seconds when heal_at is "
                        "omitted (default 0.5)", _AMOUNT),
        "ttl": Param("TTL carried by the forged stacks (default 64)", _TTL),
        "src": _SRC,
    }, key="security", controls=("ldp-messages",), edge=True),
    FaultKind.LDP_HIJACK: KindContract(
        "link", key="security", controls=("ldp-messages",)),
    FaultKind.XCONNECT_LEAK: KindContract("node", {
        "victim": Param("FEC id whose ILM entry is corrupted (default: "
                        "first announced FEC at the target)", str),
        "imposter": Param("FEC id whose LSP receives the leaked traffic "
                          "(default: first FEC with a different egress)",
                          str),
    }, key="security", controls=("ldp-messages",)),
    FaultKind.TTL_FLOOD: KindContract("node", {
        "packets": Param("TTL=1 packets to inject (default 400)", _COUNT),
        "window": Param("flood length in seconds when heal_at is omitted "
                        "(default 0.5)", _AMOUNT),
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


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: inject at ``at``, heal at ``heal_at``.

    ``target`` is ``(a, b)`` for link-scoped kinds and ``(node,)`` for
    node-scoped ones.  ``params`` carries kind-specific knobs (loss
    ``rate``, bit-flip ``level``/``address``, flap ``flaps``/``period``),
    each parsed by its row of :data:`FAULT_KINDS`; a ``None`` value is
    the default, as for ``heal_at``.
    """

    kind: FaultKind
    at: float
    target: Tuple[str, ...]
    heal_at: Optional[float] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        contract = FAULT_KINDS[self.kind]
        accepted = contract.params
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ScenarioError(
                f"{self.kind.value}: unknown param(s) {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(accepted)) or 'none'})"
            )
        parsed = {}
        for name, value in self.params.items():
            if value is None:
                continue
            try:
                parsed[name] = accepted[name].parse(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(
                    f"{self.kind.value}: bad {name} {value!r}: {exc}"
                ) from None
        object.__setattr__(self, "params", parsed)
        want = 2 if contract.target == "link" else 1
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
        if not isinstance(raw, Mapping):
            raise ScenarioError(f"fault entry {raw!r} must be an object")
        if "kind" not in raw:
            raise ScenarioError(f"fault entry missing 'kind': {raw!r}")
        kind = _kind(raw["kind"])
        target = raw.get("target")
        if isinstance(target, str):
            target = (target,)
        elif isinstance(target, (list, tuple)):
            target = tuple(target)
        else:
            raise ScenarioError(f"fault entry missing 'target': {raw!r}")
        params = {
            k: v
            for k, v in raw.items()
            if k not in ("kind", "at", "target", "heal_at")
        }
        times = {}
        for key in ("at", "heal_at"):
            value = raw.get(key)
            try:
                times[key] = None if value is None else float(value)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    f"{kind.value}: bad {key} {value!r}: {exc}"
                ) from None
        return cls(
            kind=kind,
            at=0.0 if times["at"] is None else times["at"],
            target=target,
            heal_at=times["heal_at"],
            params=params,
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
    prefix: str
    src: str
    dst: str
    rate_bps: float = 1e6
    packet_size: int = 500
    start: float = 0.0
    stop: Optional[float] = None
    #: class of service, 0 (lowest) .. 7; ingress load shedding sheds
    #: the lowest-CoS FECs first
    cos: int = 0

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TrafficSpec":
        try:
            spec = cls(
                ingress=raw["ingress"],
                egress=raw["egress"],
                prefix=raw["prefix"],
                src=raw["src"],
                dst=raw["dst"],
                rate_bps=float(raw.get("rate_bps", 1e6)),
                packet_size=int(raw.get("packet_size", 500)),
                start=float(raw.get("start", 0.0)),
                cos=int(raw.get("cos", 0)),
                stop=(
                    float(raw["stop"]) if raw.get("stop") is not None
                    else None
                ),
            )
        except KeyError as exc:
            raise ScenarioError(f"traffic entry missing {exc}")
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"traffic entry {raw!r}: {exc}")
        # every test is positive: a NaN fails them all
        if not (
            0 < spec.rate_bps < math.inf
            and spec.packet_size >= 0
            and spec.start >= 0
            and (spec.stop is None or spec.stop >= 0)
        ):
            raise ScenarioError(
                f"traffic entry {raw!r}: rate_bps must be finite and "
                "positive, packet_size, start and stop must not be negative"
            )
        return spec


@dataclass
class RandomFaultSpec:
    """A seeded randomized fault schedule, expanded at materialize time."""

    count: int
    kinds: List[FaultKind]
    window: Tuple[float, float]
    mean_outage: float = 0.05
    #: restrict link faults to these links / node faults to these nodes
    targets: Optional[List[Tuple[str, ...]]] = None

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "RandomFaultSpec":
        targets = raw.get("targets")
        if targets is not None:
            targets = [
                (t,) if isinstance(t, str) else tuple(t) for t in targets
            ]
        where = "random_faults: "
        return cls(
            kinds=[
                _kind(k)
                for k in _value(raw, "kinds", ["link-down"], _KIND_LIST, where)
            ],
            window=_value(raw, "window", (0.0, 1.0), _WINDOW, where),
            count=_value(raw, "count", 4, _COUNT, where),
            mean_outage=_value(raw, "mean_outage", 0.05, _POSITIVE, where),
            targets=targets,
        )


_TOPOLOGY_BUILDERS = {
    "paper_figure1": paper_figure1,
    "ring": ring,
    "line": line,
    "full_mesh": full_mesh,
}


def _listed(raw: Mapping[str, Any], key: str) -> Optional[list]:
    """A top-level key that holds a list, or None when it is absent."""
    value = raw.get(key)
    if value is not None and not isinstance(value, list):
        raise ScenarioError(f"'{key}' must be a list, got {value!r}")
    return value


def _value(
    raw: Mapping[str, Any], key: str, default: Any, parse=float, where=""
) -> Any:
    """``raw[key]`` (or ``default``) through ``parse``; a value it
    refuses is one ``<where>bad <key> <value>: <why>`` error."""
    value = raw.get(key, default)
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}bad {key} {value!r}: {exc}") from None


@dataclass
class Scenario:
    """A complete chaos scenario: network + traffic + fault schedule.

    Each optional subsystem key below holds the file's object as is; its
    row of :data:`~repro.faults.subsystems.SUBSYSTEMS` parses it when
    the run is built.
    """

    name: str
    topology: Mapping[str, Any]
    traffic: List[TrafficSpec]
    description: str = ""
    edges: Optional[List[str]] = None
    hardware: bool = False
    control: str = "ldp"  # "ldp" | "ldp-messages" | "frr"
    duration: float = 1.0
    detection_delay_s: float = 1e-3
    protection: List[Mapping[str, Any]] = field(default_factory=list)
    faults: List[FaultSpec] = field(default_factory=list)
    random_faults: Optional[RandomFaultSpec] = None
    #: consistency-auditor configuration ({"period": s, "start": s}),
    #: or None to run without the auditor
    audit: Optional[Mapping[str, Any]] = None
    #: OAM monitor configuration ({"period": s, "start": s,
    #: "timeout": s, "slo_rtt_s": s}), or None to run without probes
    oam: Optional[Mapping[str, Any]] = None
    #: control-plane overload protection (see
    #: :class:`repro.control.overload.OverloadConfig`), or None to run
    #: with the legacy unbounded control plane
    overload: Optional[Mapping[str, Any]] = None
    #: flow accounting / traffic-matrix configuration
    #: ({"active_timeout": s, "idle_timeout": s, "capacity": n,
    #: "matrix_period": s, "matrix_start": s}), or None to run without
    #: the accountant (older reports stay byte-identical)
    flows: Optional[Mapping[str, Any]] = None
    #: alerting rules ({"rules": [{"name", "signal", "threshold",
    #: "clear", "description"}, ...]}), or None for no alert engine;
    #: requires ``flows`` (the engine evaluates on the collector tick)
    alerts: Optional[Mapping[str, Any]] = None
    #: adversarial-security configuration (see
    #: :class:`repro.security.SecurityConfig`), or None to run without
    #: the monitor; required by the attack fault kinds and gates the
    #: report's ``security`` section (older reports stay byte-identical)
    security: Optional[Mapping[str, Any]] = None
    #: topology-observatory configuration ({"snapshot_every": n}), or
    #: None to run without the observer; gates the report's
    #: ``convergence`` section (older reports stay byte-identical)
    topo: Optional[Mapping[str, Any]] = None
    #: centralized PCE controller configuration (see
    #: :class:`repro.control.controller.ControllerConfig`), or None to
    #: run pure distributed control; required by the controller fault
    #: kinds and gates the report's ``controller`` section (older
    #: reports stay byte-identical)
    controller: Optional[Mapping[str, Any]] = None

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
        from repro.faults.subsystems import SUBSYSTEM_KEYS

        faults = [FaultSpec.from_dict(f) for f in _listed(raw, "faults") or []]
        topology = raw.get("topology", {"kind": "paper_figure1"})
        if not isinstance(topology, Mapping):
            raise ScenarioError(
                f"'topology' must be an object, got {topology!r}"
            )
        objects = {}
        for key in ("random_faults", *SUBSYSTEM_KEYS):
            value = raw.get(key)
            if value is not None and not isinstance(value, Mapping):
                raise ScenarioError(
                    f"'{key}' must be an object, got {value!r}"
                )
            objects[key] = None if value is None else dict(value)
        rand = objects.pop("random_faults")
        return cls(
            name=raw.get("name", "unnamed"),
            description=raw.get("description", ""),
            topology=dict(topology),
            edges=_listed(raw, "edges"),
            hardware=_value(raw, "hardware", False, _BOOL),
            control=raw.get("control", "ldp"),
            duration=_value(raw, "duration", 1.0),
            detection_delay_s=_value(raw, "detection_delay_s", 1e-3),
            traffic=[
                TrafficSpec.from_dict(t) for t in _listed(raw, "traffic") or []
            ],
            protection=_listed(raw, "protection") or [],
            faults=faults,
            random_faults=(
                RandomFaultSpec.from_dict(rand) if rand else None
            ),
            **objects,
        )

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
        kind = spec.pop("kind", "paper_figure1")
        builder = _TOPOLOGY_BUILDERS.get(kind)
        if builder is None:
            raise ScenarioError(f"unknown topology kind {kind!r}")
        try:
            topo = builder(**spec)
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
        except (TypeError, ValueError, TopologyError) as exc:
            raise ScenarioError(
                f"topology {dict(self.topology)!r}: {exc}"
            ) from None
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
        for name in edges:
            if name not in topo.nodes:
                raise ScenarioError(f"edge {name!r} is not in the topology")
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
