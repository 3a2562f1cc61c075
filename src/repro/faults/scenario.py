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
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.mpls.router import RouterRole
from repro.net.topology import (
    Topology,
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


#: kinds whose target is a link (two node names)
LINK_KINDS = frozenset(
    {
        FaultKind.LINK_DOWN,
        FaultKind.LINK_FLAP,
        FaultKind.LINK_LOSS,
        FaultKind.LINK_CORRUPT,
        FaultKind.LDP_SESSION_DROP,
        FaultKind.LDP_HIJACK,
    }
)

#: kinds whose target is a single node
NODE_KINDS = frozenset(
    {
        FaultKind.NODE_CRASH,
        FaultKind.NODE_RESTART,
        FaultKind.IB_BITFLIP,
        FaultKind.SIGNALING_STORM,
        FaultKind.LABEL_SPOOF,
        FaultKind.XCONNECT_LEAK,
        FaultKind.TTL_FLOOD,
    }
)

#: controller kinds: require the scenario's ``controller`` key so the
#: fault has a PCE (armed or deliberately disabled) to act on.  The
#: crash targets the literal node name ``"controller"``; the partition
#: targets the one node whose channel is cut.
CONTROLLER_KINDS = frozenset(
    {
        FaultKind.CONTROLLER_CRASH,
        FaultKind.CONTROLLER_PARTITION,
    }
)

#: adversarial kinds: require the scenario's ``security`` key so every
#: attack runs against an armed (or deliberately disarmed) monitor
SECURITY_KINDS = frozenset(
    {
        FaultKind.LABEL_SPOOF,
        FaultKind.LDP_HIJACK,
        FaultKind.XCONNECT_LEAK,
        FaultKind.TTL_FLOOD,
    }
)

#: accepted per-kind scenario params (name -> description).  This is
#: the single validation table: ``FaultSpec.from_dict`` rejects any
#: key outside it, and ``repro chaos --list-faults`` renders it, so a
#: misspelled knob (``losss=0.5``) errors instead of silently
#: vanishing into an ignored params dict.
FAULT_PARAMS: Dict[FaultKind, Dict[str, str]] = {
    FaultKind.LINK_DOWN: {},
    FaultKind.LINK_FLAP: {
        "flaps": "number of down/up cycles (default 3)",
        "period": "cycle length in seconds, 50% duty (default 0.05)",
    },
    FaultKind.LINK_LOSS: {
        "rate": "packet loss probability while active (default 0.2)",
    },
    FaultKind.LINK_CORRUPT: {
        "rate": "label bit-error probability while active (default 0.1)",
    },
    FaultKind.NODE_CRASH: {},
    FaultKind.NODE_RESTART: {
        "hold_time": "RFC 3478 forwarding-state holding timer in "
                     "seconds after injection (default 0.25)",
    },
    FaultKind.LDP_SESSION_DROP: {},
    FaultKind.IB_BITFLIP: {
        "level": "info-base level 1..3 to corrupt (default: seeded)",
        "address": "entry address within the level (default: seeded)",
        "label_xor": "XOR mask applied to the stored label (default 0)",
        "index_xor": "XOR mask applied to the stored index (default 0)",
        "op_xor": "XOR mask applied to the stored opcode (default 0)",
    },
    FaultKind.SIGNALING_STORM: {
        "mappings": "forged label mappings to flood (default 2000)",
        "hellos": "forged hellos to flood (default 100)",
        "window": "storm length in seconds when heal_at is omitted "
                  "(default 0.5)",
        "setups": "priority LSP setup bursts, frr control (default 20)",
        "bandwidth_bps": "bandwidth per burst LSP, frr control "
                         "(default 1e6)",
    },
    FaultKind.LABEL_SPOOF: {
        "packets": "forged labelled packets to inject (default 40)",
        "window": "injection window in seconds when heal_at is "
                  "omitted (default 0.5)",
        "ttl": "TTL carried by the forged stacks (default 64)",
        "src": "spoofed source address (default 203.0.113.66)",
    },
    FaultKind.LDP_HIJACK: {},
    FaultKind.XCONNECT_LEAK: {
        "victim": "FEC id whose ILM entry is corrupted (default: "
                  "first announced FEC at the target)",
        "imposter": "FEC id whose LSP receives the leaked traffic "
                    "(default: first FEC with a different egress)",
    },
    FaultKind.TTL_FLOOD: {
        "packets": "TTL=1 packets to inject (default 400)",
        "window": "flood length in seconds when heal_at is omitted "
                  "(default 0.5)",
        "src": "spoofed source address (default 203.0.113.66)",
    },
    FaultKind.CONTROLLER_CRASH: {},
    FaultKind.CONTROLLER_PARTITION: {},
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: inject at ``at``, heal at ``heal_at``.

    ``target`` is ``(a, b)`` for link-scoped kinds and ``(node,)`` for
    node-scoped ones.  ``params`` carries kind-specific knobs (loss
    ``rate``, bit-flip ``level``/``address``, flap ``flaps``/``period``).
    """

    kind: FaultKind
    at: float
    target: Tuple[str, ...]
    heal_at: Optional[float] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        want = 2 if self.kind in LINK_KINDS else 1
        if len(self.target) != want:
            raise ScenarioError(
                f"{self.kind.value} targets {want} node(s), "
                f"got {self.target!r}"
            )
        if self.at < 0:
            raise ScenarioError(f"fault time {self.at} is negative")
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
        try:
            kind = FaultKind(raw["kind"])
        except KeyError:
            raise ScenarioError(f"fault entry missing 'kind': {raw!r}")
        except ValueError:
            raise ScenarioError(f"unknown fault kind {raw['kind']!r}")
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
        allowed = FAULT_PARAMS[kind]
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ScenarioError(
                f"{kind.value}: unknown param(s) {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(allowed)) or 'none'})"
            )
        return cls(
            kind=kind,
            at=float(raw.get("at", 0.0)),
            target=target,
            heal_at=(
                float(raw["heal_at"]) if raw.get("heal_at") is not None
                else None
            ),
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
        kinds = [FaultKind(k) for k in raw.get("kinds", ["link-down"])]
        window = tuple(float(t) for t in raw.get("window", (0.0, 1.0)))
        if len(window) != 2 or window[1] <= window[0]:
            raise ScenarioError(f"bad random window {window!r}")
        targets = raw.get("targets")
        if targets is not None:
            targets = [
                (t,) if isinstance(t, str) else tuple(t) for t in targets
            ]
        return cls(
            count=int(raw.get("count", 4)),
            kinds=kinds,
            window=window,  # type: ignore[arg-type]
            mean_outage=float(raw.get("mean_outage", 0.05)),
            targets=targets,
        )


_TOPOLOGY_BUILDERS = {
    "paper_figure1": paper_figure1,
    "ring": ring,
    "line": line,
    "full_mesh": full_mesh,
}


@dataclass
class Scenario:
    """A complete chaos scenario: network + traffic + fault schedule."""

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
        if self.control not in ("ldp", "ldp-messages", "frr"):
            raise ScenarioError(f"unknown control plane {self.control!r}")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if not self.traffic:
            raise ScenarioError("a scenario needs at least one flow")
        if self.control == "frr" and not self.protection:
            raise ScenarioError("frr control needs a 'protection' list")
        if self.alerts is not None and self.flows is None:
            raise ScenarioError(
                "'alerts' needs 'flows': the alert engine is evaluated "
                "on the traffic-matrix collector tick"
            )
        attack_kinds = {
            s.kind for s in self.faults if s.kind in SECURITY_KINDS
        }
        if self.random_faults is not None:
            attack_kinds |= {
                k for k in self.random_faults.kinds if k in SECURITY_KINDS
            }
        if attack_kinds and self.security is None:
            names = ", ".join(sorted(k.value for k in attack_kinds))
            raise ScenarioError(
                f"'{names}' faults need a 'security' key: adversarial "
                "faults are measured against the security monitor's "
                "guards (set \"enabled\": false to run them unmitigated)"
            )
        controller_kinds = {
            s.kind for s in self.faults if s.kind in CONTROLLER_KINDS
        }
        if self.random_faults is not None:
            controller_kinds |= {
                k
                for k in self.random_faults.kinds
                if k in CONTROLLER_KINDS
            }
        if controller_kinds and self.controller is None:
            names = ", ".join(sorted(k.value for k in controller_kinds))
            raise ScenarioError(
                f"'{names}' faults need a 'controller' key: controller "
                "faults act on the PCE and its node channels (set "
                "\"enabled\": false to run them against a dark "
                "controller)"
            )

    # -- construction -------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Scenario":
        faults = [FaultSpec.from_dict(f) for f in raw.get("faults", [])]
        rand = raw.get("random_faults")
        return cls(
            name=raw.get("name", "unnamed"),
            description=raw.get("description", ""),
            topology=dict(raw.get("topology", {"kind": "paper_figure1"})),
            edges=raw.get("edges"),
            hardware=bool(raw.get("hardware", False)),
            control=raw.get("control", "ldp"),
            duration=float(raw.get("duration", 1.0)),
            detection_delay_s=float(raw.get("detection_delay_s", 1e-3)),
            traffic=[TrafficSpec.from_dict(t) for t in raw["traffic"]]
            if raw.get("traffic")
            else [],
            protection=list(raw.get("protection", [])),
            faults=faults,
            random_faults=(
                RandomFaultSpec.from_dict(rand) if rand else None
            ),
            audit=(
                dict(raw["audit"]) if raw.get("audit") is not None else None
            ),
            oam=(
                dict(raw["oam"]) if raw.get("oam") is not None else None
            ),
            overload=(
                dict(raw["overload"])
                if raw.get("overload") is not None
                else None
            ),
            flows=(
                dict(raw["flows"]) if raw.get("flows") is not None else None
            ),
            alerts=(
                dict(raw["alerts"]) if raw.get("alerts") is not None else None
            ),
            security=(
                dict(raw["security"])
                if raw.get("security") is not None
                else None
            ),
            topo=(
                dict(raw["topo"]) if raw.get("topo") is not None else None
            ),
            controller=(
                dict(raw["controller"])
                if raw.get("controller") is not None
                else None
            ),
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
        topo = builder(**spec)
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
        """The full fault schedule: explicit faults (flaps expanded)
        plus the seeded randomized schedule, sorted by injection time."""
        schedule: List[FaultSpec] = []
        for spec in self.faults:
            if spec.kind is FaultKind.LINK_FLAP:
                schedule.extend(_expand_flap(spec))
            else:
                schedule.append(spec)
        if self.random_faults is not None:
            topo, _ = self.build_topology()
            schedule.extend(
                _random_schedule(
                    self.random_faults, topo, self, seed, schedule
                )
            )
        schedule.sort(key=lambda s: (s.at, s.kind.value, s.target))
        return schedule


def _expand_flap(spec: FaultSpec) -> List[FaultSpec]:
    """A flap is sugar for ``flaps`` short link-down/up cycles, each
    ``period`` long with a 50% duty cycle."""
    flaps = int(spec.params.get("flaps", 3))
    period = float(spec.params.get("period", 0.05))
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
        if rand.targets is not None:
            target = tuple(rng.choice(rand.targets))
        elif kind in SECURITY_KINDS:
            # adversarial kinds need explicit targets: the edge/link
            # choice is part of the attack, not a random draw
            continue
        elif kind in LINK_KINDS:
            target = rng.choice(links)
        elif (
            kind
            in (
                FaultKind.NODE_CRASH,
                FaultKind.NODE_RESTART,
                FaultKind.SIGNALING_STORM,
            )
            and core
        ):
            target = (rng.choice(core),)
        else:  # node-scoped with no core nodes: nothing safe to break
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
        params: Dict[str, Any] = {}
        if kind is FaultKind.LINK_LOSS:
            params["rate"] = round(rng.uniform(0.05, 0.4), 3)
        elif kind is FaultKind.LINK_CORRUPT:
            params["rate"] = round(rng.uniform(0.05, 0.3), 3)
        out.append(
            FaultSpec(
                kind=kind, at=at, target=target,
                heal_at=heal_at, params=params,
            )
        )
    return out
