"""The topology observatory: a live link-state database fed purely by
telemetry, with time travel and convergence accounting.

A :class:`TopologyObserver` subscribes to the structured event stream
(and, for per-link utilization, rides the traffic-matrix collector's
tick) and maintains a global view of the network: node and link state,
LDP adjacencies, label bindings per FEC, RSVP-TE LSPs, active faults
and attacks.  It adds **no instrumentation to hot paths** -- everything
it knows arrives through events the subsystems already emit, which is
also why a batched run and a scalar run of the same seed produce the
same database: the observer ignores data-plane event kinds entirely.

Every state change is recorded as a versioned delta against periodic
full snapshots, so the observer supports

* **time travel** -- :meth:`TopologyObserver.at` reconstructs the exact
  view at any timestamp from the nearest snapshot plus delta replay
  (byte-identical to the live view the observer held at that instant),
  and :meth:`TopologyView.diff` compares two instants;
* **convergence accounting** -- every ``fault-injected``/``fault-healed``
  event opens a *disruption*; subsequent table, session, LSP and
  up/down changes are attributed to the most recent disruption, giving
  per-disruption time-to-converge, table-transaction, reroute and flap
  counts (the paper's reconvergence story, measured globally).

The database mirrors the **control plane's** notion of state -- scalar
LDP's :class:`~repro.control.ldp.FECBinding` set, message LDP's
``FECState.advertised`` map, the RSVP-TE signaler's LSP table -- and
:meth:`TopologyObserver.verify` checks that mirror differentially
against the ground-truth objects at end of run.  The future PCE
consumes :class:`TopologyView` unchanged (the ROADMAP's "global CSPF
over the telemetry-fed topology view").
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import CallbackSink, Event
from repro.obs.telemetry import Telemetry, get_telemetry

#: Event kinds that never change the topology database.  Data-plane
#: kinds differ between scalar and batched runs; skipping them is what
#: makes the database mode-independent.
_IGNORED_KINDS = frozenset(
    {
        "packet-forwarded",
        "packet-dropped",
        "packet-delivered",
        "label-op",
        "hw-op",
        "fsm-transition",
        "info-base-programmed",
        "ib-scrub",
        "oam-probe",
        "alert-raised",
        "alert-cleared",
        "audit-completed",
        "control-shed",
        "fec-shed",
        "lsp-preempted",  # the lsp event stream carries preemptions too
        # controller lifecycle: the PCE consumes the view, it does not
        # feed it (its table writes are refresh-in-place and the
        # distributed control plane remains the source of truth)
        "controller-failover",
        "controller-readopt",
    }
)

#: Fault kinds that take a link out of service / degrade it / down a
#: node -- the ones whose inject/heal drive the derived link-state
#: model.  Everything else only enters the active-faults ledger.
_LINK_DOWN_FAULTS = frozenset({"link-down"})
_LINK_DEGRADE_FAULTS = frozenset({"link-loss", "link-corrupt"})
_NODE_DOWN_FAULTS = frozenset({"node-crash"})
_NODE_RESTART_FAULTS = frozenset({"node-restart"})


def _copy(value: Any) -> Any:
    """Deep copy via the JSON round trip -- the view holds only
    JSON-serializable plain data, and this keeps snapshots honest."""
    return json.loads(json.dumps(value))


class _ObserverSink(CallbackSink):
    """The observer's sink: ``hw-op`` is in :data:`_IGNORED_KINDS`, so
    a batch of hardware phases is dropped whole, not built and tested."""

    def write_phases(self, *batch: Any) -> None:
        pass


class TopologyView:
    """An immutable global network view at one instant.

    ``data`` is plain nested dicts (JSON-ready); the sections are

    * ``nodes`` -- name -> ``"up"`` / ``"restarting"`` / ``"down"``
    * ``links`` -- ``"a|b"`` -> ``"up"`` / ``"degraded"`` / ``"down"``
    * ``adjacencies`` -- directed ``"a>b"`` -> LDP session state
    * ``fecs`` -- fec id -> node -> ``{"label", "next_hop"}``
    * ``lsps`` -- LSP name -> ``{"state", "route"}``
    * ``frr`` -- protected-path name -> active path (primary/backup)
    * ``faults`` / ``attacks`` -- the active-incident ledgers
    * ``utilization`` -- directed ``"src>dst"`` -> busy fraction

    This is the read API the CLI renders and the future PCE consumes.
    """

    def __init__(self, time: float, data: Dict[str, Any]) -> None:
        self.time = time
        self.data = data

    # -- derived health ------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Deterministic per-object and overall health scores in [0, 1].

        Nodes: up 1.0, restarting 0.5, down 0.0.  Links: down 0.0,
        degraded 0.5, else 1.0 -- halved when utilization on either
        direction is at or above 0.95 (congestion pressure).  FECs:
        1.0 with distributed bindings, 0.5 when only one router holds
        state, 0.0 with none.  LSPs: up 1.0, down 0.0.
        """
        d = self.data
        nodes = {
            name: {"up": 1.0, "restarting": 0.5, "down": 0.0}[state]
            for name, state in d["nodes"].items()
        }
        links: Dict[str, float] = {}
        for key, state in d["links"].items():
            if state == "down":
                links[key] = 0.0
                continue
            score = 0.5 if state == "degraded" else 1.0
            a, b = key.split("|")
            busy = max(
                d["utilization"].get(f"{a}>{b}", 0.0),
                d["utilization"].get(f"{b}>{a}", 0.0),
            )
            if busy >= 0.95:
                score *= 0.5
            links[key] = score
        fecs = {
            fec_id: (1.0 if len(bindings) > 1 else 0.5 if bindings else 0.0)
            for fec_id, bindings in d["fecs"].items()
        }
        lsps = {
            name: (1.0 if entry["state"] == "up" else 0.0)
            for name, entry in d["lsps"].items()
        }
        scores = (
            list(nodes.values())
            + list(links.values())
            + list(fecs.values())
            + list(lsps.values())
        )
        overall = round(sum(scores) / len(scores), 9) if scores else 1.0
        return {
            "nodes": nodes,
            "links": links,
            "fecs": fecs,
            "lsps": lsps,
            "overall": overall,
        }

    # -- export --------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        out = _copy(self.data)
        out["time"] = round(self.time, 9)
        out["health"] = self.health()
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_dot(self) -> str:
        """The view as a Graphviz ``graph`` (byte-stable: everything is
        sorted, colors encode state, edge labels carry utilization)."""
        d = self.data
        node_color = {"up": "black", "restarting": "blue", "down": "red"}
        link_color = {"up": "black", "degraded": "orange", "down": "red"}
        lines = ["graph topology {"]
        for name in sorted(d["nodes"]):
            state = d["nodes"][name]
            lines.append(
                f'  "{name}" [label="{name}\\n({state})", '
                f"color={node_color[state]}];"
            )
        for key in sorted(d["links"]):
            a, b = key.split("|")
            state = d["links"][key]
            busy = max(
                d["utilization"].get(f"{a}>{b}", 0.0),
                d["utilization"].get(f"{b}>{a}", 0.0),
            )
            label = f', label="{busy * 100:.0f}%"' if busy else ""
            lines.append(
                f'  "{a}" -- "{b}" [color={link_color[state]}{label}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- comparison ----------------------------------------------------------
    def diff(self, other: "TopologyView") -> List[Dict[str, Any]]:
        """What changed between this view and ``other`` (self -> other):
        a sorted list of ``{"path", "before", "after"}`` leaf changes."""
        changes: List[Dict[str, Any]] = []

        def walk(path: str, before: Any, after: Any) -> None:
            if isinstance(before, dict) or isinstance(after, dict):
                b = before if isinstance(before, dict) else {}
                a = after if isinstance(after, dict) else {}
                for key in sorted(set(b) | set(a)):
                    walk(
                        f"{path}.{key}" if path else str(key),
                        b.get(key),
                        a.get(key),
                    )
                return
            if before != after:
                changes.append(
                    {"path": path, "before": before, "after": after}
                )

        walk("", self.data, other.data)
        return changes


class TopologyObserver:
    """Builds the link-state database from the telemetry event stream.

    Construct it over the scenario's :class:`~repro.net.topology.
    Topology` *before* the control plane, so the initial label
    distribution is captured, then :meth:`attach` it to the run's
    telemetry.  ``snapshot_every`` sets the full-snapshot cadence (one
    snapshot per N deltas) that bounds :meth:`at` replay cost.
    """

    def __init__(self, topology, snapshot_every: int = 64) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.snapshot_every = snapshot_every
        #: the topology as built -- faults mutate the live Topology
        #: object, so the initial node/link inventory is kept here
        self.node_names: List[str] = sorted(topology.nodes)
        self.link_pairs: List[Tuple[str, str]] = [
            tuple(sorted(pair)) for pair in sorted(topology.links)
        ]
        self._view: Dict[str, Any] = {
            "nodes": {name: "up" for name in self.node_names},
            "links": {self._link_key(a, b): "up" for a, b in self.link_pairs},
            "adjacencies": {},
            "fecs": {},
            "lsps": {},
            "frr": {},
            "faults": {},
            "attacks": {},
            "utilization": {},
        }
        self.version = 0
        self.deltas: List[Dict[str, Any]] = []
        self._delta_times: List[float] = []
        self.snapshots: List[Dict[str, Any]] = [
            {"version": 0, "time": 0.0, "view": _copy(self._view)}
        ]
        #: per-link active degradations (loss/corrupt faults overlap)
        self._degraded: Dict[str, int] = {}
        #: link keys held down by an active link-down fault
        self._link_down: set = set()
        #: disruption ledger: every applied fault inject/heal
        self.disruptions: List[Dict[str, Any]] = []
        #: (time, category, count) change journal for attribution
        self._changes: List[Tuple[float, str, int]] = []
        self._time = 0.0
        self._sink: Optional[CallbackSink] = None
        self._tel: Optional[Telemetry] = None
        #: filled by :meth:`finalize`
        self.verified: Optional[bool] = None
        self.mismatches: List[str] = []

    # -- wiring --------------------------------------------------------------
    def attach(self, telemetry: Optional[Telemetry] = None) -> "TopologyObserver":
        """Subscribe to the event stream and become ``tel.topo`` (the
        attachment point the gated withdraw emissions consult)."""
        tel = telemetry if telemetry is not None else get_telemetry()
        if self._sink is not None:
            raise RuntimeError("observer already attached")
        self._tel = tel
        self._sink = _ObserverSink(self.consume)
        tel.events.add_sink(self._sink)
        tel.topo = self
        return self

    def detach(self) -> None:
        if self._sink is None:
            return
        tel = self._tel
        try:
            tel.events.remove_sink(self._sink)
        except ValueError:
            pass  # a telemetry reset already dropped the event log
        if tel.topo is self:
            tel.topo = None
        self._sink = None

    # -- the view and its mutations ------------------------------------------
    @staticmethod
    def _link_key(a: str, b: str) -> str:
        return "|".join(sorted((a, b)))

    def live_view(self) -> TopologyView:
        """The current view (a copy: mutating it cannot corrupt the
        database)."""
        return TopologyView(self._time, _copy(self._view))

    def _get(self, path: Tuple[str, ...]) -> Any:
        node: Any = self._view
        for part in path:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        return node

    def _record(
        self,
        path: Tuple[str, ...],
        value: Any,
        category: Optional[str] = None,
        count: int = 1,
    ) -> None:
        """Set a leaf, journal the delta; no-op when nothing changes."""
        if self._get(path) == value:
            return
        node = self._view
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = _copy(value)
        self._journal(
            {"op": "set", "path": list(path), "value": _copy(value)},
            category,
            count,
        )

    def _remove(
        self,
        path: Tuple[str, ...],
        category: Optional[str] = None,
        count: int = 1,
    ) -> None:
        parent = self._get(path[:-1])
        if not isinstance(parent, dict) or path[-1] not in parent:
            return
        del parent[path[-1]]
        self._journal(
            {"op": "del", "path": list(path)}, category, count
        )

    def _journal(
        self, delta: Dict[str, Any], category: Optional[str], count: int
    ) -> None:
        self.version += 1
        delta["version"] = self.version
        delta["time"] = self._time
        self.deltas.append(delta)
        self._delta_times.append(self._time)
        if category is not None:
            self._changes.append((self._time, category, count))
        tel = self._tel
        if tel is not None:
            tel.topo_deltas.inc()
        if self.version % self.snapshot_every == 0:
            self.snapshots.append(
                {
                    "version": self.version,
                    "time": self._time,
                    "view": _copy(self._view),
                }
            )
            if tel is not None:
                tel.topo_snapshots.inc()

    @staticmethod
    def _apply(view: Dict[str, Any], delta: Dict[str, Any]) -> None:
        path = delta["path"]
        node = view
        if delta["op"] == "set":
            for part in path[:-1]:
                node = node.setdefault(part, {})
            node[path[-1]] = _copy(delta["value"])
        else:
            for part in path[:-1]:
                node = node.get(part)
                if node is None:
                    return
            node.pop(path[-1], None)

    # -- time travel ---------------------------------------------------------
    def at(self, t: float) -> TopologyView:
        """Reconstruct the view at time ``t`` from the nearest snapshot
        plus delta replay.  Replaying every delta reproduces the live
        view byte for byte -- the property ``repro topo at`` and the
        differential suite check."""
        idx = bisect_right(self._delta_times, t)
        snap = self.snapshots[0]
        for candidate in self.snapshots:
            if candidate["version"] <= idx:
                snap = candidate
            else:
                break
        view = _copy(snap["view"])
        for delta in self.deltas[snap["version"]: idx]:
            self._apply(view, delta)
        # clamp the stamp to the live clock so a query past the end of
        # the run serializes byte-identically to the live view
        return TopologyView(min(t, self._time), view)

    # -- event consumption ---------------------------------------------------
    def consume(self, event: Event) -> None:
        kind = event.kind
        if kind in _IGNORED_KINDS:
            return
        self._time = event.time if event.time is not None else self._time
        if kind == "fault-injected":
            self._on_fault_injected(event)
        elif kind == "fault-healed":
            self._on_fault_healed(event)
        elif kind == "ldp-session":
            self._record(
                ("adjacencies", f"{event.node}>{event.peer}"),
                event.state,
                category="session",
            )
        elif kind == "label-mapping-installed":
            self._record(
                ("fecs", event.fec_id, event.node),
                {"label": event.label, "next_hop": event.next_hop},
                category="table",
            )
        elif kind == "label-mapping-withdrawn":
            self._remove(
                ("fecs", event.fec_id, event.node), category="table"
            )
            if self._get(("fecs", event.fec_id)) == {}:
                self._remove(("fecs", event.fec_id))
        elif kind == "lsp":
            self._on_lsp(event)
        elif kind == "stale-flushed":
            # the hold-timer flush removes forwarding entries without
            # touching the control plane's binding state: no view
            # change, but the table transactions count toward the
            # disruption that caused them
            flushed = event.ilm_flushed + event.ftn_flushed
            if flushed:
                self._changes.append((self._time, "table", flushed))
        elif kind == "attack-detected":
            self._record(
                ("attacks", f"{event.attack}|{event.node}"), "detected"
            )
        elif kind == "attack-mitigated":
            self._record(
                ("attacks", f"{event.attack}|{event.node}"), "mitigated"
            )

    # -- fault state model ---------------------------------------------------
    def _split_link_target(self, label: str) -> Optional[Tuple[str, str]]:
        """Recover (a, b) from a fault label ``a-b`` -- node names
        contain hyphens, so split where both halves are known nodes."""
        parts = label.split("-")
        names = set(self.node_names)
        for i in range(1, len(parts)):
            a, b = "-".join(parts[:i]), "-".join(parts[i:])
            if a in names and b in names:
                return a, b
        return None

    def _refresh_link(self, a: str, b: str) -> None:
        """Re-derive one link's state from the active-fault model; the
        rule mirrors ``MPLSNetwork.link_is_up`` exactly."""
        key = self._link_key(a, b)
        if key not in self._view["links"]:
            return
        nodes = self._view["nodes"]
        if key in self._link_down or "down" in (nodes[a], nodes[b]):
            state = "down"
        elif self._degraded.get(key):
            state = "degraded"
        else:
            state = "up"
        self._record(("links", key), state, category="flap")

    def _refresh_links_of(self, name: str) -> None:
        for a, b in self.link_pairs:
            if name in (a, b):
                self._refresh_link(a, b)

    def _open_disruption(self, event: Event, phase: str) -> None:
        self.disruptions.append(
            {
                "kind": event.fault,
                "target": event.target,
                "phase": phase,
                "at": self._time,
            }
        )

    def _on_fault_injected(self, event: Event) -> None:
        fault, target = event.fault, event.target
        if fault in _LINK_DOWN_FAULTS or fault in _LINK_DEGRADE_FAULTS:
            pair = self._split_link_target(target)
            if pair is None:
                return
            key = self._link_key(*pair)
            if self._view["links"].get(key) == "down":
                return  # the injector skipped it too: link already down
            self._open_disruption(event, "inject")
            self._record(("faults", f"{fault}|{target}"), self._time)
            if fault in _LINK_DOWN_FAULTS:
                self._link_down.add(key)
            else:
                self._degraded[key] = self._degraded.get(key, 0) + 1
            self._refresh_link(*pair)
            return
        if fault in _NODE_DOWN_FAULTS or fault in _NODE_RESTART_FAULTS:
            name = target
            state = self._view["nodes"].get(name)
            if state is None:
                return
            if fault in _NODE_DOWN_FAULTS and state == "down":
                return  # injector skip: node already down
            if fault in _NODE_RESTART_FAULTS and state != "up":
                return  # injector skip: down or already restarting
            self._open_disruption(event, "inject")
            self._record(("faults", f"{fault}|{target}"), self._time)
            if fault in _NODE_DOWN_FAULTS:
                self._record(("nodes", name), "down", category="flap")
                self._refresh_links_of(name)
            else:
                # warm restart: control plane down, data plane forwards
                self._record(("nodes", name), "restarting", category="flap")
            return
        # session drops, bit flips, storms, attacks: no derived
        # topology state, but they are disruptions and active incidents
        self._open_disruption(event, "inject")
        self._record(("faults", f"{fault}|{target}"), self._time)

    def _on_fault_healed(self, event: Event) -> None:
        fault, target = event.fault, event.target
        self._open_disruption(event, "heal")
        self._remove(("faults", f"{fault}|{target}"))
        if fault in _LINK_DOWN_FAULTS or fault in _LINK_DEGRADE_FAULTS:
            pair = self._split_link_target(target)
            if pair is None:
                return
            key = self._link_key(*pair)
            if fault in _LINK_DOWN_FAULTS:
                self._link_down.discard(key)
            elif self._degraded.get(key):
                self._degraded[key] -= 1
            self._refresh_link(*pair)
        elif fault in _NODE_DOWN_FAULTS:
            self._record(("nodes", target), "up", category="flap")
            self._refresh_links_of(target)
        elif fault in _NODE_RESTART_FAULTS:
            self._record(("nodes", target), "up", category="flap")

    def _on_lsp(self, event: Event) -> None:
        name, what = event.name, event.event
        if what == "setup":
            route = event.detail.split(" @ ")[0]
            self._record(
                ("lsps", name),
                {"state": "up", "route": route},
                category="lsp",
            )
        elif what in ("teardown", "expired", "preempt-teardown"):
            entry = self._get(("lsps", name)) or {"route": ""}
            self._record(
                ("lsps", name),
                {"state": "down", "route": entry.get("route", "")},
                category="lsp",
            )
        elif what == "preempt-reroute":
            self._record(
                ("lsps", name),
                {"state": "up", "route": event.detail},
                category="lsp",
            )
        elif what == "frr-switchover":
            active = event.detail.rsplit("now on ", 1)[-1]
            self._record(("frr", name), active, category="lsp")
        elif what == "frr-revert":
            self._record(("frr", name), "primary", category="lsp")

    # -- utilization (traffic-matrix collector hook) -------------------------
    def record_utilization(
        self, now: float, utilization: Dict[Tuple[str, str], float]
    ) -> None:
        """Called by :class:`~repro.obs.flows.MatrixCollector` after it
        publishes the per-link gauges; mirrors them into the view."""
        self._time = max(self._time, now)
        stale = set(self._view["utilization"])
        for (src, dst), value in sorted(utilization.items()):
            key = f"{src}>{dst}"
            stale.discard(key)
            self._record(("utilization", key), value)
        # a link that carried traffic last interval and none this one
        # keeps its gauge (Prometheus semantics); mirror that by
        # leaving stale keys in place

    # -- convergence accounting ----------------------------------------------
    def convergence(self) -> Dict[str, Any]:
        """Attribute every recorded change to the most recent
        disruption and derive per-disruption convergence statistics.
        Everything is integer counts and rounded sim times: the same
        run yields the same bytes."""
        disruptions = sorted(
            self.disruptions, key=lambda d: d["at"]
        )
        times = [d["at"] for d in disruptions]
        stats: List[Dict[str, Any]] = [
            {
                "kind": d["kind"],
                "target": d["target"],
                "phase": d["phase"],
                "at": round(d["at"], 9),
                "settled_at": None,
                "time_to_converge_s": None,
                "table_transactions": 0,
                "sessions_changed": 0,
                "lsps_changed": 0,
                "flaps": 0,
            }
            for d in disruptions
        ]
        initial = {
            "settled_at": None,
            "table_transactions": 0,
            "sessions_changed": 0,
            "lsps_changed": 0,
        }
        key_of = {
            "table": "table_transactions",
            "session": "sessions_changed",
            "lsp": "lsps_changed",
            "flap": "flaps",
        }
        for t, category, count in self._changes:
            idx = bisect_right(times, t) - 1
            if idx < 0:
                # before any disruption: the initial label distribution
                field = key_of[category]
                if field in initial:
                    initial[field] += count
                    initial["settled_at"] = round(t, 9)
                continue
            entry = stats[idx]
            entry[key_of[category]] += count
            entry["settled_at"] = round(t, 9)
            entry["time_to_converge_s"] = round(t - entry["at"], 9)
        return {
            "initial": initial,
            "disruptions": stats,
            "deltas": self.version,
            "snapshots": len(self.snapshots),
        }

    # -- differential verification -------------------------------------------
    def verify(
        self,
        network=None,
        ldp=None,
        message_ldp=None,
        frr=None,
        registry=None,
    ) -> List[str]:
        """Cross-check the observed database against the ground-truth
        objects; returns a sorted list of mismatch descriptions (empty
        means the mirror held)."""
        problems: List[str] = []
        view = self._view
        if network is not None:
            for a, b in self.link_pairs:
                key = self._link_key(a, b)
                observed_up = view["links"][key] != "down"
                actual_up = network.link_is_up(a, b)
                if observed_up != actual_up:
                    problems.append(
                        f"link {key}: observed "
                        f"{'up' if observed_up else 'down'}, network says "
                        f"{'up' if actual_up else 'down'}"
                    )
            for name in self.node_names:
                observed_down = view["nodes"][name] == "down"
                actual_down = name in network._down_nodes
                if observed_down != actual_down:
                    problems.append(
                        f"node {name}: observed "
                        f"{'down' if observed_down else 'up'}, network "
                        f"says {'down' if actual_down else 'up'}"
                    )
        if message_ldp is not None:
            for a, b in self.link_pairs:
                observed = (
                    view["adjacencies"].get(f"{a}>{b}") == "up"
                    and view["adjacencies"].get(f"{b}>{a}") == "up"
                )
                actual = (
                    b in message_ldp.speakers[a].sessions
                    and a in message_ldp.speakers[b].sessions
                )
                if observed != actual:
                    problems.append(
                        f"adjacency {a}<->{b}: observed "
                        f"{'up' if observed else 'down'}, speakers say "
                        f"{'up' if actual else 'down'}"
                    )
            for fec_id, state in message_ldp.fecs.items():
                observed_labels = {
                    node: entry["label"]
                    for node, entry in view["fecs"].get(fec_id, {}).items()
                }
                if observed_labels != dict(state.advertised):
                    problems.append(
                        f"fec {fec_id}: observed bindings "
                        f"{observed_labels} != advertised "
                        f"{dict(state.advertised)}"
                    )
            for fec_id in view["fecs"]:
                if fec_id not in message_ldp.fecs:
                    problems.append(f"fec {fec_id}: observed but unknown")
        if ldp is not None:
            expected: Dict[str, Dict[str, Any]] = {}
            for binding in ldp.bindings:
                expected[str(binding.fec)] = {
                    node: {
                        "label": label,
                        "next_hop": binding.next_hops.get(node),
                    }
                    for node, label in binding.labels.items()
                }
            if view["fecs"] != expected:
                for fec_id in sorted(set(view["fecs"]) | set(expected)):
                    if view["fecs"].get(fec_id) != expected.get(fec_id):
                        problems.append(
                            f"fec {fec_id}: observed "
                            f"{view['fecs'].get(fec_id)} != bindings "
                            f"{expected.get(fec_id)}"
                        )
        if frr is not None:
            observed_up = {
                name
                for name, entry in view["lsps"].items()
                if entry["state"] == "up"
            }
            actual_up = set(frr.signaler.lsps)
            if observed_up != actual_up:
                problems.append(
                    f"lsps up: observed {sorted(observed_up)} != "
                    f"signaled {sorted(actual_up)}"
                )
            observed_active = dict(view["frr"])
            actual_active = {
                name: p.active for name, p in frr.protected.items()
            }
            # a protected path that never switched over has no event;
            # absence means primary
            for name in actual_active:
                observed_active.setdefault(name, "primary")
            if observed_active != actual_active:
                problems.append(
                    f"frr active paths: observed {observed_active} != "
                    f"{actual_active}"
                )
        if registry is not None:
            family = registry.get("repro_link_utilization_ratio")
            if family is not None:
                actual_util = {
                    f"{src}>{dst}": child.value
                    for (src, dst), child in family.samples()
                }
                if view["utilization"] != actual_util:
                    problems.append(
                        f"utilization: observed {view['utilization']} != "
                        f"gauges {actual_util}"
                    )
        return sorted(problems)

    def finalize(self, run=None) -> None:
        """End of run: verify against ground truth (when the run's
        objects are supplied) and publish the health/convergence
        metric families."""
        if run is not None:
            self.mismatches = self.verify(
                network=run.network,
                ldp=run.ldp,
                message_ldp=run.message_ldp,
                frr=run.frr,
                registry=self._tel.registry if self._tel else None,
            )
            self.verified = not self.mismatches
        tel = self._tel
        if tel is not None:
            tel.topo_health.set(self.live_view().health()["overall"])
            for entry in self.convergence()["disruptions"]:
                if entry["time_to_converge_s"] is not None:
                    tel.topo_convergence.labels(entry["kind"]).observe(
                        entry["time_to_converge_s"]
                    )
