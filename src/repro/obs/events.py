"""The structured event log: typed records over pluggable sinks.

Every notable state change in the reproduction -- a packet forwarded or
dropped, a label operation applied, an LDP session coming up, a
hardware FSM transition, an information base being (re)programmed --
is emitted as a typed event record.  Producers call
:meth:`EventLog.emit`; consumers attach sinks:

* :class:`ListSink` -- in-memory, for tests and the tracer,
* :class:`JSONLSink` -- one JSON object per line, the trace-file format
  of ``python -m repro trace``,
* :class:`CallbackSink` -- arbitrary function, used by
  :class:`repro.analysis.tracer.NetworkTracer`.

Events are stamped with the emitting layer's notion of time: the
:class:`EventLog` holds a ``clock`` callable (the network simulator
installs its event-scheduler clock); an event whose ``time`` is already
set keeps it.

Because the hardware layer counts RTL clock cycles while the network
layer counts event-scheduler seconds, every event class declares its
``clock_domain`` (``"sim"`` seconds or ``"cycles"``), and the JSONL
schema carries it explicitly from version 2 on.  :func:`read_jsonl`
reads both schema versions, back-filling the domain for v1 lines.
"""

from __future__ import annotations

import collections
import json
from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TextIO,
    Tuple,
)

#: The JSONL trace-file schema version written by :class:`JSONLSink`.
#: v1 had no ``v`` or ``clock_domain`` keys and stamped hardware events
#: with raw cycle counts in ``time``; v2 makes the domain explicit.
JSONL_SCHEMA_VERSION = 2

#: Clock-domain names: event-scheduler seconds vs RTL clock cycles.
CLOCK_SIM = "sim"
CLOCK_CYCLES = "cycles"

#: v1 event kinds whose ``time`` was an RTL cycle count, used by
#: :func:`read_jsonl` to back-fill ``clock_domain`` for old files.
_V1_CYCLE_KINDS = frozenset({"fsm-transition"})


@dataclass
class Event:
    """Base record; concrete event types subclass and set ``kind``."""

    kind: ClassVar[str] = "event"
    #: Which clock ``time`` is measured on: :data:`CLOCK_SIM` seconds
    #: (the event scheduler) or :data:`CLOCK_CYCLES` (RTL clock edges).
    clock_domain: ClassVar[str] = CLOCK_SIM
    #: Time on the clock named by ``clock_domain`` (stamped by the log
    #: for sim-domain events without an explicit value).
    time: Optional[float] = field(default=None, init=False)

    def as_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["kind"] = self.kind
        out["time"] = self.time
        out["clock_domain"] = self.clock_domain
        return out


# -- data plane --------------------------------------------------------------
@dataclass
class PacketForwarded(Event):
    """One packet processed by one node, leaving it alive."""

    kind: ClassVar[str] = "packet-forwarded"
    node: str = ""
    uid: int = 0
    flow_id: int = 0
    #: "forward-mpls" / "forward-ip" / "deliver-local"
    action: str = ""
    labels_in: Tuple[int, ...] = ()
    labels_out: Tuple[int, ...] = ()
    ttl_in: int = 0
    next_hop: Optional[str] = None


@dataclass
class PacketDropped(Event):
    """One packet discarded, with the reason."""

    kind: ClassVar[str] = "packet-dropped"
    node: str = ""
    uid: int = 0
    flow_id: int = 0
    reason: str = ""
    labels_in: Tuple[int, ...] = ()
    ttl_in: int = 0


@dataclass
class PacketDelivered(Event):
    """One packet that reached its attached host at an egress LER."""

    kind: ClassVar[str] = "packet-delivered"
    node: str = ""
    uid: int = 0
    flow_id: int = 0
    #: End-to-end latency in simulated seconds.
    latency: float = 0.0


@dataclass
class LabelOpApplied(Event):
    """One elementary label-stack operation on the data plane."""

    kind: ClassVar[str] = "label-op"
    node: str = ""
    op: str = ""  # push / pop / swap
    label_in: Optional[int] = None
    label_out: Optional[int] = None


# -- control plane -----------------------------------------------------------
@dataclass
class SessionStateChange(Event):
    """An LDP session transitioned (discovery, up, down)."""

    kind: ClassVar[str] = "ldp-session"
    node: str = ""
    peer: str = ""
    state: str = ""  # "up" / "down"


@dataclass
class LabelMappingInstalled(Event):
    """A node installed forwarding state for a FEC (ordered control)."""

    kind: ClassVar[str] = "label-mapping-installed"
    node: str = ""
    fec_id: str = ""
    label: int = 0
    next_hop: Optional[str] = None


@dataclass
class LabelMappingWithdrawn(Event):
    """A node withdrew forwarding state for a FEC (the inverse of
    :class:`LabelMappingInstalled`).  Emitted only while a
    :class:`~repro.obs.topo.TopologyObserver` is attached -- the
    topology database needs the negative edge of the binding
    lifecycle, and gating it keeps pre-existing event-count reports
    byte-identical."""

    kind: ClassVar[str] = "label-mapping-withdrawn"
    node: str = ""
    fec_id: str = ""
    label: int = 0


@dataclass
class LSPEvent(Event):
    """An RSVP-TE LSP lifecycle event (signalled, torn down, expired,
    FRR switchover/revert)."""

    kind: ClassVar[str] = "lsp"
    name: str = ""
    event: str = ""
    detail: str = ""


# -- fault injection ---------------------------------------------------------
@dataclass
class FaultInjected(Event):
    """A fault entered the system (from :mod:`repro.faults`)."""

    kind: ClassVar[str] = "fault-injected"
    fault: str = ""  # the FaultKind value, e.g. "link-down"
    target: str = ""
    detail: str = ""


@dataclass
class FaultHealed(Event):
    """A previously injected fault was cleared; ``downtime`` is the
    injected-to-healed interval in simulated seconds."""

    kind: ClassVar[str] = "fault-healed"
    fault: str = ""
    target: str = ""
    downtime: float = 0.0
    detail: str = ""


@dataclass
class AuditCompleted(Event):
    """One consistency-audit pass: control-plane tables cross-checked
    against the hardware information bases."""

    kind: ClassVar[str] = "audit-completed"
    nodes_checked: int = 0
    drift_nodes: Tuple[str, ...] = ()
    repaired: int = 0
    watchdog_alarms: Tuple[str, ...] = ()


@dataclass
class StaleEntriesFlushed(Event):
    """The forwarding-state holding timer expired: entries never
    refreshed since the graceful restart began were removed."""

    kind: ClassVar[str] = "stale-flushed"
    node: str = ""
    ilm_flushed: int = 0
    ftn_flushed: int = 0


# -- control-plane overload protection ---------------------------------------
@dataclass
class ControlMessageShed(Event):
    """A bounded control queue lost a message (shed, evicted, or tail
    dropped) at ``node``."""

    kind: ClassVar[str] = "control-shed"
    node: str = ""
    msg_class: str = ""  # liveness / teardown / setup
    cause: str = ""  # watermark-shed / evicted / queue-full


@dataclass
class FECShed(Event):
    """Ingress load shedding changed a FEC's admission state."""

    kind: ClassVar[str] = "fec-shed"
    node: str = ""
    fec: str = ""
    cos: int = 0
    state: str = ""  # shed / restored


@dataclass
class InfoBaseScrubbed(Event):
    """A VERIFY_INFO-style scrub pass walked a node's information base
    and repaired any corrupted pairs in place."""

    kind: ClassVar[str] = "ib-scrub"
    node: str = ""
    checked: int = 0
    corrupted: int = 0
    repaired: int = 0
    cycles: int = 0


# -- centralized controller ---------------------------------------------------
@dataclass
class ControllerFailover(Event):
    """A node's hold timer expired without hearing the PCE controller:
    it fell back to distributed control (``delegated``) or was left
    orphaned with stale-marked tables."""

    kind: ClassVar[str] = "controller-failover"
    node: str = ""
    reason: str = ""  # "crash" / "partition"
    delegated: bool = False
    #: controller-programmed entries stale-marked at fallback
    orphaned_fecs: int = 0
    #: cause-to-detection latency (the failover headline number)
    detect_s: float = 0.0


@dataclass
class ControllerReadopt(Event):
    """The controller re-adopted a node after a crash restart or a
    partition heal: one atomic resync transaction reconciled intended
    vs. actual table state."""

    kind: ClassVar[str] = "controller-readopt"
    node: str = ""
    reason: str = ""  # "crash" / "partition" / "adopt"
    #: entries rewritten by the resync transaction
    rewrites: int = 0
    #: service-restorable (restart/heal) to re-adoption latency
    restore_s: float = 0.0


# -- adversarial security -----------------------------------------------------
@dataclass
class AttackDetected(Event):
    """The security monitor recognized an injected attack (first
    detection only; per-occurrence counts live in the metric
    families)."""

    kind: ClassVar[str] = "attack-detected"
    attack: str = ""  # the FaultKind value, e.g. "label-spoof"
    node: str = ""
    detail: str = ""


@dataclass
class AttackMitigated(Event):
    """A guard neutralized an injected attack (first mitigation only)."""

    kind: ClassVar[str] = "attack-mitigated"
    attack: str = ""
    node: str = ""
    #: guard-reject / auth-reject / quarantine / rate-limit
    action: str = ""
    detail: str = ""


# -- alerting ----------------------------------------------------------------
@dataclass
class AlertRaised(Event):
    """An alert rule crossed its raise threshold for one subject."""

    kind: ClassVar[str] = "alert-raised"
    rule: str = ""
    #: What the rule fired on (a link "a->b", a FEC, a node, ...).
    subject: str = ""
    #: The observed signal value that crossed the threshold.
    value: float = 0.0
    threshold: float = 0.0


@dataclass
class AlertCleared(Event):
    """A firing alert dropped below its clear threshold (hysteresis)."""

    kind: ClassVar[str] = "alert-cleared"
    rule: str = ""
    subject: str = ""
    value: float = 0.0
    clear: float = 0.0
    #: Seconds the alert spent firing.
    duration: float = 0.0


# -- OAM ---------------------------------------------------------------------
@dataclass
class OAMProbeCompleted(Event):
    """One LSP-ping probe from the OAM monitor concluded."""

    kind: ClassVar[str] = "oam-probe"
    fec: str = ""
    ingress: str = ""
    uid: int = 0
    reached: bool = False
    #: Round-trip (injection-to-delivery) seconds; None when lost.
    rtt: Optional[float] = None
    #: True when the probe exceeded the configured SLO RTT.
    breach: bool = False


# -- embedded hardware -------------------------------------------------------
@dataclass
class FSMTransition(Event):
    """A control-unit state machine changed state at a clock edge.

    ``time`` carries the RTL cycle number (the ``cycle`` field), not
    scheduler seconds: this event lives in the cycles clock domain.
    """

    kind: ClassVar[str] = "fsm-transition"
    clock_domain: ClassVar[str] = CLOCK_CYCLES
    fsm: str = ""
    src: str = ""
    dst: str = ""
    cycle: int = 0


@dataclass
class HWOpExecuted(Event):
    """One hardware data-plane phase executed for one packet.

    Cycle counts are offsets from the start of this packet's hardware
    processing; ``anchor_time`` and ``clock_hz`` publish the cycle-to-
    scheduler-time mapping (``t = anchor_time + cycle / clock_hz``), so
    span consumers can place RTL work on the simulation timeline.
    ``time`` carries ``cycle_start`` (cycles domain).
    """

    kind: ClassVar[str] = "hw-op"
    clock_domain: ClassVar[str] = CLOCK_CYCLES
    node: str = ""
    uid: int = 0
    flow_id: int = 0
    #: "stack-load" / "update" / "stack-drain" / "search" / "modify" ...
    phase: str = ""
    #: The enclosing phase for nested FSM work (e.g. "update"), or None.
    parent_phase: Optional[str] = None
    cycle_start: int = 0
    cycle_end: int = 0
    #: Scheduler seconds corresponding to cycle 0 of this packet.
    anchor_time: float = 0.0
    #: The hardware clock rate used for the cycle-to-time mapping.
    clock_hz: float = 0.0


@dataclass
class InfoBaseProgrammed(Event):
    """The hardware information base was (re)programmed."""

    kind: ClassVar[str] = "info-base-programmed"
    node: str = ""
    entries: int = 0
    cycles: int = 0
    reason: str = ""


# -- sinks -------------------------------------------------------------------
class ListSink:
    """Accumulates events in order; ``events`` is the record."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def write(self, event: Event) -> None:
        self.events.append(event)

    def kind_counts(self) -> Dict[str, int]:
        """Events seen per kind, sorted by kind."""
        return dict(sorted(collections.Counter(e.kind for e in self.events).items()))

    def __len__(self) -> int:
        return len(self.events)


class KindCountSink:
    """Counts events by kind as they pass and retains none of them --
    what a run attaches when its report reads only the tally."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def write(self, event: Event) -> None:
        counts, kind = self._counts, event.kind
        counts[kind] = counts.get(kind, 0) + 1

    def write_phases(self, node, uid, flow_id, anchor_time, clock_hz, phases):
        counts, kind = self._counts, HWOpExecuted.kind
        counts[kind] = counts.get(kind, 0) + len(phases)

    def kind_counts(self) -> Dict[str, int]:
        """Events seen per kind, sorted by kind."""
        return dict(sorted(self._counts.items()))


class CallbackSink:
    """Forwards every event to a function."""

    def __init__(self, fn: Callable[[Event], None]) -> None:
        self.fn = fn

    def write(self, event: Event) -> None:
        self.fn(event)


class JSONLSink:
    """Writes one JSON object per event line to a text stream.

    Lines carry the schema version (``"v"``) and the event's
    ``clock_domain`` so mixed sim-seconds/RTL-cycles streams are
    unambiguous; :func:`read_jsonl` reads v1 and v2 files alike.
    """

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream

    def write(self, event: Event) -> None:
        record = event.as_dict()
        record["v"] = JSONL_SCHEMA_VERSION
        self.stream.write(json.dumps(record, sort_keys=True))
        self.stream.write("\n")

    def flush(self) -> None:
        self.stream.flush()


class FilterSink:
    """Forwards only events matching the given predicates to an inner
    sink -- the streaming filter behind ``repro trace --flow/--node``.

    ``flows``/``nodes`` are allow-lists (None means "any"); events
    without the corresponding attribute pass a None filter only.
    """

    def __init__(
        self,
        inner: Any,
        flows: Optional[Iterable[int]] = None,
        nodes: Optional[Iterable[str]] = None,
    ) -> None:
        self.inner = inner
        self.flows = frozenset(flows) if flows is not None else None
        self.nodes = frozenset(nodes) if nodes is not None else None
        self.passed = 0
        self.filtered = 0

    def _matches(self, event: Event) -> bool:
        if self.flows is not None:
            if getattr(event, "flow_id", None) not in self.flows:
                return False
        if self.nodes is not None:
            if getattr(event, "node", None) not in self.nodes:
                return False
        return True

    def write(self, event: Event) -> None:
        if self._matches(event):
            self.passed += 1
            self.inner.write(event)
        else:
            self.filtered += 1

    def flush(self) -> None:
        flush = getattr(self.inner, "flush", None)
        if flush is not None:
            flush()


class TraceLineError(ValueError):
    """A line of a JSONL trace that no schema version can mean."""

    def __init__(self, line: int, why: str) -> None:
        super().__init__(f"line {line}: {why}")
        #: the 1-based line number in the stream
        self.line = line


def read_jsonl(stream: TextIO) -> Iterator[Dict[str, Any]]:
    """Parse a JSONL trace file written by any schema version.

    Yields one dict per event line with ``v`` and ``clock_domain``
    always present: v1 lines (no ``v`` key) are back-filled with
    ``v=1`` and the domain their kind implied at the time.  A line that
    is not JSON, not an object, or names a version other than 1 or 2
    raises :class:`TraceLineError` (a ValueError) naming its line.
    """
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceLineError(number, f"not JSON: {exc.msg}") from None
        if not isinstance(record, dict):
            raise TraceLineError(number, "not a JSON object")
        version = record.setdefault("v", 1)
        if type(version) is not int or version not in (1, 2):
            raise TraceLineError(
                number, f"unknown schema version {version!r} (reads 1, 2)"
            )
        if "clock_domain" not in record:
            record["clock_domain"] = (
                CLOCK_CYCLES
                if record.get("kind") in _V1_CYCLE_KINDS
                else CLOCK_SIM
            )
        yield record


class EventLog:
    """Fans emitted events out to the attached sinks, in order.

    A sink is anything with ``write(event)``.  One that also has
    ``write_phases(node, uid, flow_id, anchor_time, clock_hz, phases)``
    takes a packet-hop's hardware phases as the one list the node
    logged -- ``(phase, parent_phase, cycle_start, cycle_end)`` tuples
    -- instead of one :class:`HWOpExecuted` per phase.
    """

    def __init__(self) -> None:
        #: Stamp source for events without an explicit time (the
        #: network sets its scheduler's clock)
        self.clock: Optional[Callable[[], float]] = None
        self._sinks: List[Any] = []
        #: the sinks' bound ``write``s, rebuilt whenever ``_sinks``
        #: changes so :meth:`emit` resolves nothing per event
        self._writes: Tuple[Callable[[Event], None], ...] = ()
        #: the same split for :meth:`emit_phases`: bound
        #: ``write_phases`` of the sinks that take a batch, bound
        #: ``write`` of the ones that need the events built
        self._phase_writes: Tuple[Callable[..., None], ...] = ()
        self._event_writes: Tuple[Callable[[Event], None], ...] = ()
        self.emitted = 0

    def add_sink(self, sink: Any) -> Any:
        self._sinks.append(sink)
        self._bind()
        return sink

    def remove_sink(self, sink: Any) -> None:
        self._sinks.remove(sink)
        self._bind()

    def _bind(self) -> None:
        sinks = self._sinks
        self._writes = tuple(s.write for s in sinks)
        self._phase_writes = tuple(
            s.write_phases for s in sinks if hasattr(s, "write_phases")
        )
        self._event_writes = tuple(
            s.write for s in sinks if not hasattr(s, "write_phases")
        )

    def emit(self, event: Event) -> None:
        # the log's clock ticks in scheduler seconds; events living in
        # another clock domain must stamp their own time
        if (
            event.time is None
            and self.clock is not None
            and event.clock_domain == CLOCK_SIM
        ):
            event.time = self.clock()
        self.emitted += 1
        for write in self._writes:
            write(event)

    def emit_phases(
        self, node: str, uid: int, flow_id: int, anchor_time: float,
        clock_hz: float, phases: List[Tuple[str, Optional[str], int, int]],
    ) -> None:
        """The one way a hardware phase enters the log: counts as
        ``len(phases)`` events; batch sinks get the list as logged,
        every other sink the :class:`HWOpExecuted` stream it always
        got -- built once, in order, ``time`` = ``cycle_start``."""
        self.emitted += len(phases)
        for write_phases in self._phase_writes:
            write_phases(node, uid, flow_id, anchor_time, clock_hz, phases)
        writes = self._event_writes
        if writes:
            for phase, parent, cycle_start, cycle_end in phases:
                event = HWOpExecuted(
                    node, uid, flow_id, phase, parent,
                    cycle_start, cycle_end, anchor_time, clock_hz,
                )
                event.time = float(cycle_start)
                for write in writes:
                    write(event)
