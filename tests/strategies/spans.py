"""Event streams for the span recorder.

A stream is data, so it can be fed twice.  A step is a tuple whose
first item says what it is:

* ``("forwarded" | "dropped" | "delivered", uid, node, timed)`` -- a
  hop or a delivery, in any order per uid; ``timed`` False leaves the
  event's time unset (the recorder reads it as 0.0);
* ``("label-op", node)`` -- a software label op, pending at the node
  until its next hop;
* ``("batch", uid, node, phases, hz)`` -- one hop's hardware phases,
  each ``((phase, parent), cycle_start, cycles)``, through
  :meth:`~repro.obs.events.EventLog.emit_phases`;
* ``("single", uid, node, phase, hz)`` -- a lone ``HWOpExecuted``
  through ``emit`` (a third-party producer);
* ``("fault" | "heal", target)``, ``("probe", uid, breach)``;
* ``("read", uid)`` -- somebody builds one trace's spans mid-run --
  ``("peek",)`` -- or reads what needs no building -- and
  ``("finalize",)``, which more events may follow.

:data:`streams` draws a stream with the recorder's sample rate and
whether it filters nodes.
"""

from hypothesis import strategies as st

from repro.obs.events import (
    FaultHealed,
    FaultInjected,
    HWOpExecuted,
    LabelOpApplied,
    OAMProbeCompleted,
    PacketDelivered,
    PacketDropped,
    PacketForwarded,
)
from tests.strategies import chunks, picks

NODES = ("n0", "n1", "n2", "x9")  # x9 is outside the ``nodes`` filter
FILTER = NODES[:3]
#: sample_hash keeps 2 and 4 at rate 0.5; 8 rides an OAM probe flow
UIDS = (1, 2, 3, 4, 8)
#: a node, a link between filtered nodes, one reaching outside the filter
TARGETS = ("n1", "n0-n1", "n2-x9", "x9")
#: (phase, parent phase): well-formed nestings, a parent that never
#: ran ("scrub"), and a parent that is itself nested ("search")
PHASES = (
    ("stack-load", None),
    ("update", None),
    ("stack-drain", None),
    ("search", "update"),
    ("modify", "update"),
    ("modify", "scrub"),
    ("compare", "search"),
    ("update", "update"),
)
#: a clock, and two that are not one (read as 1 Hz)
HZ = (50e6, 0.0, -1.0)
#: forwarded twice as often as the other hops and batches twice as often
#: as the rest, as in a traced hardware run; reads twice as often too,
#: since what a read builds is what the next event must still find
KINDS = (
    "forwarded", "forwarded", "dropped", "delivered", "label-op",
    "batch", "batch", "single", "fault", "heal", "probe",
    "read", "read", "peek", "finalize",
)
SAMPLE_RATES = (1.0, 0.5, 0.0)


def flow_of(uid: int) -> int:
    # uid 8 rides an OAM probe flow (negative: kept out of the SLO)
    return -1000 if uid == 8 else uid % 3


#: a phase: which, its first cycle, its length
_PHASE = (len(PHASES), 41, 13)


def _steps(drawn_steps):
    """Steps from one draw each: what it is, whether it moves to a fresh
    uid and node (half the time it stays with the step before: a
    packet's events come together), a uid, a node, a flag (timed /
    breach), a fault target, a clock, and 1-5 phases."""
    out, uid, node = [], UIDS[0], NODES[0]
    for drawn in drawn_steps:
        kind, fresh, u, n, flag, target, hz, count = drawn[:8]
        what, hz = KINDS[kind], HZ[hz]
        if fresh:
            uid, node = UIDS[u], NODES[n]
        raw = [(PHASES[p], start, cycles) for p, start, cycles in chunks(drawn[8:], 3)]
        if what in ("forwarded", "dropped", "delivered"):
            out.append((what, uid, node, not flag))
        elif what == "label-op":
            out.append((what, node))
        elif what == "batch":
            out.append((what, uid, node, raw[:count + 1], hz))
        elif what == "single":
            out.append((what, uid, node, raw[0], hz))
        elif what in ("fault", "heal"):
            out.append((what, TARGETS[target]))
        elif what == "probe":
            out.append((what, uid, bool(flag)))
        elif what == "read":
            out.append((what, uid))
        else:
            out.append((what,))
    return out


#: a stream, the recorder's sample rate, whether it filters nodes
streams = (
    st.lists(picks(
        len(KINDS), 2, len(UIDS), len(NODES), 2, len(TARGETS), len(HZ), 5,
        *_PHASE * 5,
    ), min_size=6, max_size=60).map(_steps),
    st.sampled_from(SAMPLE_RATES),
    st.booleans(),
)


def phases_of(raw):
    """A batch's phases as the event log takes them."""
    return [
        (phase, parent, start, start + cycles)
        for (phase, parent), start, cycles in raw
    ]


def phase_events(node, uid, flow_id, anchor_time, clock_hz, phases):
    """One hop's phases as single events, as a producer without
    ``emit_phases`` would emit them."""
    for phase, parent, cycle_start, cycle_end in phases:
        event = HWOpExecuted(
            node, uid, flow_id, phase, parent,
            cycle_start, cycle_end, anchor_time, clock_hz,
        )
        event.time = float(cycle_start)
        yield event


def event_of(index: int, step):
    """The event an emitting step emits (not a batch), built
    afresh for each fold."""
    what = step[0]
    time = index * 1e-3
    if what in ("forwarded", "dropped", "delivered"):
        _, uid, node, timed = step
        flow_id = flow_of(uid)
        if what == "forwarded":
            event = PacketForwarded(
                node=node, uid=uid, flow_id=flow_id, action="forward-mpls",
                labels_in=(16, 3), labels_out=(17,), ttl_in=64,
                next_hop="n1",
            )
        elif what == "dropped":
            event = PacketDropped(
                node=node, uid=uid, flow_id=flow_id, reason=f"{node}: no ILM",
                labels_in=(16,), ttl_in=1,
            )
        else:
            event = PacketDelivered(
                node=node, uid=uid, flow_id=flow_id, latency=time
            )
        event.time = time if timed else None
        return event
    if what == "single":
        _, uid, node, raw, hz = step
        [event] = phase_events(node, uid, flow_of(uid), time, hz, phases_of([raw]))
        return event
    if what == "label-op":
        event = LabelOpApplied(node=step[1], op="swap", label_in=16, label_out=17)
    elif what == "fault":
        event = FaultInjected(fault="link-down", target=step[1], detail="cut")
    elif what == "heal":
        event = FaultHealed(fault="link-down", target=step[1], downtime=1e-3)
    else:
        _, uid, breach = step
        event = OAMProbeCompleted(
            fec="10.0.0.0/8", ingress="n0", uid=uid, reached=not breach,
            rtt=None if breach else time, breach=breach,
        )
    event.time = time
    return event
