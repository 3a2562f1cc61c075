"""Packet tracing: record a packet's journey hop by hop.

The tracer is a thin view over the span layer: it attaches a
:class:`~repro.obs.spans.SpanRecorder` (sampling everything) to the
process-wide event log and projects each packet's hop spans down to
the flat :class:`PacketTrace` / :class:`HopRecord` shape -- the
per-packet view of the paper's Figure 2 ("MPLS packet exchange") for
any traffic the simulation carries, without wrapping or
monkey-patching any node.  Consumers that want the full tree (hardware
phases, RTL sub-spans, fault annotations) read
:attr:`NetworkTracer.recorder` directly.

Constructing a tracer enables the network's
:class:`~repro.obs.telemetry.Telemetry` (the data plane emits nothing
otherwise); :meth:`NetworkTracer.detach` restores the previous state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mpls.forwarding import Action
from repro.net.network import MPLSNetwork
from repro.obs.spans import KIND_HOP, SpanRecorder, Trace
from repro.obs.telemetry import Telemetry


@dataclass(frozen=True)
class HopRecord:
    """One node's handling of one packet."""

    time: float
    node: str
    stack_in: Tuple[int, ...]
    ttl_in: int
    action: Action
    stack_out: Tuple[int, ...]
    reason: Optional[str]


@dataclass
class PacketTrace:
    """The full journey of one packet (keyed by its uid)."""

    uid: int
    flow_id: int
    hops: List[HopRecord] = field(default_factory=list)

    @property
    def path(self) -> List[str]:
        return [hop.node for hop in self.hops]

    @property
    def delivered(self) -> bool:
        return bool(self.hops) and self.hops[-1].action is Action.FORWARD_IP

    @property
    def dropped(self) -> bool:
        return any(hop.action is Action.DISCARD for hop in self.hops)

    def label_journey(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """(node, outgoing label stack) along the path -- the Figure 2
        view of label evolution."""
        return [(hop.node, hop.stack_out) for hop in self.hops]

    def render(self) -> str:
        lines = [f"packet uid={self.uid} flow={self.flow_id}:"]
        for hop in self.hops:
            stack_in = list(hop.stack_in) or "unlabelled"
            stack_out = list(hop.stack_out) or "unlabelled"
            outcome = hop.action.value
            if hop.reason:
                outcome += f" ({hop.reason})"
            lines.append(
                f"  t={hop.time * 1e3:8.3f}ms {hop.node:10s} "
                f"in={stack_in!s:>16} out={stack_out!s:>16} {outcome}"
            )
        return "\n".join(lines)


def _project(trace: Trace) -> PacketTrace:
    """Flatten one span tree to the hop-record view."""
    out = PacketTrace(uid=trace.uid, flow_id=trace.flow_id)
    for span in trace.spans:
        if span.kind != KIND_HOP:
            continue
        attrs = span.attributes
        out.hops.append(
            HopRecord(
                time=span.start,
                node=attrs["node"],
                stack_in=tuple(attrs.get("labels_in", ())),
                ttl_in=attrs.get("ttl_in", 0),
                action=Action(attrs["action"]),
                stack_out=tuple(attrs.get("labels_out", ())),
                reason=attrs.get("reason"),
            )
        )
    return out


class NetworkTracer:
    """Records every packet's journey through a network.

    Construct *after* the network; traces accumulate as the simulation
    emits packet events.  Only events for nodes that belong to
    ``network`` are folded in, so concurrent networks sharing one
    telemetry do not pollute each other's traces.
    """

    def __init__(
        self, network: MPLSNetwork, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.network = network
        self.telemetry = telemetry if telemetry is not None else network.telemetry
        self.recorder = SpanRecorder(
            sample_rate=1.0,
            nodes=set(network.nodes),
            telemetry=self.telemetry,
        )

    @property
    def traces(self) -> Dict[int, PacketTrace]:
        return {
            trace.uid: _project(trace)
            for trace in self.recorder.traces(include_probes=True)
        }

    def detach(self) -> None:
        """Stop tracing and restore the telemetry switch."""
        self.recorder.detach()

    # -- queries --------------------------------------------------------
    def trace_of(self, uid: int) -> PacketTrace:
        return _project(self.recorder.trace_of(uid))

    def traces_for_flow(self, flow_id: int) -> List[PacketTrace]:
        return [
            _project(t)
            for t in self.recorder.traces(flow=flow_id)
        ]

    def dropped_traces(self) -> List[PacketTrace]:
        return [
            t for t in self.traces.values() if t.dropped
        ]
