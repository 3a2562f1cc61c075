"""Network run summaries: link utilization and node counters.

Turns a finished :class:`~repro.net.network.MPLSNetwork` run into the
tables an operator would look at: per-link carried bytes/utilization
per direction, per-node forwarding counters, and the delivery/loss/
latency roll-up -- rendered with :mod:`repro.analysis.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import render_table
from repro.net.network import MPLSNetwork


@dataclass(frozen=True)
class LinkUsage:
    """One direction of one link over the observed window."""

    src: str
    dst: str
    packets: int
    bytes: int
    dropped: int
    utilization: float


def link_usage(network: MPLSNetwork, duration: float) -> List[LinkUsage]:
    """Per-direction link statistics over ``duration`` seconds."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    out = []
    for (a, b), link in sorted(network.links.items()):
        for channel in (link.forward, link.reverse):
            out.append(
                LinkUsage(
                    src=channel.src.node,
                    dst=channel.dst.node,
                    packets=channel.tx_packets,
                    bytes=channel.tx_bytes,
                    dropped=channel.dropped + getattr(
                        channel.queue, "dropped", 0
                    ),
                    utilization=(
                        channel.tx_bytes * 8 / duration
                    ) / channel.bandwidth_bps,
                )
            )
    return out


def render_link_usage(network: MPLSNetwork, duration: float) -> str:
    rows = [
        [f"{u.src} -> {u.dst}", u.packets, u.bytes,
         u.dropped, f"{u.utilization:.1%}"]
        for u in link_usage(network, duration)
    ]
    return render_table(
        ["direction", "packets", "bytes", "dropped", "utilization"],
        rows,
        title=f"Link usage over {duration:g} s",
    )


def render_node_counters(network: MPLSNetwork) -> str:
    rows = []
    for name in sorted(network.nodes):
        stats = network.nodes[name].stats
        rows.append(
            [name, stats.received, stats.forwarded_mpls,
             stats.forwarded_ip, stats.discarded]
        )
    return render_table(
        ["node", "received", "mpls out", "ip out", "discarded"],
        rows,
        title="Per-node forwarding counters",
    )
