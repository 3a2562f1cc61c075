"""Constraint-based shortest path first (traffic engineering).

The paper's Section 1 argues MPLS suits traffic engineering because it
supports "explicit path specification" and congestion avoidance.  CSPF
is how a head-end computes those explicit paths: run SPF over the
subgraph of links that satisfy the constraints (enough unreserved
bandwidth, matching administrative affinity), so a new LSP avoids links
that are already committed.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.net.topology import Topology


class CSPFError(Exception):
    """No path satisfies the constraints."""


def cspf_path(
    topology: Topology,
    source: str,
    destination: str,
    bandwidth_bps: float = 0.0,
    include_affinity: int = 0,
    exclude_affinity: int = 0,
    avoid_nodes: Optional[Set[str]] = None,
) -> List[str]:
    """The metric-shortest path whose links all satisfy the constraints.

    Parameters
    ----------
    bandwidth_bps:
        Every link on the path must have at least this much
        *unreserved* bandwidth in the travel direction.
    include_affinity:
        Bits that must all be set in a link's affinity.
    exclude_affinity:
        Bits that must all be clear.
    avoid_nodes:
        Nodes to prune (e.g. for computing a disjoint backup path).

    Raises :class:`CSPFError` when no such path exists.
    """
    avoid = avoid_nodes or set()
    if source in avoid or destination in avoid:
        raise CSPFError("source or destination is excluded")

    def usable(a: str, b: str) -> bool:
        attrs = topology.link(a, b)
        if attrs.reservable(a) + 1e-9 < bandwidth_bps:
            return False
        if (attrs.affinity & include_affinity) != include_affinity:
            return False
        if attrs.affinity & exclude_affinity:
            return False
        return True

    dist: Dict[str, float] = {source: 0.0}
    prev: Dict[str, str] = {}
    visited: Set[str] = set()
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == destination:
            break
        for neighbor in topology.neighbors(node):
            if neighbor in visited or neighbor in avoid:
                continue
            if not usable(node, neighbor):
                continue
            candidate = d + topology.link(node, neighbor).metric
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    if destination not in dist:
        raise CSPFError(
            f"no path {source} -> {destination} satisfies the constraints "
            f"(bw={bandwidth_bps:g} bps, include={include_affinity:#x}, "
            f"exclude={exclude_affinity:#x})"
        )
    path = [destination]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return list(reversed(path))


def cspf_over_view(
    view_data: Dict[str, object],
    source: str,
    destination: str,
    avoid_nodes: Optional[Set[str]] = None,
) -> List[str]:
    """Shortest path over an **observed** topology view.

    This is the PCE's planning input: ``view_data`` is the plain-dict
    payload of :class:`~repro.obs.topo.TopologyView` (``nodes`` ->
    state, ``links`` keyed ``"a|b"`` -> ``"up"``/``"degraded"``/
    ``"down"``).  Down links and down nodes are pruned; degraded links
    still forward.  Hop count is the metric (the view carries no
    per-link metrics), with sorted-neighbor tie-breaking so the same
    view always yields the same path.

    Raises :class:`CSPFError` when the view shows no usable path.
    """
    avoid = avoid_nodes or set()
    nodes: Dict[str, str] = dict(view_data.get("nodes", {}))  # type: ignore[arg-type]
    links: Dict[str, str] = dict(view_data.get("links", {}))  # type: ignore[arg-type]

    def node_up(name: str) -> bool:
        return nodes.get(name, "down") != "down" and name not in avoid

    if not node_up(source) or not node_up(destination):
        raise CSPFError(
            f"{source} -> {destination}: endpoint down in the view"
        )

    adjacency: Dict[str, List[str]] = {}
    for key, state in links.items():
        if state == "down":
            continue
        a, b = key.split("|")
        if not (node_up(a) and node_up(b)):
            continue
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    for neighbors in adjacency.values():
        neighbors.sort()

    dist: Dict[str, int] = {source: 0}
    prev: Dict[str, str] = {}
    visited: Set[str] = set()
    heap: List[Tuple[int, str]] = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == destination:
            break
        for neighbor in adjacency.get(node, ()):
            if neighbor in visited:
                continue
            candidate = d + 1
            if candidate < dist.get(neighbor, 1 << 30):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    if destination not in dist:
        raise CSPFError(
            f"no observed path {source} -> {destination} "
            "(the view shows the destination unreachable)"
        )
    path = [destination]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return list(reversed(path))
