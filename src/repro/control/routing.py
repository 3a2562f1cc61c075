"""Link-state routing: the IGP beneath the MPLS control plane.

The paper lists OSPF among the protocols "typically used with MPLS to
determine the LSPs".  This module provides the piece every label
distribution scheme needs: a link-state database (a view of the
:class:`~repro.net.topology.Topology`) and Dijkstra shortest-path
first, yielding per-destination next hops and full paths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.topology import Topology, TopologyError


@dataclass(frozen=True)
class SPFResult:
    """Shortest-path tree from one source."""

    source: str
    #: destination -> total metric
    cost: Dict[str, float]
    #: destination -> full node path including source and destination
    paths: Dict[str, List[str]]

    def next_hop(self, destination: str) -> Optional[str]:
        """The first hop towards ``destination``; None if unreachable
        or the destination is the source itself."""
        path = self.paths.get(destination)
        if path is None or len(path) < 2:
            return None
        return path[1]

    def reachable(self, destination: str) -> bool:
        return destination in self.paths


class LinkStateDatabase:
    """A node's view of the network graph.

    In a real IGP the LSDB is flooded; here every node shares the one
    authoritative :class:`Topology`, which models a converged network.
    Link removals (failures) are visible to all nodes on the next SPF
    run -- re-convergence is instantaneous by construction, which is
    the right model for a paper whose scope starts *after* routing has
    converged.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: source -> result, valid for topology version ``_memo_version``
        self._memo: Dict[str, SPFResult] = {}
        self._memo_version = topology.version

    def spf(self, source: str) -> SPFResult:
        """The shortest-path tree from ``source`` over the link metrics.

        Computed once per source per topology version and shared by
        every caller until the topology changes: treat it as read-only.
        """
        if self._memo_version != self.topology.version:
            self._memo.clear()
            self._memo_version = self.topology.version
        result = self._memo.get(source)
        if result is None:
            result = self._memo[source] = self._dijkstra(source)
        return result

    def _dijkstra(self, source: str) -> SPFResult:
        topo = self.topology
        if not topo.has_node(source):
            raise TopologyError(f"unknown SPF source {source!r}")
        dist: Dict[str, float] = {source: 0.0}
        prev: Dict[str, str] = {}
        visited = set()
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            adjacent = topo.adjacent(node)
            for neighbor in sorted(adjacent):
                if neighbor in visited:
                    continue
                weight = adjacent[neighbor].metric
                if weight < 0:
                    raise TopologyError(
                        f"negative metric on {node}-{neighbor}"
                    )
                candidate = d + weight
                if candidate < dist.get(neighbor, float("inf")):
                    dist[neighbor] = candidate
                    prev[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        paths: Dict[str, List[str]] = {source: [source]}
        for node in dist:
            if node == source:
                continue
            path = [node]
            while path[-1] != source:
                path.append(prev[path[-1]])
            paths[node] = list(reversed(path))
        return SPFResult(source=source, cost=dist, paths=paths)
