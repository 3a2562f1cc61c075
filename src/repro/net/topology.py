"""Network topology: a graph of named nodes and weighted links.

The topology is the control plane's view of the network: node names,
adjacencies, link metrics and TE attributes (capacity, reservable
bandwidth).  Builders for the shapes used in tests and benchmarks are
provided, including :func:`paper_figure1`, the LER/LSR arrangement of
the paper's Figure 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple


class TopologyError(Exception):
    """Structural topology errors (unknown nodes, duplicate links...)."""


@dataclass
class LinkAttributes:
    """Control-plane attributes of one (bidirectional) adjacency."""

    metric: float = 1.0
    bandwidth_bps: float = 100e6
    delay_s: float = 1e-3
    #: TE: bandwidth not yet reserved by LSPs (both directions tracked
    #: separately, keyed by the upstream node name).
    reservable_bps: Dict[str, float] = field(default_factory=dict)

    def reservable(self, from_node: str) -> float:
        return self.reservable_bps.get(from_node, self.bandwidth_bps)

    def reserve(self, from_node: str, bps: float) -> None:
        available = self.reservable(from_node)
        if bps > available + 1e-9:
            raise TopologyError(
                f"cannot reserve {bps} bps from {from_node}: only "
                f"{available} available"
            )
        self.reservable_bps[from_node] = available - bps

    def release(self, from_node: str, bps: float) -> None:
        available = self.reservable(from_node)
        self.reservable_bps[from_node] = min(
            self.bandwidth_bps, available + bps
        )


class Topology:
    """An undirected multigraph-free graph of nodes and links.

    ``version`` moves on every structural or metric change, so a reader
    (the SPF memo in :mod:`repro.control.routing`) can tell a stale
    result from a current one.  Metrics therefore change only through
    :meth:`set_metric`, never by assigning ``LinkAttributes.metric``.
    """

    def __init__(self) -> None:
        #: node -> {neighbour: attrs}; both directions share one attrs
        self._adj: Dict[str, Dict[str, LinkAttributes]] = {}
        self._links: Dict[Tuple[str, str], LinkAttributes] = {}
        self.version = 0

    # -- construction -------------------------------------------------------
    def add_node(self, name: str) -> None:
        if name in self._adj:
            raise TopologyError(f"node {name!r} already exists")
        self._adj[name] = {}
        self.version += 1

    def add_link(
        self,
        a: str,
        b: str,
        metric: float = 1.0,
        bandwidth_bps: float = 100e6,
        delay_s: float = 1e-3,
    ) -> LinkAttributes:
        attrs = LinkAttributes(
            metric=self._checked_metric(a, b, metric),
            bandwidth_bps=bandwidth_bps,
            delay_s=delay_s,
        )
        self.restore_link(a, b, attrs)
        return attrs

    def remove_link(self, a: str, b: str) -> None:
        key = self._key(a, b)
        if key not in self._links:
            raise TopologyError(f"no link {a!r}-{b!r}")
        del self._links[key]
        del self._adj[a][b]
        del self._adj[b][a]
        self.version += 1

    def restore_link(self, a: str, b: str, attrs: LinkAttributes) -> None:
        """Re-insert a previously removed adjacency with its saved
        attributes (TE reservations included) -- the heal half of a
        link-failure fault."""
        if a not in self._adj:
            raise TopologyError(f"unknown node {a!r}")
        if b not in self._adj:
            raise TopologyError(f"unknown node {b!r}")
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        key = self._key(a, b)
        if key in self._links:
            raise TopologyError(f"link {a!r}-{b!r} already exists")
        self._links[key] = self._adj[a][b] = self._adj[b][a] = attrs
        self.version += 1

    def set_metric(self, a: str, b: str, metric: float) -> None:
        """Change a link's IGP metric (the only way a metric may move:
        it is what lets ``version`` vouch for memoised SPF results)."""
        self.link(a, b).metric = self._checked_metric(a, b, metric)
        self.version += 1

    @staticmethod
    def _checked_metric(a: str, b: str, metric: float) -> float:
        if not (math.isfinite(metric) and metric >= 0):
            raise TopologyError(
                f"metric on link {a!r}-{b!r} must be finite and >= 0, "
                f"got {metric!r}"
            )
        return metric

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- queries --------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        return sorted(self._adj)

    @property
    def links(self) -> List[Tuple[str, str]]:
        return sorted(self._links)

    def has_node(self, name: str) -> bool:
        return name in self._adj

    def has_link(self, a: str, b: str) -> bool:
        return self._key(a, b) in self._links

    def link(self, a: str, b: str) -> LinkAttributes:
        try:
            return self._links[self._key(a, b)]
        except KeyError:
            raise TopologyError(f"no link {a!r}-{b!r}") from None

    def adjacent(self, node: str) -> Dict[str, LinkAttributes]:
        """``node``'s live adjacencies, neighbour -> attributes (the
        index itself: read it, do not write it)."""
        try:
            return self._adj[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def neighbors(self, node: str) -> List[str]:
        return sorted(self.adjacent(node))

    def edges_with_attrs(
        self,
    ) -> Iterator[Tuple[str, str, LinkAttributes]]:
        for (a, b), attrs in sorted(self._links.items()):
            yield a, b, attrs


# -- builders ---------------------------------------------------------------

def line(n: int, **link_kwargs) -> Topology:
    """n nodes in a chain: n0 - n1 - ... - n(n-1)."""
    topo = Topology()
    for i in range(n):
        topo.add_node(f"n{i}")
    for i in range(n - 1):
        topo.add_link(f"n{i}", f"n{i+1}", **link_kwargs)
    return topo


def ring(n: int, **link_kwargs) -> Topology:
    """n nodes in a cycle: n0 - ... - n(n-1) - n0."""
    if n < 3:
        raise TopologyError("a ring needs at least 3 nodes")
    topo = line(n, **link_kwargs)
    topo.add_link(f"n{n-1}", "n0", **link_kwargs)
    return topo


def paper_figure1(**link_kwargs) -> Topology:
    """The network of the paper's Figure 1.

    Two LERs bordering layer-2 networks, connected through a small core
    of LSRs: LER-A and LER-B at the edges, three LSRs forming the MPLS
    core with a redundant path, which is the minimum shape on which
    tunnels and alternate LSPs can both be demonstrated.
    """
    topo = Topology()
    for name in ("ler-a", "ler-b", "lsr-1", "lsr-2", "lsr-3"):
        topo.add_node(name)
    topo.add_link("ler-a", "lsr-1", **link_kwargs)
    topo.add_link("lsr-1", "lsr-2", **link_kwargs)
    topo.add_link("lsr-2", "ler-b", **link_kwargs)
    topo.add_link("lsr-1", "lsr-3", **link_kwargs)
    topo.add_link("lsr-3", "ler-b", **link_kwargs)
    return topo
