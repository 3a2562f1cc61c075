"""Differential tests for the adjacency index and the SPF memo.

:class:`ScanTopology` answers ``neighbors`` the way the topology did
before it kept an adjacency index -- a walk over every link -- and
:func:`scan_spf` is Dijkstra run from scratch on every call, asking
``neighbors`` and ``link`` per edge.  They are the oracle; they exist
only here.  One indexed :class:`Topology` read through one long-lived
:class:`LinkStateDatabase` must agree with them after every step of a
random sequence of mutations and queries: equal values, equal neighbour
and dictionary order (tie-breaks included), and the same exception type
and message on every misuse.
"""

import heapq
from typing import Callable, Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.routing import LinkStateDatabase, SPFResult
from repro.net.topology import LinkAttributes, Topology, TopologyError


def link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class ScanTopology:
    """The node set and link map alone; every query walks the links."""

    def __init__(self) -> None:
        self._nodes: Set[str] = set()
        self._links: Dict[Tuple[str, str], LinkAttributes] = {}

    def add_node(self, name: str) -> None:
        if name in self._nodes:
            raise TopologyError(f"node {name!r} already exists")
        self._nodes.add(name)

    def add_link(self, a: str, b: str, metric: float) -> LinkAttributes:
        if a not in self._nodes:
            raise TopologyError(f"unknown node {a!r}")
        if b not in self._nodes:
            raise TopologyError(f"unknown node {b!r}")
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        key = link_key(a, b)
        if key in self._links:
            raise TopologyError(f"link {a!r}-{b!r} already exists")
        attrs = LinkAttributes(metric=metric)
        self._links[key] = attrs
        return attrs

    def remove_link(self, a: str, b: str) -> None:
        key = link_key(a, b)
        if key not in self._links:
            raise TopologyError(f"no link {a!r}-{b!r}")
        del self._links[key]

    def restore_link(self, a: str, b: str, attrs: LinkAttributes) -> None:
        if a not in self._nodes:
            raise TopologyError(f"unknown node {a!r}")
        if b not in self._nodes:
            raise TopologyError(f"unknown node {b!r}")
        key = link_key(a, b)
        if key in self._links:
            raise TopologyError(f"link {a!r}-{b!r} already exists")
        self._links[key] = attrs

    def set_metric(self, a: str, b: str, metric: float) -> None:
        self.link(a, b).metric = metric

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def has_link(self, a: str, b: str) -> bool:
        return link_key(a, b) in self._links

    def link(self, a: str, b: str) -> LinkAttributes:
        try:
            return self._links[link_key(a, b)]
        except KeyError:
            raise TopologyError(f"no link {a!r}-{b!r}") from None

    def neighbors(self, node: str) -> List[str]:
        if node not in self._nodes:
            raise TopologyError(f"unknown node {node!r}")
        out = []
        for a, b in self._links:
            if a == node:
                out.append(b)
            elif b == node:
                out.append(a)
        return sorted(out)


def scan_spf(topo: ScanTopology, source: str) -> SPFResult:
    """Dijkstra from scratch: nothing kept between calls."""
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
        for neighbor in topo.neighbors(node):
            if neighbor in visited:
                continue
            weight = topo.link(node, neighbor).metric
            if weight < 0:
                raise TopologyError(f"negative metric on {node}-{neighbor}")
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


def outcome(fn: Callable[[], object]) -> Tuple[str, object, str]:
    """What ``fn`` did: its value, or its exception's type and message."""
    try:
        return ("ok", fn(), "")
    except TopologyError as exc:
        return ("raised", type(exc), str(exc))


#: six names so that unknown nodes, duplicates and missing links all
#: come up; metrics from a small integer range so equal-cost paths do too
names = st.sampled_from(["a", "b", "c", "d", "e", "f"])
metrics = st.integers(0, 3)
ops = st.one_of(
    st.tuples(st.just("add_node"), names),
    st.tuples(st.just("add_link"), names, names, metrics),
    st.tuples(st.just("remove_link"), names, names),
    st.tuples(st.just("restore_link"), names, names),
    st.tuples(st.just("set_metric"), names, names, metrics),
    st.tuples(st.sampled_from(["neighbors", "spf"]), names),
    st.tuples(st.just("has_link"), names, names),
)


def spf_facts(result: SPFResult) -> Tuple[object, ...]:
    # items(), not the dicts: insertion order is part of the contract
    return (
        result.source, list(result.cost.items()), list(result.paths.items())
    )


@settings(max_examples=300, deadline=None)
@given(
    start=st.lists(names, unique=True, min_size=2),
    steps=st.lists(ops, max_size=40),
)
def test_indexed_topology_and_memoised_spf_match_the_scans(start, steps):
    new, old = Topology(), ScanTopology()
    for name in start:
        new.add_node(name)
        old.add_node(name)
    lsdb = LinkStateDatabase(new)
    #: attrs of removed links, per side, for restore_link to bring back
    removed: Dict[Tuple[str, str], Tuple[LinkAttributes, LinkAttributes]] = {}
    for op, *args in steps:
        if op == "spf":
            (source,) = args
            got = outcome(lambda: spf_facts(lsdb.spf(source)))
            want = outcome(lambda: spf_facts(scan_spf(old, source)))
        elif op == "remove_link":
            key = link_key(*args)
            if new.has_link(*args):
                removed[key] = (new.link(*args), old.link(*args))
            got = outcome(lambda: new.remove_link(*args))
            want = outcome(lambda: old.remove_link(*args))
        elif op == "restore_link":
            if args[0] == args[1] and new.has_node(args[0]):
                # the one deliberate difference: the scan accepted a
                # self-loop here that add_link always refused
                assert outcome(lambda: new.restore_link(*args, None)) == (
                    "raised", TopologyError, f"self-loop on {args[0]!r}"
                )
                continue
            key = link_key(*args)
            new_attrs, old_attrs = removed.get(
                key, (LinkAttributes(), LinkAttributes())
            )
            got = outcome(lambda: new.restore_link(*args, new_attrs))
            want = outcome(lambda: old.restore_link(*args, old_attrs))
            if got[0] == "ok":
                assert new.link(*args) is new_attrs
                assert new.adjacent(args[0])[args[1]] is new_attrs
                assert new.adjacent(args[1])[args[0]] is new_attrs
        elif op == "add_link":
            got = outcome(lambda: new.add_link(*args).metric)
            want = outcome(lambda: old.add_link(*args).metric)
        else:
            got = outcome(lambda: getattr(new, op)(*args))
            want = outcome(lambda: getattr(old, op)(*args))
        assert got == want, (op, args)
        assert new.nodes == sorted(old._nodes)
        assert new.links == sorted(old._links)
        assert [
            (a, b, attrs.metric) for a, b, attrs in new.edges_with_attrs()
        ] == [(a, b, old.link(a, b).metric) for a, b in sorted(old._links)]
