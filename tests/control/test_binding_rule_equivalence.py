"""The forwarding state a label binding must leave, stated once.

:func:`must_hold` is the rule.  Given the label-switched paths a control
plane computed -- one FEC's paths towards one tail, each router's label
and next hop -- it states the ILM and FTN entries every LSR must hold:
the tail pops its label, a router with a next hop swaps its label for
the next hop's, and a head end steering the FEC pushes its next hop's
label.  An entry is a plain ``(op, out_label, next_hop, cos)`` tuple: the
rule shares no code with :mod:`repro.control` or with ``NHLFE``'s
construction.  The paths come from each protocol's own record, and
each kind of path is checked against what computed it:

* converged LDP -- a binding's next hops are a shortest-path tree over
  the current topology towards the egress, among the routers that hold
  a label; every edge router with a next hop steers the FEC;
* RSVP-TE and CR-LDP -- an LSP is one simple path from head to tail;
  a head steers a FEC onto the LSP that steered it last (one set up
  with it, a protected path's primary, the active LSP after a
  switchover, a revert or a refreshed ingress) while that LSP lives,
  and each link direction reserves what the LSPs over it carry;
* message-level LDP -- each router's entry agrees with the label its
  next hop advertised; at convergence the next hops are a shortest-path
  tree that every router reaching the egress is on, and every label a
  speaker allocated is one its FECs use.

Random connected topologies x FEC sets x operation sequences
(crash/restart, reconverge, graceful restart, stale marks and flushes,
teardown and expiry, link failure and recovery, FRR switchover/revert,
``refresh_node``) are checked after every step: every entry a router
holds that is not stale-marked is the one the rule states, and a router
whose entries no flush removed holds every entry the rule states; every
label a router has allocated is one its paths use.  A refused operation
raises one of the misuse errors pinned in :data:`MISUSE`, by type and
message.  Three seeded mutants show the check is not vacuous, and an
AST lint keeps penultimate-hop popping out of the protocols' NHLFE
construction.
"""

import ast
import pathlib
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import repro.control
from repro.control.frr import FastRerouteManager
from repro.control.ldp import LDPProcess
from repro.control.ldp_sessions import LDPSpeaker, MessageLDPProcess
from repro.control.rsvp_te import (
    CRLDPSignaler,
    RSVPTESignaler,
    SetupError,
    SignalingError,
)
from repro.mpls.fec import FEC, PrefixFEC
from repro.mpls.label import IMPLICIT_NULL, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.net.events import EventScheduler
from repro.net.topology import Topology, paper_figure1
from tests.strategies import examples, picks

# -- the rule -------------------------------------------------------------------
#: an NHLFE as the rule states it: (op, out_label, next_hop, cos)
Entry = Tuple[str, Optional[int], Optional[str], Optional[int]]
POP: Entry = ("POP", None, None, None)


class Tree:
    """One FEC's label-switched paths towards one tail.

    ``label[n]`` is the label router ``n`` expects, ``next_hop[n]`` the
    neighbour it forwards to, ``heads`` the routers steering ``fec``
    onto the paths; ``cos`` is pushed and swapped in with the label.
    An explicit-route LSP is a tree of one path.
    """

    def __init__(self, fec, tail, label, next_hop, heads=(), cos=None) -> None:
        self.fec, self.tail, self.cos = fec, tail, cos
        self.label: Dict[str, int] = dict(label)
        self.next_hop: Dict[str, str] = dict(next_hop)
        self.heads: List[str] = list(heads)

    @classmethod
    def path(cls, hops: List[str], hop_labels: List[int], fec=None, cos=None):
        """``hop_labels[i]`` is what ``hops[i + 1]`` expects."""
        return cls(
            fec, hops[-1], zip(hops[1:], hop_labels), zip(hops, hops[1:]),
            [hops[0]] if fec is not None else [], cos,
        )


def must_hold(trees: Iterable[Tree]):
    """The ILM and FTN entries each router must hold for ``trees``:
    ``{(router, label): Entry}`` and ``{(router, fec): Entry}``.

    * the tail pops the label it expects;
    * a router with a label and a next hop swaps its label for the next
      hop's, towards the next hop;
    * a head pushes its next hop's label towards the next hop.

    Two trees that give one router one key must agree on its entry.
    """
    ilm: Dict[Tuple[str, int], Entry] = {}
    ftn: Dict[Tuple[str, FEC], Entry] = {}

    def put(table, key, entry) -> None:
        assert table.setdefault(key, entry) == entry, (key, table[key], entry)

    for tree in trees:
        if tree.tail in tree.label:
            put(ilm, (tree.tail, tree.label[tree.tail]), POP)
        for router, nh in tree.next_hop.items():
            if router in tree.label:
                put(ilm, (router, tree.label[router]),
                    ("SWAP", tree.label[nh], nh, tree.cos))
        for head in tree.heads:
            nh = tree.next_hop[head]
            put(ftn, (head, tree.fec), ("PUSH", tree.label[nh], nh, tree.cos))
    return ilm, ftn


def held(nodes: Dict[str, LSRNode]):
    """What the routers hold, as the rule states it, and which keys are
    stale-marked."""
    ilm, ftn, stale = {}, {}, set()
    for name, node in nodes.items():
        for table, entries, out in (
            (node.ilm, list(node.ilm), ilm), (node.ftn, list(node.ftn), ftn),
        ):
            for key, nhlfe in entries:
                assert nhlfe.out_interface is None
                out[(name, key)] = (
                    nhlfe.op.name, nhlfe.out_label, nhlfe.next_hop, nhlfe.cos,
                )
                if table.is_stale(key):
                    stale.add((name, key))
    return ilm, ftn, stale


def assert_holds(nodes, trees, complete: Iterable[str]) -> None:
    """Every entry held without a stale mark is the rule's; every
    router in ``complete`` holds every entry the rule gives it."""
    complete = set(complete)
    *tables, stale = held(nodes)
    for got, want in zip(tables, must_hold(trees)):
        for key, entry in got.items():
            if key not in stale:
                assert want.get(key) == entry, ("held", key, entry, want.get(key))
        for key, entry in want.items():
            if key[0] in complete:
                assert got.get(key) == entry, ("missing", key, entry, got.get(key))


def assert_allocated(allocators, trees) -> None:
    """Every label a router has allocated is one its paths use, once."""
    used: Dict[str, List[int]] = {name: [] for name in allocators}
    for tree in trees:
        for router, label in tree.label.items():
            used[router].append(label)
    for name, allocator in allocators.items():
        assert sorted(allocator._allocated) == sorted(used[name]), name


def distances(topo: Topology, tail: str) -> Dict[str, float]:
    """Metric distance of every router that reaches ``tail``."""
    dist = {tail: 0.0}
    frontier = [tail]
    while frontier:
        node = frontier.pop()
        for neighbor in topo.neighbors(node):
            d = dist[node] + topo.link(node, neighbor).metric
            if d < dist.get(neighbor, float("inf")):
                dist[neighbor] = d
                frontier.append(neighbor)
    return dist


def assert_shortest_path_tree(topo: Topology, tree: Tree, exempt=()) -> None:
    """Each next hop is the first hop of a shortest path to the tail;
    a labelled router without one, unless ``exempt``, reaches no
    labelled first hop of a shortest path the SPF could have chosen."""
    if tree.tail not in tree.label:
        assert tree.next_hop == {}, "no tail, no paths"
        return
    dist = distances(topo, tree.tail)
    for router, nh in tree.next_hop.items():
        assert router != tree.tail and nh in tree.label
        assert topo.has_link(router, nh)
        assert dist[router] == topo.link(router, nh).metric + dist[nh], (router, nh)
    for router in tree.label:
        if router == tree.tail or router in tree.next_hop or router not in dist:
            continue
        if router in exempt:
            continue
        firsts = [
            nh for nh in topo.neighbors(router)
            if nh in dist and dist[router] == topo.link(router, nh).metric + dist[nh]
        ]
        assert any(nh not in tree.label for nh in firsts), (router, firsts)


def assert_tree(topo: Topology, tree: Tree) -> None:
    """Following next hops over live links to labelled routers reaches
    the tail from every router that has one."""
    for router in tree.next_hop:
        seen = set()
        while router != tree.tail:
            nh = tree.next_hop.get(router)
            assert router not in seen and nh in tree.label, (router, nh)
            assert topo.has_link(router, nh), (router, nh)
            seen.add(router)
            router = nh


# -- the misuse errors ----------------------------------------------------------
#: what a refused operation may raise: (type, message pattern)
MISUSE = [
    (KeyError, r"unknown egress 'ghost'"),
    (KeyError, r"unknown node 'ghost'"),
    (KeyError, r"ghost|p\d|f\d"),
    (KeyError, r"unknown LSP '[\w-]+'"),
    (KeyError, r"binding not established by this process"),
    (ValueError, r"PrefixFEC\('10\.\d\.0\.0/16'\) is already bound"),
    (SignalingError, r"LSP '[\w-]+' already exists"),
    (SignalingError, r"CSPF failed for '[\w-]+': .+"),
    (SignalingError, r"explicit route needs >= 2 nodes"),
    (SignalingError, r"explicit route must span ingress\.\.egress"),
    (SignalingError, r"explicit route uses missing link [\w-]+"),
    (SignalingError, r"explicit route revisits a node"),
    (SignalingError, r"'[\w-]+' is already protected"),
    (SignalingError, r"no disjoint backup exists for [\w-]+"),
    (SignalingError, r"cr-ldp LSP '[\w-]+' is hard state: there is nothing to refresh"),
    (SetupError, r"admission control: link [\w-]+ has only [\d.e+]+ bps "
                 r"unreserved, [\d.e+]+ requested"),
]


def message(exc: Exception) -> str:
    """What ``exc`` says (a ``KeyError``'s text without its quotes)."""
    return exc.args[0] if type(exc) is KeyError else str(exc)


def apply(world, op):
    """Apply ``op``; a refusal must be one of the pinned misuse errors."""
    try:
        return world.apply(op)
    except Exception as exc:
        assert any(
            type(exc) is kind and re.fullmatch(pattern, message(exc))
            for kind, pattern in MISUSE
        ), (op, type(exc), message(exc))
        return None


# -- worlds: one topology, its routers and a control plane --------------------
#: a node, by index modulo the topology's size; GHOST is an unknown name
GHOST = 8
#: what one slot of an op's draw holds: a multiple of every range an op
#: reads from it (2..10 and 12), so each reads a uniform choice
SLOT = 2520


def sequences(kinds, build, slots: int, min_size: int, max_size: int):
    """Operation sequences, one :func:`picks` draw per op: its kind by
    weight from ``kinds`` (a kind listed twice is drawn twice as often)
    and ``slots`` choices that ``build(kind, *slots)`` reads its
    arguments from, each modulo its range."""
    return st.lists(
        picks(len(kinds), *[SLOT] * slots).map(
            lambda raw: build(kinds[raw[0]], *raw[1:])
        ),
        min_size=min_size, max_size=max_size,
    )


@st.composite
def topologies(draw, min_nodes: int = 3, max_nodes: int = 6):
    """(names, {link: metric}, per-node LER flag) in one draw: a random
    spanning tree keeps it connected, up to ``n`` extra links make
    alternate paths, and link metrics come from 1..3, so equal-cost
    ties come up."""
    size, *raw = draw(picks(
        max_nodes - min_nodes + 1, *[SLOT, 3] * (max_nodes - 1),
        max_nodes + 1, *[SLOT, SLOT, 3] * max_nodes, 2 ** max_nodes,
    ))
    n = min_nodes + size
    names = [f"n{i}" for i in range(n)]
    tree, raw = raw[:2 * (max_nodes - 1)], raw[2 * (max_nodes - 1):]
    links: Dict[Tuple[str, str], int] = {}
    for i in range(1, n):
        parent, metric = tree[2 * i - 2:2 * i]
        links[(names[parent % i], names[i])] = 1 + metric
    extra, *raw = raw
    for k in range(min(extra, n)):
        a, b, metric = raw[3 * k:3 * k + 3]
        a, b = names[a % n], names[b % n]
        if a != b and (a, b) not in links and (b, a) not in links:
            links[(a, b)] = 1 + metric
    edge = [bool(raw[-1] >> i & 1) for i in range(n)]
    return names, links, edge


class World:
    """A topology and its routers, shared by every control plane."""

    def __init__(self, spec, delay_s: float = 1e-3) -> None:
        names, links, edge = spec
        self.names = names
        self.topo = Topology()
        for name in names:
            self.topo.add_node(name)
        for (a, b), metric in links.items():
            self.topo.add_link(a, b, metric=metric, bandwidth_bps=10e6,
                               delay_s=delay_s)
        self.nodes = {
            name: LSRNode(name, RouterRole.LER if e else RouterRole.LSR)
            for name, e in zip(names, edge)
        }
        #: removed links -> their attributes, for restoring
        self.removed: Dict[Tuple[str, str], object] = {}
        #: routers a flush took entries from since their last rewrite
        self.flushed: Set[str] = set()

    def name(self, i: int) -> str:
        return "ghost" if i == GHOST else self.names[i % len(self.names)]

    def link_down(self, a: str, b: str) -> bool:
        if not self.topo.has_link(a, b):
            return False
        self.removed[(a, b)] = self.topo.link(a, b)
        self.topo.remove_link(a, b)
        return True

    def link_up(self, a: str, b: str) -> bool:
        attrs = self.removed.pop((a, b), None) or self.removed.pop((b, a), None)
        if attrs is None:
            return False
        self.topo.restore_link(a, b, attrs)
        return True

    def flush(self, name: str):
        node = self.nodes[name]
        removed = node.ilm.flush_stale(), node.ftn.flush_stale()
        if any(removed):
            self.flushed.add(name)
        return removed

    def run(self, ops) -> None:
        self.check()
        for op in ops:
            apply(self, op)
            self.check()


# -- converged LDP ------------------------------------------------------------
class LDPWorld(World):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.ldp = LDPProcess(self.topo, self.nodes)
        #: crashed node -> the links its crash took down
        self.crashed: Dict[str, List[Tuple[str, str]]] = {}

    def reconverge(self) -> None:
        self.ldp.reconverge()
        self.flushed &= self.ldp.restarting

    def apply(self, op):
        kind, *args = op
        ldp = self.ldp
        if kind == "establish":
            egress, k = args
            fec = PrefixFEC(f"10.{k}.0.0/16")
            return ldp.establish_fec(fec, self.name(egress))
        if kind == "withdraw":
            if ldp.bindings:
                ldp.withdraw_fec(ldp.bindings[args[0] % len(ldp.bindings)])
            return None
        if kind == "reconverge":
            return self.reconverge()
        name = self.name(args[0])
        if kind == "crash":
            if name in self.crashed or name not in self.nodes:
                return None
            self.crashed[name] = [
                (a, b) for a, b in self.topo.links if name in (a, b)
            ]
            for a, b in self.crashed[name]:
                self.link_down(a, b)
            ldp.down_nodes.add(name)
            return self.reconverge()
        if kind == "restart":
            if name not in self.crashed:
                return None
            self.nodes[name].ilm.clear()
            self.nodes[name].ftn.clear()
            for a, b in self.crashed.pop(name):
                other = b if a == name else a
                if other in self.crashed:
                    self.crashed[other].append((a, b))
                else:
                    self.link_up(a, b)
            ldp.down_nodes.discard(name)
            return self.reconverge()
        if kind == "gr_begin":
            return ldp.begin_graceful_restart(name)
        if kind == "gr_complete":
            try:
                return ldp.complete_graceful_restart(name)
            finally:
                self.flushed &= ldp.restarting
        if kind == "refresh":
            written = ldp.refresh_node(name)
            if name not in ldp.restarting:  # which takes no refresh
                self.flushed.discard(name)
            return written
        if kind in ("stale", "flush") and name in self.nodes:
            node = self.nodes[name]
            if kind == "stale":
                return node.ilm.mark_all_stale(), node.ftn.mark_all_stale()
            return self.flush(name)
        if kind in ("link_down", "link_up"):
            other = self.name(args[1])
            crashed = {name, other} & set(self.crashed)
            if crashed or not getattr(self, kind)(name, other):
                return None
            return self.reconverge()
        return None

    def trees(self) -> List[Tree]:
        return [
            Tree(b.fec, b.egress, b.labels, b.next_hops,
                 [n for n in b.next_hops if self.nodes[n].is_edge])
            for b in self.ldp.bindings
        ]

    def check(self) -> None:
        trees = self.trees()
        for binding, tree in zip(self.ldp.bindings, trees):
            assert_shortest_path_tree(self.topo, tree)
            assert binding.ingresses == tree.heads
        assert_holds(self.nodes, trees, set(self.nodes) - self.flushed)
        assert_allocated(self.ldp.allocators, trees)


#: converged-LDP ops by weight: a binding, a withdrawal and a
#: reconvergence about a sixth each, the rest a router or a link
LDP_KINDS = (
    ("establish", "withdraw", "reconverge") * 4
    + ("crash", "restart", "gr_begin", "gr_complete", "refresh", "stale",
       "flush", "link_down", "link_up", "link_down", "link_up")
)


def ldp_op(kind, a, b):
    if kind == "establish":
        return kind, a % 9, b % 4
    if kind == "withdraw":
        return kind, a % 6
    if kind == "reconverge":
        return (kind,)
    if kind.startswith("link"):
        return kind, a % 9, b % 9
    return kind, a % 9


def check_ldp(example) -> None:
    spec, ops = example
    LDPWorld(spec).run(ops)


LDP_CASES = st.tuples(topologies(), sequences(LDP_KINDS, ldp_op, 2, 4, 25))


@settings(max_examples=examples(200), deadline=None)
@given(LDP_CASES)
def test_converged_ldp_holds_the_rule(example):
    check_ldp(example)


# -- RSVP-TE + FRR ------------------------------------------------------------
#: reservations against 10 Mb/s links: two 6 Mb/s LSPs cannot share one
BANDWIDTH = [0.0, 3e6, 6e6]


class TEWorld(World):
    signaler = RSVPTESignaler

    def __init__(self, spec, frr: bool = True) -> None:
        super().__init__(spec)
        self.sig = self.signaler(self.topo, self.nodes)
        self.frr = FastRerouteManager(self.sig) if frr else None
        #: (ingress, fec) -> the LSP that steered it last
        self.steering: Dict[Tuple[str, FEC], str] = {}

    def route(self, ingress: str, egress: str, spec) -> Optional[List[str]]:
        if spec is None:
            return None
        kind, steps = spec
        if kind == "raw":
            return [ingress] + [self.name(i) for i in steps]
        route = [ingress]
        for step in steps:
            if not self.topo.has_node(route[-1]):
                break
            neighbors = self.topo.neighbors(route[-1])
            if not neighbors:
                break
            route.append(neighbors[step % len(neighbors)])
        return route

    def lsp_name(self, i: int) -> str:
        names = sorted(self.sig.lsps)
        return names[i % len(names)] if names and i < 6 else "ghost"

    def setup(self, args):
        name, ingress, egress, route, bw, cos, fec = args
        ingress = self.name(ingress)
        route = self.route(ingress, self.name(egress), route)
        return self.sig.setup(
            f"t{name}",
            ingress,
            route[-1] if route else self.name(egress),
            explicit_route=route,
            bandwidth_bps=bw,
            cos=cos,
            fec=None if fec is None else PrefixFEC(f"10.{fec}.0.0/16"),
        )

    def apply(self, op):
        """Apply ``op``; an LSP that goes takes its steering with it."""
        try:
            return self._apply(op)
        finally:
            self.steering = {
                key: name for key, name in self.steering.items()
                if name in self.sig.lsps
            }

    def steer(self, lsp, fec) -> None:
        self.steering[(lsp.ingress, fec)] = lsp.name

    def switched(self, names) -> None:
        """Each protected path in ``names`` steers onto its active LSP."""
        for name in names:
            protected = self.frr.protected[name]
            self.steer(protected.active_lsp, protected.fec)

    def _apply(self, op):
        """Apply ``op`` and note what it steers: an LSP set up with a
        FEC steers it, and so does the primary of a protected path; a
        switchover, a revert and a refreshed ingress steer a protected
        FEC onto its active LSP."""
        kind, *args = op
        sig, frr = self.sig, self.frr
        if kind == "setup":
            lsp = self.setup(args)
            if args[-1] is not None:
                self.steer(lsp, PrefixFEC(f"10.{args[-1]}.0.0/16"))
            return lsp
        if kind in ("teardown", "release"):
            return getattr(sig, kind)(self.lsp_name(args[0]))
        if kind == "expire":
            return sig.expire_stale(*args)
        if kind == "refresh":
            return sig.refresh(self.lsp_name(args[0]), args[1])
        if kind == "protect":
            name, ingress, egress, fec = args
            protected = frr.protect(
                f"p{name}", self.name(ingress), self.name(egress),
                PrefixFEC(f"10.{fec}.0.0/16"),
            )
            self.steer(protected.primary, protected.fec)
            return protected
        if kind == "revert":
            name = f"p{args[0]}"
            protected = frr.protected.get(name)
            on_backup = protected is not None and protected.active == "backup"
            frr.revert(name)
            self.switched([name] if on_backup else [])
            return None
        if kind in ("fail", "recover"):
            link = self.link(kind, args[0])
            if link is None:
                return None
            if kind == "fail":
                self.switched(frr.handle_link_failure(*link))
            else:
                self.switched(frr.handle_link_recovery(*link))
            return link
        name = self.name(args[0])
        if kind == "refresh_node":
            return sig.refresh_node(name)
        if kind == "refresh_ingress":
            written = frr.refresh_ingress(name)
            self.switched(
                key for key, protected in frr.protected.items()
                if protected.active_lsp.ingress == name
            )
            return written
        if kind == "stale":
            if name in self.nodes:
                self.nodes[name].ilm.mark_all_stale()
                self.nodes[name].ftn.mark_all_stale()
            return None
        return None

    def link(self, kind: str, i: int) -> Optional[Tuple[str, str]]:
        """Fail a live link, one an LSP crosses while there is one, or
        recover a failed one, by index; None when there is none."""
        if kind == "fail":
            links = sorted({
                (min(a, b), max(a, b)) for lsp in self.sig.lsps.values()
                for a, b in lsp.links() if self.topo.has_link(a, b)
            }) or self.topo.links
        else:
            links = sorted(self.removed)
        if not links:
            return None
        a, b = links[i % len(links)]
        (self.link_down if kind == "fail" else self.link_up)(a, b)
        return a, b

    def trees(self) -> List[Tree]:
        heads: Dict[str, List[FEC]] = {}
        for (_ingress, fec), name in self.steering.items():
            heads.setdefault(name, []).append(fec)
        trees = []
        for name, lsp in self.sig.lsps.items():
            fecs = heads.get(name) or [None]
            for fec in fecs:
                trees.append(Tree.path(lsp.path, lsp.hop_labels, fec, lsp.cos))
        return trees

    def check(self) -> None:
        for lsp in self.sig.lsps.values():
            assert lsp.up and lsp.protocol == self.signaler.protocol
            assert len(lsp.path) >= 2 and len(set(lsp.path)) == len(lsp.path)
            assert len(lsp.hop_labels) == len(lsp.path) - 1
        trees = self.trees()
        assert_holds(self.nodes, trees, self.nodes)
        assert_allocated(
            self.sig.allocators,
            [Tree.path(lsp.path, lsp.hop_labels) for lsp in self.sig.lsps.values()],
        )
        # each link direction reserves what the LSPs over it carry
        for a, b, attrs in self.topo.edges_with_attrs():
            for x, y in ((a, b), (b, a)):
                carried = sum(
                    lsp.bandwidth_bps for lsp in self.sig.lsps.values()
                    if (x, y) in zip(lsp.path, lsp.path[1:])
                )
                assert abs(attrs.reservable(x) - (10e6 - carried)) < 1e-3, (x, y)


def setup_args(name, ingress, egress, route, length, bw, cos, fec, *hops):
    """A setup's arguments: an explicit route is None (CSPF) half the
    time, else a walk from the ingress choosing a neighbour per step
    (it may revisit a node) or raw node indices, of 1-4 steps; a CoS
    and a FEC are None or one of 0-7 and 0-3."""
    hops = hops[:1 + length % 4]
    route = [
        None, None, ("walk", [hop % 6 for hop in hops]),
        ("raw", [hop % 9 for hop in hops]),
    ][route % 4]
    cos, fec = cos % 9, fec % 5
    return (name % 4, ingress % 9, egress % 9, route, BANDWIDTH[bw % 3],
            None if cos == 0 else cos - 1, None if fec == 0 else fec - 1)


#: RSVP-TE + FRR ops by weight: a setup, a protection and a failure
#: two in eleven each
TE_KINDS = (
    ("setup", "protect", "fail") * 4 + ("teardown", "refresh") * 2
    + ("expire", "revert", "recover", "refresh_node", "refresh_ingress", "stale")
)
#: slots a setup reads: eight choices and four route steps
TE_SLOTS = 12


def te_op(kind, a, b, c, d, *rest):
    if kind == "setup":
        return (kind, *setup_args(a, b, c, d, *rest))
    if kind in ("teardown", "release"):
        return kind, a % 7
    if kind == "refresh":
        return kind, a % 7, (10.0, 50.0)[b % 2]
    if kind == "expire":
        return kind, (60.0, 120.0)[a % 2], (30.0, 90.0)[b % 2]
    if kind == "protect":
        return kind, a % 3, b % 9, c % 9, d % 4
    if kind == "revert":
        return kind, a % 3
    if kind in ("fail", "recover"):
        return kind, a % 12  # the i-th live link, or failed one
    return kind, a % 9


def check_te(example) -> None:
    spec, ops = example
    TEWorld(spec).run(ops)


TE_CASES = st.tuples(topologies(), sequences(TE_KINDS, te_op, TE_SLOTS, 6, 30))


@settings(max_examples=examples(300), deadline=None)
@given(TE_CASES)
# found by a search: two protected paths carry 10.2.0.0/16 from n2, and
# a refresh at the head re-steered them by path name, leaving the FEC
# on the earlier path's LSP where switchovers and reverts, which walk
# protection order, leave it on the later one's
@example((
    (["n0", "n1", "n2", "n3"],
     {("n0", "n1"): 1, ("n0", "n2"): 1, ("n2", "n3"): 2, ("n3", "n0"): 1},
     [True, False, True, True]),
    [("setup", 0, 0, 0, None, 0.0, None, None),
     ("setup", 0, 0, 0, None, 0.0, None, None),
     ("setup", 0, 0, 0, None, 0.0, None, None),
     ("protect", 2, 2, 7, 2),
     ("protect", 1, 2, 5, 2),
     ("refresh_ingress", 6)],
))
def test_rsvp_te_and_frr_hold_the_rule(example):
    check_te(example)


# -- CR-LDP -------------------------------------------------------------------
class CRLDPWorld(TEWorld):
    signaler = CRLDPSignaler

    def __init__(self, spec) -> None:
        super().__init__(spec, frr=False)

    def _apply(self, op):
        kind, *args = op
        if kind in ("fail", "recover"):
            return self.link(kind, args[0])
        return super()._apply(op)


#: CR-LDP ops by weight: hard state, so one refresh length and expiry
CRLDP_KINDS = (
    ("setup", "release", "refresh", "expire") * 2
    + ("refresh_node", "stale", "fail", "recover")
)


def crldp_op(kind, *slots):
    if kind == "refresh":
        return kind, slots[0] % 7, 10.0
    if kind == "expire":
        return kind, 120.0, 30.0
    return te_op(kind, *slots)


class TestCRLDP:
    @settings(max_examples=examples(200), deadline=None)
    @given(topologies(), sequences(CRLDP_KINDS, crldp_op, TE_SLOTS, 4, 20))
    def test_cr_ldp_holds_the_rule(self, spec, ops):
        CRLDPWorld(spec).run(ops)

    LINE = (["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}, [True, False, True])

    def test_it_is_hard_state(self):
        world = CRLDPWorld(self.LINE)
        sig = world.sig
        lsp = sig.setup("c1", "a", "c", fec=PrefixFEC("10.1.0.0/16"))
        assert (lsp.protocol, lsp.hop_labels) == ("cr-ldp", [200_000, 200_000])
        with pytest.raises(SignalingError, match="hard state"):
            sig.refresh("c1", now=1.0)
        assert sig.expire_stale(now=1e9, hold_time=0.0) == []
        assert "c1" in sig.lsps and lsp.up
        sig.release("c1")
        assert not lsp.up and all(
            len(node.ilm) == len(node.ftn) == 0 for node in world.nodes.values()
        )

    def test_a_revisiting_route_is_refused(self):
        world = CRLDPWorld(self.LINE)
        with pytest.raises(SignalingError, match="revisits a node"):
            world.sig.setup("c1", "a", "c", explicit_route=["a", "b", "a", "b", "c"])
        assert held(world.nodes) == ({}, {}, set())
        assert world.sig.stats == type(world.sig.stats)()


# -- message-level LDP ----------------------------------------------------------
class MessageWorld(World):
    def __init__(self, spec, egresses) -> None:
        super().__init__(spec)
        self.scheduler = EventScheduler()
        #: a removed link has come back up
        self.healed = False
        self.ldp = MessageLDPProcess(self.topo, self.nodes, self.scheduler)
        self.ldp.start()
        self.scheduler.run(until=0.2)
        for k, egress in enumerate(egresses):
            self.ldp.announce_fec(
                f"f{k}", PrefixFEC(f"10.{k}.0.0/16"),
                self.names[egress % len(self.names)],
            )
        self.scheduler.run(until=0.4)

    def apply(self, op):
        kind, *args = op
        ldp = self.ldp
        if kind == "withdraw":
            value = ldp.withdraw_fec(f"f{args[0]}")
        else:
            name = self.names[args[0] % len(self.names)]
            node = self.nodes[name]
            if kind == "refresh":
                value = ldp.refresh_node(name)
            elif kind == "stale":
                value = node.ilm.mark_all_stale(), node.ftn.mark_all_stale()
            elif kind == "flush":
                value = self.flush(name)
            elif kind == "gr_begin":
                value = ldp.begin_graceful_restart(name)
            elif kind == "gr_complete":
                value = ldp.complete_graceful_restart(name)
            else:
                other = self.names[args[1] % len(self.names)]
                if kind == "link_down" and self.link_down(name, other):
                    ldp.drop_session(name, other, reason="link down")
                elif kind == "link_up" and self.link_up(name, other):
                    self.healed = True
                elif kind == "drop" and self.topo.has_link(name, other):
                    ldp.drop_session(name, other)
                value = None
        self.scheduler.run(until=self.scheduler.now + 0.3)
        return value

    def trees(self) -> List[Tree]:
        """Each FEC's labels, and each router's next hop as its entry
        for the FEC names it.  A withdrawn FEC keeps the labels no
        withdrawal has reached yet (one cannot pass a router in
        graceful restart; see CHANGES.md)."""
        trees = []
        for fec_id, state in self.ldp.fecs.items():
            label, next_hop = {}, {}
            for name, speaker in self.ldp.speakers.items():
                if fec_id not in speaker.local_labels:
                    continue
                label[name] = speaker.local_labels[fec_id]
                entry = self.nodes[name].ilm.get(label[name])
                if name != state.egress and entry is not None:
                    next_hop[name] = entry.next_hop
            heads = [
                n for n in next_hop
                if self.nodes[n].is_edge and next_hop[n] in label
            ]
            trees.append(Tree(state.fec, state.egress, label, {
                n: nh for n, nh in next_hop.items() if nh in label
            }, heads))
        return trees

    def converged(self) -> bool:
        ldp = self.ldp
        return ldp.all_sessions_up() and all(
            ldp.converged(fec_id) for fec_id, state in ldp.fecs.items()
            if not state.withdrawn
        ) and not any(s.restarting for s in ldp.speakers.values())

    def check(self) -> None:
        """Entries agree with the advertised labels after every step; at
        convergence every live FEC's next hops are a shortest-path tree
        that every router reaching the egress is on (one a flush emptied
        keeps its label), and the routers hold all of it."""
        trees = self.trees()
        converged = self.converged()
        if converged:
            for tree, state in zip(trees, self.ldp.fecs.values()):
                if state.withdrawn:
                    continue
                if self.healed:
                    # a router keeps a next hop a restored link made
                    # longer than the shortest (see CHANGES.md and
                    # test_a_restored_link_is_taken)
                    assert_tree(self.topo, tree)
                else:
                    assert_shortest_path_tree(self.topo, tree, self.flushed)
                for router in distances(self.topo, tree.tail):
                    if router not in (tree.tail, *self.flushed):
                        assert router in tree.next_hop, (state.fec, router)
        complete = set(self.nodes) - self.flushed if converged else ()
        assert_holds(self.nodes, trees, complete)
        assert_allocated(
            {name: s.allocator for name, s in self.ldp.speakers.items()}, trees
        )


#: message-LDP ops by weight: a router, a session or link, a withdrawal
MESSAGE_KINDS = (
    ("refresh", "stale", "flush", "gr_begin", "gr_complete") * 3
    + ("drop", "link_down", "link_up") * 5 + ("withdraw",) * 15
)


def message_op(kind, a, b):
    if kind == "withdraw":
        return kind, a % 4
    if kind in ("drop", "link_down", "link_up"):
        return kind, a % 9, b % 9
    return kind, a % 9


def check_message(example) -> None:
    (spec, egresses), ops = example
    world = MessageWorld(spec, egresses)
    assert world.converged()
    world.run(ops)


MESSAGE_CASES = st.tuples(
    st.tuples(
        topologies(max_nodes=5),
        st.lists(st.integers(0, GHOST), min_size=1, max_size=3),
    ),
    sequences(MESSAGE_KINDS, message_op, 2, 2, 10),
)


@settings(max_examples=examples(100), deadline=None)
@given(MESSAGE_CASES)
def test_message_ldp_holds_the_rule(example):
    check_message(example)


#: n2 reaches n0 directly, or over n3 at twice the cost
SQUARE = (
    ["n0", "n1", "n2", "n3"],
    {("n0", "n1"): 1, ("n0", "n2"): 1, ("n2", "n3"): 1, ("n0", "n3"): 1},
    [False] * 4,
)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a router keeps its next hop when a link comes back")
def test_a_restored_link_is_taken():
    """Once n0-n2 is back, n2's shortest path to n0 is the link, but n2
    keeps the path over n3 it moved to when the link went down: an
    installed FEC takes no mapping from a new next hop."""
    world = MessageWorld(SQUARE, [0])
    world.apply(("link_down", 0, 2))
    world.apply(("link_up", 0, 2))
    assert world.converged()
    assert_shortest_path_tree(world.topo, world.trees()[0])


# -- each misuse error, pinned ---------------------------------------------------
def figure1():
    topo = paper_figure1(bandwidth_bps=10e6)
    nodes = {
        name: LSRNode(name, RouterRole.LER if name.startswith("ler") else RouterRole.LSR)
        for name in topo.nodes
    }
    return topo, nodes


ROUTE = ["ler-a", "lsr-1", "lsr-2", "ler-b"]
FEC_B = PrefixFEC("10.2.0.0/16")


def ldp():
    return LDPProcess(*figure1())


def ldp_with(fec):
    process = ldp()
    process.establish_fec(fec, "ler-b")
    return process


def rsvp(cls=RSVPTESignaler):
    sig = cls(*figure1())
    sig.setup("t", "ler-a", "ler-b", explicit_route=ROUTE, fec=FEC_B)
    return sig


def frr():
    manager = FastRerouteManager(RSVPTESignaler(*figure1()))
    manager.protect("p", "ler-a", "ler-b", FEC_B)
    return manager


def single_homed():
    """ler-a's one link carries any path: no backup avoids it."""
    topo, nodes = figure1()
    topo.remove_link("ler-b", "lsr-3")
    return FastRerouteManager(RSVPTESignaler(topo, nodes))


def message_ldp():
    scheduler = EventScheduler()
    process = MessageLDPProcess(*figure1(), scheduler)
    process.start()
    process.announce_fec("f0", FEC_B, "ler-b")
    return process


OTHER = ["ler-a", "lsr-1", "lsr-3", "lsr-1", "lsr-2", "ler-b"]
PINNED = {
    "unknown egress": (lambda: ldp().establish_fec(FEC_B, "ghost"),
                       KeyError, "unknown egress 'ghost'"),
    "bind a FEC twice": (lambda: ldp_with(FEC_B).establish_fec(FEC_B, "ler-a"),
                         ValueError, "PrefixFEC('10.2.0.0/16') is already bound"),
    "foreign binding": (lambda: ldp().withdraw_fec(ldp().establish_fec(FEC_B, "ler-b")),
                        KeyError, "binding not established by this process"),
    "refresh an unknown node": (lambda: ldp().refresh_node("ghost"),
                                KeyError, "unknown node 'ghost'"),
    "restart an unknown node": (lambda: ldp().begin_graceful_restart("ghost"),
                                KeyError, "unknown node 'ghost'"),
    "complete an unknown node": (lambda: ldp().complete_graceful_restart("ghost"),
                                 KeyError, "ghost"),
    "an LSP twice": (lambda: rsvp().setup("t", "ler-a", "ler-b"),
                     SignalingError, "LSP 't' already exists"),
    "no path": (lambda: rsvp().setup("u", "ler-a", "ghost"), SignalingError,
                "CSPF failed for 'u': no path ler-a -> ghost satisfies the "
                "constraints (bw=0 bps)"),
    "a one-node route": (lambda: rsvp().setup("u", "ler-a", "ler-a", explicit_route=["ler-a"]),
                         SignalingError, "explicit route needs >= 2 nodes"),
    "a route that misses its ends": (
        lambda: rsvp().setup("u", "ler-a", "ler-b", explicit_route=ROUTE[:-1]),
        SignalingError, "explicit route must span ingress..egress"),
    "a route over a missing link": (
        lambda: rsvp().setup("u", "ler-a", "ler-b", explicit_route=["ler-a", "ler-b"]),
        SignalingError, "explicit route uses missing link ler-a-ler-b"),
    "a route that revisits a node": (
        lambda: rsvp().setup("u", "ler-a", "ler-b", explicit_route=OTHER),
        SignalingError, "explicit route revisits a node"),
    "admission control": (
        lambda: rsvp().setup("u", "ler-a", "ler-b", explicit_route=ROUTE, bandwidth_bps=2e7),
        SetupError, "admission control: link ler-a-lsr-1 has only 1e+07 bps "
        "unreserved, 2e+07 requested"),
    "tear down an unknown LSP": (lambda: rsvp().teardown("ghost"),
                                 KeyError, "unknown LSP 'ghost'"),
    "refresh an unknown LSP": (lambda: rsvp().refresh("ghost", 1.0), KeyError, "ghost"),
    "refresh hard state": (lambda: rsvp(CRLDPSignaler).refresh("t", 1.0), SignalingError,
                           "cr-ldp LSP 't' is hard state: there is nothing to refresh"),
    "protect twice": (lambda: frr().protect("p", "ler-a", "ler-b", FEC_B),
                      SignalingError, "'p' is already protected"),
    "no disjoint backup": (lambda: single_homed().protect("p", "ler-a", "lsr-2", FEC_B),
                           SignalingError, "no disjoint backup exists for p-primary"),
    "revert an unknown path": (lambda: frr().revert("p9"), KeyError, "p9"),
    "announce twice": (lambda: message_ldp().announce_fec("f0", FEC_B, "ler-b"),
                       ValueError, "FEC 'f0' already announced"),
    "start twice": (lambda: message_ldp().start(), RuntimeError, "already started"),
    "withdraw an unknown FEC": (lambda: message_ldp().withdraw_fec("f9"), KeyError, "f9"),
}


@pytest.mark.parametrize("case", PINNED)
def test_a_misuse_error_is_pinned(case):
    call, kind, text = PINNED[case]
    with pytest.raises(Exception) as excinfo:
        call()
    assert (type(excinfo.value), message(excinfo.value)) == (kind, text)


def test_every_refusal_the_sequences_accept_is_pinned():
    pinned = [(kind, text) for _call, kind, text in PINNED.values()]
    for kind, pattern in MISUSE:
        assert any(
            got is kind and re.fullmatch(pattern, text) for got, text in pinned
        ), pattern


# -- an LSP that goes takes its steering with it ---------------------------------
class TestDanglingFTN:
    def test_teardown_takes_the_ingress_ftn_with_it(self):
        topo, nodes = figure1()
        sig = RSVPTESignaler(topo, nodes)
        sig.setup("t", "ler-a", "ler-b", explicit_route=ROUTE, fec=FEC_B)
        sig.teardown("t")
        # the next LSP is handed the freed label: a stale entry would
        # have steered this FEC into it
        other = sig.setup("u", "ler-a", "ler-b", explicit_route=ROUTE)
        assert other.hop_labels[0] == 100_000
        assert nodes["ler-a"].ftn.entry_for(FEC_B) is None

    @pytest.mark.parametrize("how", ["expire_stale", "release"])
    def test_expiry_and_release_too(self, how):
        topo, nodes = figure1()
        sig = (RSVPTESignaler if how == "expire_stale" else CRLDPSignaler)(topo, nodes)
        sig.setup("t", "ler-a", "ler-b", explicit_route=ROUTE, fec=FEC_B)
        if how == "expire_stale":
            assert sig.expire_stale(now=100.0) == ["t"]
        else:
            sig.release("t")
        assert len(nodes["ler-a"].ftn) == 0

    def test_an_ftn_steering_onto_the_backup_stays(self):
        topo, nodes = figure1()
        frr = FastRerouteManager(RSVPTESignaler(topo, nodes))
        protected = frr.protect("p", "ler-a", "ler-b", FEC_B)
        frr.handle_link_failure(*protected.primary.links()[1])
        steering = nodes["ler-a"].ftn.entry_for(FEC_B)
        assert steering.out_label == protected.backup.hop_labels[0]
        frr.signaler.teardown(protected.primary.name)
        assert nodes["ler-a"].ftn.entry_for(FEC_B) == steering

    def test_the_backup_a_switchover_steers_onto_takes_the_ftn(self):
        topo, nodes = figure1()
        frr = FastRerouteManager(RSVPTESignaler(topo, nodes))
        protected = frr.protect("p", "ler-a", "ler-b", FEC_B)
        frr.handle_link_failure(*protected.primary.links()[1])
        frr.signaler.teardown(protected.backup.name)
        assert nodes["ler-a"].ftn.entry_for(FEC_B) is None

    def test_a_path_that_lost_an_lsp_is_forgotten(self):
        topo, nodes = figure1()
        frr = FastRerouteManager(RSVPTESignaler(topo, nodes))
        protected = frr.protect("p", "ler-a", "ler-b", FEC_B)
        assert frr.signaler.expire_stale(now=100.0) == ["p-primary", "p-backup"]
        assert frr.refresh_ingress("ler-a") == 0
        assert frr.protected == {} and len(nodes["ler-a"].ftn) == 0
        with pytest.raises(KeyError, match="'p'"):
            frr.revert(protected.name)

    def test_a_failed_protection_leaves_the_steering_as_it_was(self):
        manager = single_homed()
        nodes = manager.signaler.nodes
        manager.signaler.setup("t", "ler-a", "ler-b", fec=FEC_B)
        steering = nodes["ler-a"].ftn.entry_for(FEC_B)
        with pytest.raises(SignalingError, match="no disjoint backup"):
            manager.protect("p", "ler-a", "lsr-2", FEC_B)
        assert list(manager.signaler.lsps) == ["t"]
        assert nodes["ler-a"].ftn.entry_for(FEC_B) == steering


class TestTeardownOverAFailedLink:
    """An LSP torn down while a link it crosses is out of the topology
    releases that link's reservation too: the link comes back as it
    was before the LSP."""

    @pytest.mark.parametrize("how", ["teardown", "expire_stale", "release"])
    def test_the_restored_link_reserves_nothing(self, how):
        topo, nodes = figure1()
        sig = (CRLDPSignaler if how == "release" else RSVPTESignaler)(topo, nodes)
        lsp = sig.setup("t", "ler-a", "ler-b", explicit_route=ROUTE,
                        bandwidth_bps=4e6, fec=FEC_B)
        attrs = topo.link("lsr-1", "lsr-2")
        topo.remove_link("lsr-1", "lsr-2")
        if how == "expire_stale":
            assert sig.expire_stale(now=100.0) == ["t"]
        else:
            getattr(sig, how)("t")
        topo.restore_link("lsr-1", "lsr-2", attrs)
        assert not lsp.up and sig.lsps == {}
        assert all(
            attrs.reservable(a) == 10e6 for a, b in zip(ROUTE, ROUTE[1:])
            for attrs in [topo.link(a, b)]
        )
        assert held(nodes) == ({}, {}, set())


class TestGracefulRestartTakesNoRefresh:
    """A withdrawal cannot reach a router in graceful restart, so a
    refresh must not clear the stale marks of what it holds."""

    def test_converged_ldp(self):
        topo, nodes = figure1()
        process = LDPProcess(topo, nodes)
        binding = process.establish_fec(FEC_B, "ler-b")
        process.begin_graceful_restart("lsr-1")
        assert process.refresh_node("lsr-1") == (0, 0)
        process.withdraw_fec(binding)
        ilm, _ftn, stale = held(nodes)
        assert set(ilm) == stale == {("lsr-1", binding.labels["lsr-1"])}

    @pytest.mark.parametrize("refreshed", ["lsr-1", "ler-a"])
    def test_message_ldp(self, refreshed):
        """``lsr-1`` restarts: neither it nor ``ler-a``, which routes
        via it, refreshes what ``lsr-1`` taught."""
        scheduler = EventScheduler()
        topo, nodes = figure1()
        process = MessageLDPProcess(topo, nodes, scheduler)
        process.start()
        scheduler.run(until=0.2)
        process.announce_fec("f0", FEC_B, "ler-b")
        scheduler.run(until=0.4)
        via = nodes["ler-a"].ftn.entry_for(FEC_B).next_hop
        assert via == "lsr-1"
        process.begin_graceful_restart(via)
        before = held(nodes)[2]
        process.refresh_node(refreshed)
        assert held(nodes)[2] == before


def test_a_push_of_implicit_null_is_a_noop():
    assert NHLFE(
        op=LabelOp.PUSH, out_label=IMPLICIT_NULL, next_hop="eg", cos=5
    ) == NHLFE(op=LabelOp.NOOP, next_hop="eg")
    assert NHLFE(op=LabelOp.SWAP, out_label=IMPLICIT_NULL, next_hop="eg") == NHLFE(
        op=LabelOp.POP, next_hop="eg"
    )


# -- seeded mutants: what the rule must be able to tell apart -------------------
def refresh_every_router_with_a_next_hop(self, name):
    """Mutant: refresh rewrites an FTN at every router routing towards
    the egress, not only at the binding's ingresses."""
    node = self.nodes[name]
    ilm_writes = ftn_writes = 0
    for binding in self.bindings:
        entry = binding.ilm_entry(name)
        if entry is not None:
            node.ilm.install(*entry)
            ilm_writes += 1
        if binding.ftn_entry(name) is not None:
            node.ftn.install(binding.fec, binding.ftn_entry(name))
            ftn_writes += 1
    return ilm_writes, ftn_writes


#: the real body, which the mutant below calls before it is patched in
remove_forwarding = RSVPTESignaler._remove_forwarding


def remove_any_ingress_ftn(self, lsp):
    """Mutant: a torn-down LSP takes every FTN entry at its ingress,
    whatever each steers onto."""
    remove_forwarding(self, lsp)
    ftn = self.nodes[lsp.ingress].ftn
    for fec, _entry in list(ftn):
        ftn.remove(fec)


def reinstall_from_any_retained(self, fec_id):
    """Mutant: a router whose path went falls back to any retained
    binding with a session up, not the one from its SPF next hop."""
    state = self.process.fecs.get(fec_id)
    if state is None or state.withdrawn:
        return
    if self.name == state.egress or fec_id in self.local_labels:
        return
    for peer, label_in in sorted(self.bindings.get(fec_id, {}).items())[::-1]:
        if peer in self.sessions:
            self._install_from(fec_id, peer, label_in)
            return


CHAIN = (["n0", "n1", "n2"], {("n0", "n1"): 1, ("n1", "n2"): 1}, [True, False, True])
#: a ring whose shortest n0 -> n2 path is n0-n1-n2
RING = (
    ["n0", "n1", "n2", "n3"],
    {("n0", "n1"): 1, ("n1", "n2"): 1, ("n2", "n3"): 2, ("n3", "n0"): 2},
    [True, True, True, True],
)
#: n0 reaches n2 over n1 (2), n3 (3) or n4 (6)
FAN = (
    ["n0", "n1", "n2", "n3", "n4"],
    {("n0", "n1"): 1, ("n1", "n2"): 1, ("n0", "n3"): 1, ("n3", "n2"): 2,
     ("n0", "n4"): 1, ("n4", "n2"): 5},
    [False] * 5,
)
MUTANTS = {
    "ftn refresh at every router": (
        LDPProcess, "refresh_node", refresh_every_router_with_a_next_hop,
        check_ldp, LDP_CASES,
        # the transit LSR n1 is refreshed
        (CHAIN, [("establish", 2, 0), ("refresh", 1)]),
    ),
    "teardown removes any ingress ftn": (
        RSVPTESignaler, "_remove_forwarding", remove_any_ingress_ftn,
        check_te, TE_CASES,
        # t1 takes the FEC over from t0, then t0 is torn down
        (RING, [("setup", k, 0, 2, None, 0.0, None, 1) for k in (0, 1)]
         + [("teardown", 0)]),
    ),
    "a non-shortest next hop after a link failure": (
        LDPSpeaker, "_reinstall_from_retained", reinstall_from_any_retained,
        check_message, MESSAGE_CASES,
        # n0 loses its path over n1 and falls back to n4's binding
        ((FAN, [2]), [("link_down", 1, 2)]),
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_seeded_mutant_is_caught(mutant, monkeypatch):
    cls, attr, body, check, _cases, example = MUTANTS[mutant]
    check(example)
    monkeypatch.setattr(cls, attr, body)
    with pytest.raises(AssertionError):
        check(example)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_seeded_mutant_is_found_by_search(mutant, monkeypatch):
    cls, attr, body, check, cases, _example = MUTANTS[mutant]
    monkeypatch.setattr(cls, attr, body)

    def caught(example) -> bool:
        try:
            check(example)
        except AssertionError:
            return True
        return False

    # raises NoSuchExample if 600 cases cannot tell the mutant apart
    find(
        cases,
        caught,
        settings=settings(
            max_examples=600, database=None, derandomize=True,
            phases=[Phase.generate],  # any counterexample: no shrinking
        ),
    )


# -- the lint: PHP is the constructor's ---------------------------------------
PROTOCOLS = ("ldp.py", "ldp_sessions.py", "rsvp_te.py", "frr.py")


def php_tests_around_nhlfe(source: str) -> List[int]:
    """Lines of ``NHLFE(`` calls guarded by, or containing, a test that
    mentions ``IMPLICIT_NULL``."""

    def mentions(node) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id == "IMPLICIT_NULL"
            for n in ast.walk(node)
        )

    tree = ast.parse(source)
    parent = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    offenders = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "NHLFE"):
            continue
        tests = [
            n for n in ast.walk(call) if isinstance(n, (ast.Compare, ast.IfExp))
        ]
        node = call
        while node in parent:
            up = parent[node]
            if isinstance(up, (ast.If, ast.IfExp, ast.While)) and node is not up.test:
                tests.append(up.test)
            node = up
        if any(mentions(test) for test in tests):
            offenders.append(call.lineno)
    return offenders


@pytest.mark.parametrize("module", PROTOCOLS)
def test_no_protocol_tests_implicit_null_around_an_nhlfe(module):
    path = pathlib.Path(repro.control.__file__).parent / module
    assert php_tests_around_nhlfe(path.read_text()) == []


#: each PHP branch shape the lint targets, and the NHLFE lines it flags
PHP_SHAPES = {
    "an if on the downstream label": ("""
if downstream == IMPLICIT_NULL:
    ftn.install(fec, NHLFE(op=LabelOp.NOOP, next_hop=nh))
else:
    ftn.install(fec, NHLFE(op=LabelOp.PUSH, out_label=downstream, next_hop=nh))
""", [3, 5]),
    "a nested if under a PHP flag test": ("""
for name in live:
    if php and name == egress:
        labels[name] = IMPLICIT_NULL
    elif labels[nh] is IMPLICIT_NULL:
        if name in ingresses:
            ilm.install(label, NHLFE(op=LabelOp.POP, next_hop=nh))
""", [7]),
    "a conditional expression for the operation": ("""
ilm.install(label, NHLFE(
    op=LabelOp.POP if out == IMPLICIT_NULL else LabelOp.SWAP,
    out_label=None if out == IMPLICIT_NULL else out,
    next_hop=nh,
))
""", [2]),
    "a conditional expression choosing the entry": ("""
entry = (NHLFE(op=LabelOp.NOOP, next_hop=nh) if label == IMPLICIT_NULL
         else NHLFE(op=LabelOp.PUSH, out_label=label, next_hop=nh))
""", [2, 3]),
    "a while on the label": ("""
while hop_labels[i] != IMPLICIT_NULL:
    ilm.install(hop_labels[i], NHLFE(op=LabelOp.SWAP, out_label=1, next_hop=n))
    i += 1
""", [3]),
    "an entry in the test itself is not guarded": ("""
if NHLFE(op=LabelOp.POP) == entry and label != IMPLICIT_NULL:
    pass
""", []),
    "a mention that guards no entry": ("""
advertised = IMPLICIT_NULL if php else allocate()
ilm.install(advertised, NHLFE(op=LabelOp.POP))
""", []),
}


@pytest.mark.parametrize("shape", PHP_SHAPES)
def test_the_lint_flags_each_php_branch_shape(shape):
    source, flagged = PHP_SHAPES[shape]
    assert php_tests_around_nhlfe(source) == flagged
