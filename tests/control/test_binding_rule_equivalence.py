"""Differential tests for "a label binding becomes forwarding state in
one place".

Each control-plane protocol used to spell out, at every install and
refresh site, how a label binding turns into ILM/FTN entries -- each
with its own branch for penultimate-hop popping.  Now PHP is the NHLFE
constructor's (a PUSH of ``IMPLICIT_NULL`` is a NOOP, a SWAP to it a
POP), each protocol derives a binding's entries once for install and
refresh, and CR-LDP is RSVP-TE with hard state.  The bodies this
replaced are kept below, verbatim, as oracle subclasses; they exist
only here.  The control plane no longer offers PHP (every egress
advertises a real label), so the oracles run with ``php`` False: their
PHP branches stay, verbatim, for the lint below.  Random connected
topologies x FEC sets x operation sequences (crash/restart, reconverge, graceful restart, teardown,
FRR switchover/revert, ``refresh_node``) must leave both
worlds with the same table contents in insertion order, the same table
write sequence, stale marks, allocator state, protocol state and
stats, and the same error type and message on every misuse.

The only differences are two fixes, each applied to the oracle by a
named wrapper and asserted on its own below:

* an LSP that goes away (``teardown``, ``expire_stale``, CR-LDP's
  ``release``) takes its ingress FTN entry with it when that entry still
  steers onto the LSP -- the replaced code left it pushing a label the
  allocator had freed for the next LSP -- and leaves it when it steers
  elsewhere (onto an FRR backup);
* CR-LDP refuses an explicit route that revisits a node, as RSVP-TE
  always has, and words its refusals as RSVP-TE does.

Two seeded mutants show the suite is not vacuous, and an AST lint keeps
PHP branches away from the protocols' NHLFE construction.
"""

import ast
import dataclasses
import inspect
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import repro.control
from repro.control.cspf import cspf_path
from repro.control.frr import FastRerouteManager
from repro.control.labels import LabelAllocator
from repro.control.ldp import FECBinding, LDPProcess
from repro.control.ldp_sessions import LDPSpeaker, MessageLDPProcess
from repro.control.lsp import LSP
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
from repro.obs.events import LabelMappingInstalled
from repro.obs.telemetry import get_telemetry


# -- the oracles: the replaced bodies, verbatim ------------------------------
class OldLDPProcess(LDPProcess):
    def establish_fec(
        self,
        fec: FEC,
        egress: str,
    ) -> FECBinding:
        php = False
        ingresses: Optional[List[str]] = None
        if egress not in self.nodes:
            raise KeyError(f"unknown egress {egress!r}")
        binding = FECBinding(fec=fec, egress=egress)
        unavailable = self.down_nodes | self.restarting
        live = [n for n in self.nodes if n not in unavailable]

        for name in live:
            if name == egress:
                binding.labels[name] = (
                    IMPLICIT_NULL if php else self.allocators[name].allocate()
                )
            else:
                binding.labels[name] = self.allocators[name].allocate()

        if egress in live:
            for name in live:
                if name == egress:
                    continue
                spf = self.lsdb.spf(name)
                nh = spf.next_hop(egress)
                if nh is not None and nh in binding.labels:
                    binding.next_hops[name] = nh

        if not php and egress in binding.labels:
            self.nodes[egress].ilm.install(
                binding.labels[egress], NHLFE(op=LabelOp.POP)
            )
        for name, nh in binding.next_hops.items():
            node = self.nodes[name]
            node.ilm.install(
                binding.labels[name],
                NHLFE(
                    op=LabelOp.SWAP,
                    out_label=binding.labels[nh],
                    next_hop=nh,
                ),
            )
        targets = (
            ingresses
            if ingresses is not None
            else [
                name
                for name, node in self.nodes.items()
                if node.is_edge and name != egress and name not in unavailable
            ]
        )
        for name in targets:
            nh = binding.next_hops.get(name)
            if nh is None:
                continue
            binding.ingresses.append(name)
            downstream = binding.labels[nh]
            if downstream == IMPLICIT_NULL:
                self.nodes[name].ftn.install(
                    fec, NHLFE(op=LabelOp.NOOP, next_hop=nh)
                )
            else:
                self.nodes[name].ftn.install(
                    fec,
                    NHLFE(op=LabelOp.PUSH, out_label=downstream, next_hop=nh),
                )
        self.bindings.append(binding)
        tel = get_telemetry()
        if tel.enabled:
            for name, label in sorted(binding.labels.items()):
                tel.events.emit(
                    LabelMappingInstalled(
                        node=name,
                        fec_id=str(fec),
                        label=label,
                        next_hop=binding.next_hops.get(name),
                    )
                )
        return binding

    def refresh_node(self, name: str) -> Tuple[int, int]:
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        node = self.nodes[name]
        ilm_writes = ftn_writes = 0
        for binding in self.bindings:
            if name == binding.egress and name in binding.labels:
                node.ilm.install(
                    binding.labels[name], NHLFE(op=LabelOp.POP)
                )
                ilm_writes += 1
            nh = binding.next_hops.get(name)
            if nh is not None and name in binding.labels:
                node.ilm.install(
                    binding.labels[name],
                    NHLFE(
                        op=LabelOp.SWAP,
                        out_label=binding.labels[nh],
                        next_hop=nh,
                    ),
                )
                ilm_writes += 1
            if name in binding.ingresses and nh is not None:
                downstream = binding.labels[nh]
                if downstream == IMPLICIT_NULL:
                    node.ftn.install(
                        binding.fec, NHLFE(op=LabelOp.NOOP, next_hop=nh)
                    )
                else:
                    node.ftn.install(
                        binding.fec,
                        NHLFE(
                            op=LabelOp.PUSH,
                            out_label=downstream,
                            next_hop=nh,
                        ),
                    )
                ftn_writes += 1
        return ilm_writes, ftn_writes


class OldRSVPTESignaler(RSVPTESignaler):
    def _install_route(
        self,
        route: List[str],
        cos: Optional[int],
        fec: Optional[FEC],
    ) -> List[Optional[int]]:
        php = False
        hop_labels: List[Optional[int]] = [None] * (len(route) - 1)
        downstream_label: Optional[int] = IMPLICIT_NULL if php else None
        for i in range(len(route) - 1, 0, -1):
            node_name = route[i]
            self.stats.resv_messages += 1
            if i == len(route) - 1:
                if php:
                    label = IMPLICIT_NULL
                else:
                    label = self.allocators[node_name].allocate()
                    self.nodes[node_name].ilm.install(
                        label, NHLFE(op=LabelOp.POP)
                    )
            else:
                label = self.allocators[node_name].allocate()
                self.nodes[node_name].ilm.install(
                    label,
                    NHLFE(
                        op=LabelOp.SWAP,
                        out_label=downstream_label,
                        next_hop=route[i + 1],
                        cos=cos,
                    ),
                )
            hop_labels[i - 1] = label
            downstream_label = label

        first_label = hop_labels[0]
        if fec is not None:
            if first_label == IMPLICIT_NULL:
                self.nodes[route[0]].ftn.install(
                    fec, NHLFE(op=LabelOp.NOOP, next_hop=route[1])
                )
            else:
                self.nodes[route[0]].ftn.install(
                    fec,
                    NHLFE(
                        op=LabelOp.PUSH,
                        out_label=first_label,
                        next_hop=route[1],
                        cos=cos,
                    ),
                )
        return hop_labels

    def refresh_node(self, name: str) -> int:
        writes = 0
        for lsp_name in sorted(self.lsps):
            lsp = self.lsps[lsp_name]
            route = lsp.path
            for i in range(1, len(route)):
                if route[i] != name:
                    continue
                label = lsp.hop_labels[i - 1]
                if label is None or label == IMPLICIT_NULL:
                    continue
                if i == len(route) - 1:
                    self.nodes[name].ilm.install(
                        label, NHLFE(op=LabelOp.POP)
                    )
                else:
                    self.nodes[name].ilm.install(
                        label,
                        NHLFE(
                            op=LabelOp.SWAP,
                            out_label=lsp.hop_labels[i],
                            next_hop=route[i + 1],
                            cos=lsp.cos,
                        ),
                    )
                writes += 1
        return writes

    def teardown(self, name: str) -> None:
        lsp = self.lsps.pop(name, None)
        if lsp is None:
            raise KeyError(f"unknown LSP {name!r}")
        self._last_refresh.pop(name, None)
        fec = self._fec_of.pop(name, None)
        if fec is not None:
            tel = get_telemetry()
            if tel.enabled and tel.flows is not None:
                tel.flows.close_fec(str(getattr(fec, "prefix", fec)))
        self.stats.teardowns += 1
        route = lsp.path
        for i in range(1, len(route)):
            node_name = route[i]
            label = lsp.hop_labels[i - 1]
            if label is None or label == IMPLICIT_NULL:
                continue
            if label in self.nodes[node_name].ilm:
                self.nodes[node_name].ilm.remove(label)
            self.allocators[node_name].release(label)
        for a, b in zip(route, route[1:]):
            self.topology.link(a, b).release(a, lsp.bandwidth_bps)
        lsp.up = False
        self._note_lsp("teardown", name)


@dataclass
class CRLDPStats:
    request_messages: int = 0
    mapping_messages: int = 0
    release_messages: int = 0
    setup_failures: int = 0


class OldCRLDPSignaler:
    def __init__(self, topology: Topology, nodes: Dict[str, LSRNode]) -> None:
        self.topology = topology
        self.nodes = nodes
        self.allocators: Dict[str, LabelAllocator] = {
            name: LabelAllocator(first=200_000) for name in nodes
        }
        self.stats = CRLDPStats()
        self.lsps: Dict[str, LSP] = {}

    def setup(
        self,
        name: str,
        ingress: str,
        egress: str,
        explicit_route: Optional[List[str]] = None,
        bandwidth_bps: float = 0.0,
        cos: Optional[int] = None,
        fec: Optional[FEC] = None,
    ) -> LSP:
        php = False
        if name in self.lsps:
            raise SignalingError(f"LSP {name!r} already exists")
        if explicit_route is None:
            try:
                explicit_route = cspf_path(
                    self.topology, ingress, egress, bandwidth_bps=bandwidth_bps
                )
            except Exception as exc:
                self.stats.setup_failures += 1
                raise SignalingError(f"CSPF failed for {name!r}: {exc}") from exc
        route = explicit_route
        if route[0] != ingress or route[-1] != egress or len(route) < 2:
            raise SignalingError("explicit route must span ingress..egress")
        for a, b in zip(route, route[1:]):
            if not self.topology.has_link(a, b):
                raise SignalingError(f"explicit route uses missing link {a}-{b}")

        for a, b in zip(route, route[1:]):
            self.stats.request_messages += 1
            if self.topology.link(a, b).reservable(a) + 1e-9 < bandwidth_bps:
                self.stats.setup_failures += 1
                raise SignalingError(
                    f"admission control: link {a}-{b} lacks headroom"
                )

        hop_labels: List[Optional[int]] = [None] * (len(route) - 1)
        downstream: Optional[int] = None
        for i in range(len(route) - 1, 0, -1):
            node_name = route[i]
            self.stats.mapping_messages += 1
            if i == len(route) - 1:
                label = IMPLICIT_NULL if php else self.allocators[node_name].allocate()
                if not php:
                    self.nodes[node_name].ilm.install(label, NHLFE(op=LabelOp.POP))
            else:
                label = self.allocators[node_name].allocate()
                self.nodes[node_name].ilm.install(
                    label,
                    NHLFE(
                        op=LabelOp.SWAP,
                        out_label=downstream,
                        next_hop=route[i + 1],
                        cos=cos,
                    ),
                )
            hop_labels[i - 1] = label
            downstream = label

        if fec is not None:
            first = hop_labels[0]
            if first == IMPLICIT_NULL:
                self.nodes[ingress].ftn.install(
                    fec, NHLFE(op=LabelOp.NOOP, next_hop=route[1])
                )
            else:
                self.nodes[ingress].ftn.install(
                    fec,
                    NHLFE(
                        op=LabelOp.PUSH,
                        out_label=first,
                        next_hop=route[1],
                        cos=cos,
                    ),
                )

        for a, b in zip(route, route[1:]):
            self.topology.link(a, b).reserve(a, bandwidth_bps)

        lsp = LSP(
            name=name,
            path=list(route),
            hop_labels=hop_labels,
            bandwidth_bps=bandwidth_bps,
            cos=cos,
            protocol="cr-ldp",
        )
        self.lsps[name] = lsp
        return lsp

    def release(self, name: str) -> None:
        lsp = self.lsps.pop(name, None)
        if lsp is None:
            raise KeyError(f"unknown LSP {name!r}")
        route = lsp.path
        self.stats.release_messages += lsp.hops
        for i in range(1, len(route)):
            label = lsp.hop_labels[i - 1]
            if label is None or label == IMPLICIT_NULL:
                continue
            node = self.nodes[route[i]]
            if label in node.ilm:
                node.ilm.remove(label)
            self.allocators[route[i]].release(label)
        for a, b in zip(route, route[1:]):
            self.topology.link(a, b).release(a, lsp.bandwidth_bps)
        lsp.up = False


class OldFastRerouteManager(FastRerouteManager):
    def _steer(self, protected, lsp: LSP) -> None:
        ingress_node = self.signaler.nodes[lsp.ingress]
        first_label = lsp.hop_labels[0]
        if first_label is None or first_label == IMPLICIT_NULL:
            nhlfe = NHLFE(op=LabelOp.NOOP, next_hop=lsp.path[1])
        else:
            nhlfe = NHLFE(
                op=LabelOp.PUSH,
                out_label=first_label,
                next_hop=lsp.path[1],
            )
        ingress_node.ftn.install(protected.fec, nhlfe)


class OldLDPSpeaker(LDPSpeaker):
    def _install_from(self, fec_id: str, peer: str, label_in: int) -> None:
        state = self.process.fecs[fec_id]
        label = self.allocator.allocate()
        self.local_labels[fec_id] = label
        self.node.ilm.install(
            label,
            NHLFE(op=LabelOp.SWAP, out_label=label_in, next_hop=peer),
        )
        if self.node.is_edge:
            self.node.ftn.install(
                state.fec,
                NHLFE(op=LabelOp.PUSH, out_label=label_in, next_hop=peer),
            )
        state.advertised[self.name] = label
        state.installed_at[self.name] = self.process.scheduler.now
        self._note_install(fec_id, label, next_hop=peer)
        self._advertise(fec_id)

    def _refresh_from(self, fec_id: str, peer: str, label_in: int) -> None:
        state = self.process.fecs[fec_id]
        label = self.local_labels[fec_id]
        nhlfe = self.node.ilm.get(label)
        if nhlfe is None or nhlfe.next_hop != peer:
            return
        if self._next_hop_to_egress(state.egress) != peer:
            return
        if self.node.ilm.is_stale(label) or nhlfe.out_label != label_in:
            self.node.ilm.install(
                label,
                NHLFE(op=LabelOp.SWAP, out_label=label_in, next_hop=peer),
            )
        if self.node.is_edge:
            ftn_nhlfe = self.node.ftn.entry_for(state.fec)
            if ftn_nhlfe is not None and ftn_nhlfe.next_hop == peer and (
                self.node.ftn.is_stale(state.fec)
                or ftn_nhlfe.out_label != label_in
            ):
                self.node.ftn.install(
                    state.fec,
                    NHLFE(op=LabelOp.PUSH, out_label=label_in, next_hop=peer),
                )


class OldMessageLDPProcess(MessageLDPProcess):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.speakers = {
            name: OldLDPSpeaker(self, speaker.node)
            for name, speaker in self.speakers.items()
        }

    def refresh_node(self, name: str) -> Tuple[int, int]:
        speaker = self.speakers[name]
        node = speaker.node
        ilm_writes = ftn_writes = 0
        for fec_id in sorted(speaker.local_labels):
            state = self.fecs.get(fec_id)
            if state is None or state.withdrawn:
                continue
            label = speaker.local_labels[fec_id]
            if name == state.egress:
                node.ilm.install(label, NHLFE(op=LabelOp.POP))
                ilm_writes += 1
                continue
            nh = speaker._next_hop_to_egress(state.egress)
            if nh is None:
                continue
            label_in = speaker.bindings.get(fec_id, {}).get(nh)
            if label_in is None:
                continue
            node.ilm.install(
                label,
                NHLFE(op=LabelOp.SWAP, out_label=label_in, next_hop=nh),
            )
            ilm_writes += 1
            if node.is_edge:
                node.ftn.install(
                    state.fec,
                    NHLFE(
                        op=LabelOp.PUSH, out_label=label_in, next_hop=nh
                    ),
                )
                ftn_writes += 1
        return ilm_writes, ftn_writes


# -- fix 1, applied to the oracles by name ------------------------------------
def steers_onto(nodes, fec: FEC, lsp: LSP) -> bool:
    """Does the ingress FTN entry for ``fec`` still steer onto ``lsp``?
    (Compared with the replaced code's own derivation of that entry.)"""
    first = lsp.hop_labels[0]
    if first == IMPLICIT_NULL:
        want = NHLFE(op=LabelOp.NOOP, next_hop=lsp.path[1])
    else:
        want = NHLFE(
            op=LabelOp.PUSH, out_label=first, next_hop=lsp.path[1], cos=lsp.cos
        )
    return nodes[lsp.ingress].ftn.entry_for(fec) == want


class FixedOldRSVPTESignaler(OldRSVPTESignaler):
    """The replaced RSVP-TE with fix 1 around its verbatim bodies."""

    def teardown(self, name: str) -> None:
        lsp, fec = self.lsps.get(name), self._fec_of.get(name)
        steering = fec is not None and steers_onto(self.nodes, fec, lsp)
        try:
            super().teardown(name)
        finally:
            if steering:
                self.nodes[lsp.ingress].ftn.remove(fec)

class FixedOldCRLDPSignaler(OldCRLDPSignaler):
    """The replaced CR-LDP with fix 1 (it kept no FEC, so this does).
    ``releases`` counts what teardown now counts: it counted messages."""

    def __init__(self, topology: Topology, nodes: Dict[str, LSRNode]) -> None:
        super().__init__(topology, nodes)
        self.fec_of: Dict[str, FEC] = {}
        self.releases = 0

    def setup(self, name, ingress, egress, explicit_route=None,
              bandwidth_bps=0.0, cos=None, fec=None) -> LSP:
        lsp = super().setup(name, ingress, egress, explicit_route,
                            bandwidth_bps, cos, fec)
        if fec is not None:
            self.fec_of[name] = fec
        return lsp

    def release(self, name: str) -> None:
        lsp, fec = self.lsps.get(name), self.fec_of.pop(name, None)
        steering = fec is not None and steers_onto(self.nodes, fec, lsp)
        self.releases += lsp is not None
        try:
            super().release(name)
        finally:
            if steering:
                self.nodes[lsp.ingress].ftn.remove(fec)


# -- worlds: one topology, its routers and a control plane --------------------
#: link metrics from a small range, so equal-cost ties come up
METRICS = st.integers(1, 3)
#: a node, by index modulo the topology's size; GHOST is an unknown name
GHOST = 8
NODE = st.integers(0, GHOST)


@st.composite
def topologies(draw, min_nodes: int = 3, max_nodes: int = 6):
    """(names, {link: metric}, per-node LER flag): a random spanning
    tree keeps it connected, extra links make alternate paths."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"n{i}" for i in range(n)]
    links: Dict[Tuple[str, str], int] = {}
    for i in range(1, n):
        links[(names[draw(st.integers(0, i - 1))], names[i])] = draw(METRICS)
    for a, b in draw(st.lists(st.tuples(NODE, NODE), max_size=n)):
        a, b = names[a % n], names[b % n]
        if a != b and (a, b) not in links and (b, a) not in links:
            links[(a, b)] = draw(METRICS)
    edge = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return names, links, edge


def recorded(nodes: Dict[str, LSRNode], log: list) -> None:
    """Append every successful table write to ``log``, in order."""
    for name, node in nodes.items():
        for kind in ("ilm", "ftn"):
            table = getattr(node, kind)
            for method in ("install", "remove"):
                setattr(table, method, _logged(
                    getattr(table, method), log, (name, kind, method)
                ))


def _logged(write, log, key):
    def call(*args):
        write(*args)
        log.append((*key, *args))
    return call


def outcome(fn):
    """What ``fn`` did: its value, or its exception's type and message."""
    try:
        return ("ok", fn())
    except Exception as exc:  # every misuse must match, whatever it is
        return ("raised", type(exc), str(exc))


class World:
    """A topology, its routers (writes recorded) and helpers shared by
    every control plane."""

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
        self.log: list = []
        recorded(self.nodes, self.log)
        #: removed links -> their attributes, for restoring
        self.removed: Dict[Tuple[str, str], object] = {}

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

    def tables(self):
        return [
            (
                name,
                list(node.ilm),
                node.ilm.stale_labels(),
                node.ilm.generation,
                list(node.ftn._bank.items()),
                node.ftn.stale_fecs(),
                node.ftn.generation,
            )
            for name, node in sorted(self.nodes.items())
        ]

    def reservations(self):
        return [
            (a, b, sorted(attrs.reservable_bps.items()))
            for a, b, attrs in self.topo.edges_with_attrs()
        ]


def allocator_state(allocator: LabelAllocator):
    return allocator._next, sorted(allocator._free), sorted(allocator._allocated)


def lsp_facts(lsp: LSP):
    return (
        lsp.name, list(lsp.path), list(lsp.hop_labels), lsp.bandwidth_bps,
        lsp.cos, lsp.protocol, lsp.up,
    )


def binding_facts(binding: FECBinding):
    return (
        binding.fec, binding.egress, list(binding.labels.items()),
        list(binding.next_hops.items()), list(binding.ingresses),
    )


def assert_same(new, old, ops) -> None:
    """Apply each op to both worlds; after every one, compare what it
    returned or raised and everything either world can observe."""
    for op in ops:
        got, want = outcome(lambda: new.apply(op)), outcome(lambda: old.apply(op))
        assert got == want, op
        assert new.facts() == old.facts(), op


# -- converged LDP ------------------------------------------------------------
class LDPWorld(World):
    def __init__(self, process_cls, spec) -> None:
        super().__init__(spec)
        self.ldp = process_cls(self.topo, self.nodes)
        #: crashed node -> the links its crash took down
        self.crashed: Dict[str, List[Tuple[str, str]]] = {}

    def apply(self, op):
        kind, *args = op
        ldp = self.ldp
        if kind == "establish":
            egress, k = args
            fec = PrefixFEC(f"10.{k}.0.0/16")
            return binding_facts(ldp.establish_fec(fec, self.name(egress)))
        if kind == "withdraw":
            if ldp.bindings:
                ldp.withdraw_fec(ldp.bindings[args[0] % len(ldp.bindings)])
            return None
        if kind == "reconverge":
            return ldp.reconverge()
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
            return ldp.reconverge()
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
            return ldp.reconverge()
        if kind == "gr_begin":
            return ldp.begin_graceful_restart(name)
        if kind == "gr_complete":
            return ldp.complete_graceful_restart(name)
        if kind == "refresh":
            return ldp.refresh_node(name)
        if kind in ("stale", "flush") and name in self.nodes:
            node = self.nodes[name]
            if kind == "stale":
                return node.ilm.mark_all_stale(), node.ftn.mark_all_stale()
            return node.ilm.flush_stale(), node.ftn.flush_stale()
        if kind in ("link_down", "link_up"):
            other = self.name(args[1])
            crashed = {name, other} & set(self.crashed)
            if crashed or not getattr(self, kind)(name, other):
                return None
            return ldp.reconverge()
        return None

    def facts(self):
        ldp = self.ldp
        return (
            self.tables(),
            self.log,
            {n: allocator_state(a) for n, a in ldp.allocators.items()},
            [binding_facts(b) for b in ldp.bindings],
            sorted(ldp.down_nodes),
            sorted(ldp.restarting),
        )


ldp_ops = st.one_of(
    st.tuples(
        st.just("establish"), NODE, st.integers(0, 3),
    ),
    st.tuples(st.just("withdraw"), st.integers(0, 5)),
    st.tuples(st.just("reconverge")),
    st.tuples(
        st.sampled_from(
            ["crash", "restart", "gr_begin", "gr_complete", "refresh",
             "stale", "flush"]
        ),
        NODE,
    ),
    st.tuples(st.sampled_from(["link_down", "link_up"]), NODE, NODE),
)


def check_ldp(example) -> None:
    spec, ops = example
    assert_same(LDPWorld(LDPProcess, spec), LDPWorld(OldLDPProcess, spec), ops)


LDP_CASES = st.tuples(topologies(), st.lists(ldp_ops, min_size=4, max_size=25))


@settings(max_examples=200, deadline=None)
@given(LDP_CASES)
def test_converged_ldp_matches_the_replaced_bodies(example):
    check_ldp(example)


# -- RSVP-TE + FRR ------------------------------------------------------------
#: reservations against 10 Mb/s links: two 6 Mb/s LSPs cannot share one
BANDWIDTH = st.sampled_from([0.0, 3e6, 6e6])
#: an explicit route: None (CSPF), a walk from the ingress choosing a
#: neighbour per step (it may revisit a node), or raw node indices
ROUTES = st.one_of(
    st.none(),
    st.none(),
    st.tuples(st.just("walk"), st.lists(st.integers(0, 5), min_size=1, max_size=4)),
    st.tuples(st.just("raw"), st.lists(NODE, min_size=1, max_size=4)),
)


class TEWorld(World):
    def __init__(self, signaler_cls, frr_cls, spec) -> None:
        super().__init__(spec)
        self.sig = signaler_cls(self.topo, self.nodes)
        self.frr = frr_cls(self.sig) if frr_cls is not None else None

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
        lsp = self.sig.setup(
            f"t{name}",
            ingress,
            route[-1] if route else self.name(egress),
            explicit_route=route,
            bandwidth_bps=bw,
            cos=cos,
            fec=None if fec is None else PrefixFEC(f"10.{fec}.0.0/16"),
        )
        return lsp_facts(lsp)

    def apply(self, op):
        kind, *args = op
        sig, frr = self.sig, self.frr
        if kind == "setup":
            return self.setup(args)
        if kind == "teardown":
            return sig.teardown(self.lsp_name(args[0]))
        if kind == "refresh":
            return sig.refresh(self.lsp_name(args[0]), args[1])
        if kind == "expire":
            return sig.expire_stale(*args)
        if kind == "protect":
            name, ingress, egress, fec = args
            protected = frr.protect(
                f"p{name}", self.name(ingress), self.name(egress),
                PrefixFEC(f"10.{fec}.0.0/16"),
            )
            return lsp_facts(protected.primary), lsp_facts(protected.backup)
        if kind == "revert":
            return frr.revert(f"p{args[0]}")
        name = self.name(args[0])
        if kind == "refresh_node":
            return sig.refresh_node(name)
        if kind == "refresh_ingress":
            return frr.refresh_ingress(name)
        if kind == "stale":
            if name in self.nodes:
                self.nodes[name].ilm.mark_all_stale()
                self.nodes[name].ftn.mark_all_stale()
            return None
        other = self.name(args[1])
        if kind == "fail":
            self.link_down(name, other)
            return frr.handle_link_failure(name, other)
        if kind == "recover":
            self.link_up(name, other)
            return frr.handle_link_recovery(name, other)
        return None

    def facts(self):
        sig = self.sig
        facts = (
            self.tables(),
            self.log,
            self.reservations(),
            {n: allocator_state(a) for n, a in sig.allocators.items()},
            [lsp_facts(lsp) for lsp in sig.lsps.values()],
            list(sig._last_refresh.items()),
            list(sig._fec_of.items()),
            dataclasses.asdict(sig.stats),
        )
        if self.frr is None:
            return facts
        return facts + (
            [
                (p.name, p.fec, p.active, p.primary.name, p.backup.name)
                for p in self.frr.protected.values()
            ],
            self.frr.switchovers,
            sorted(self.frr.failed_links),
        )


SETUP = (
    st.integers(0, 3), NODE, NODE, ROUTES, BANDWIDTH,
    st.one_of(st.none(), st.integers(0, 7)),
    st.one_of(st.none(), st.integers(0, 3)),
)
te_ops = st.one_of(
    st.tuples(st.just("setup"), *SETUP),
    st.tuples(st.just("setup"), *SETUP),
    st.tuples(st.just("teardown"), st.integers(0, 6)),
    st.tuples(st.just("refresh"), st.integers(0, 6), st.sampled_from([10.0, 50.0])),
    st.tuples(st.just("expire"), st.sampled_from([60.0, 120.0]),
              st.sampled_from([30.0, 90.0])),
    st.tuples(st.just("protect"), st.integers(0, 2), NODE, NODE,
              st.integers(0, 3)),
    st.tuples(st.just("revert"), st.integers(0, 2)),
    st.tuples(st.sampled_from(["refresh_node", "refresh_ingress", "stale"]), NODE),
    st.tuples(st.sampled_from(["fail", "recover"]), NODE, NODE),
)


def check_te(example) -> None:
    spec, ops = example
    assert_same(
        TEWorld(RSVPTESignaler, FastRerouteManager, spec),
        TEWorld(FixedOldRSVPTESignaler, OldFastRerouteManager, spec),
        ops,
    )


TE_CASES = st.tuples(topologies(), st.lists(te_ops, min_size=6, max_size=30))


@settings(max_examples=300, deadline=None)
@given(TE_CASES)
def test_rsvp_te_and_frr_match_the_replaced_bodies(example):
    check_te(example)


# -- CR-LDP -------------------------------------------------------------------
class CRLDPWorld(TEWorld):
    def __init__(self, signaler_cls, spec) -> None:
        super().__init__(signaler_cls, None, spec)

    def apply(self, op):
        kind, *args = op
        if kind == "setup":
            return self.setup(args)
        if kind == "release":
            return self.sig.release(self.lsp_name(args[0]))
        if kind in ("fail", "recover"):
            a, b = self.name(args[0]), self.name(args[1])
            return (self.link_down if kind == "fail" else self.link_up)(a, b)
        return super().apply(op)

    def facts(self):
        sig = self.sig
        if isinstance(sig, CRLDPSignaler):
            stats = (sig.stats.path_messages, sig.stats.resv_messages,
                     sig.stats.setup_failures, sig.stats.teardowns)
        else:
            stats = (sig.stats.request_messages, sig.stats.mapping_messages,
                     sig.stats.setup_failures, sig.releases)
        return (
            self.tables(),
            self.log,
            self.reservations(),
            {n: allocator_state(a) for n, a in sig.allocators.items()},
            [lsp_facts(lsp) for lsp in sig.lsps.values()],
            stats,
        )


crldp_ops = st.one_of(
    st.tuples(st.just("setup"), *SETUP),
    st.tuples(st.just("release"), st.integers(0, 6)),
    st.tuples(st.just("stale"), NODE),
    st.tuples(st.sampled_from(["fail", "recover"]), NODE, NODE),
)


#: refusals CR-LDP now words as RSVP-TE does -> the replaced wording
REWORDED = {
    "explicit route needs >= 2 nodes": "explicit route must span ingress..egress",
}


def check_crldp(example) -> None:
    """CR-LDP against the replaced class, with fix 2 asserted where it
    bites: a revisiting route is refused with nothing touched (the
    replaced class set it up), and a refusal is worded as RSVP-TE words
    it -- the same SignalingError family, naming the same link."""
    spec, ops = example
    new = CRLDPWorld(CRLDPSignaler, spec)
    old = CRLDPWorld(FixedOldCRLDPSignaler, spec)
    for op in ops:
        before = new.facts()
        got = outcome(lambda: new.apply(op))
        if got[0] == "raised" and got[2] == "explicit route revisits a node":
            assert new.facts() == before
            continue
        want = outcome(lambda: old.apply(op))
        if got[0] == "raised" and got[2].startswith("admission control: link "):
            assert issubclass(got[1], SetupError) and want[1] is SignalingError
            assert want[2].split(" lacks")[0] == got[2].split(" has only")[0]
        elif got[0] == "raised" and got[2] in REWORDED:
            assert want == ("raised", SignalingError, REWORDED[got[2]])
        else:
            assert got == want, op
        assert new.facts() == old.facts(), op


class TestCRLDP:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(topologies(), st.lists(crldp_ops, min_size=4, max_size=20)))
    def test_cr_ldp_matches_the_replaced_class(self, example):
        check_crldp(example)

    LINE = (["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}, [True, False, True])

    def test_it_is_hard_state(self):
        world = CRLDPWorld(CRLDPSignaler, self.LINE)
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
        route = ["a", "b", "a", "b", "c"]
        old = CRLDPWorld(OldCRLDPSignaler, self.LINE)
        assert old.sig.setup("c1", "a", "c", explicit_route=route).up
        new = CRLDPWorld(CRLDPSignaler, self.LINE)
        with pytest.raises(SignalingError, match="revisits a node"):
            new.sig.setup("c1", "a", "c", explicit_route=route)
        assert new.log == [] and new.sig.stats == type(new.sig.stats)()


# -- message-level LDP ----------------------------------------------------------
class MessageWorld(World):
    def __init__(self, process_cls, spec, egresses) -> None:
        super().__init__(spec)
        self.scheduler = EventScheduler()
        self.ldp = process_cls(self.topo, self.nodes, self.scheduler)
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
                value = node.ilm.flush_stale(), node.ftn.flush_stale()
            elif kind == "gr_begin":
                value = ldp.begin_graceful_restart(name)
            elif kind == "gr_complete":
                value = ldp.complete_graceful_restart(name)
            else:
                other = self.names[args[1] % len(self.names)]
                if kind == "link_down" and self.link_down(name, other):
                    ldp.drop_session(name, other, reason="link down")
                elif kind == "link_up":
                    self.link_up(name, other)
                elif kind == "drop" and self.topo.has_link(name, other):
                    ldp.drop_session(name, other)
                value = None
        self.scheduler.run(until=self.scheduler.now + 0.3)
        return value

    def facts(self):
        ldp = self.ldp
        return (
            self.tables(),
            self.log,
            [
                (
                    name,
                    allocator_state(s.allocator),
                    list(s.local_labels.items()),
                    {f: list(b.items()) for f, b in s.bindings.items()},
                    sorted(s.sessions),
                    s.restarting,
                )
                for name, s in sorted(ldp.speakers.items())
            ],
            [
                (f, list(s.advertised.items()), list(s.installed_at.items()),
                 s.withdrawn)
                for f, s in ldp.fecs.items()
            ],
            dict(ldp.message_counts),
            ldp.sessions_established,
            ldp.sessions_lost,
            ldp.sessions_recovered,
        )


message_ops = st.one_of(
    st.tuples(
        st.sampled_from(["refresh", "stale", "flush", "gr_begin", "gr_complete"]),
        NODE,
    ),
    st.tuples(st.sampled_from(["drop", "link_down", "link_up"]), NODE, NODE),
    st.tuples(st.just("withdraw"), st.integers(0, 3)),
)


@settings(max_examples=100, deadline=None)
@given(
    topologies(max_nodes=5),
    st.lists(NODE, min_size=1, max_size=3),
    st.lists(message_ops, min_size=2, max_size=10),
)
def test_message_ldp_matches_the_replaced_bodies(spec, egresses, ops):
    assert_same(
        MessageWorld(MessageLDPProcess, spec, egresses),
        MessageWorld(OldMessageLDPProcess, spec, egresses),
        ops,
    )


# -- fix 1 on its own -----------------------------------------------------------
def figure1():
    topo = paper_figure1(bandwidth_bps=10e6)
    nodes = {
        name: LSRNode(name, RouterRole.LER if name.startswith("ler") else RouterRole.LSR)
        for name in topo.nodes
    }
    return topo, nodes


ROUTE = ["ler-a", "lsr-1", "lsr-2", "ler-b"]
FEC_B = PrefixFEC("10.2.0.0/16")


class TestDanglingFTN:
    @pytest.mark.parametrize("cls", [RSVPTESignaler, OldRSVPTESignaler])
    def test_teardown_takes_the_ingress_ftn_with_it(self, cls):
        topo, nodes = figure1()
        sig = cls(topo, nodes)
        sig.setup("t", "ler-a", "ler-b", explicit_route=ROUTE, fec=FEC_B)
        sig.teardown("t")
        left = nodes["ler-a"].ftn.entry_for(FEC_B)
        # the next LSP is handed the freed label: the stale entry would
        # have steered this FEC into it
        other = sig.setup("u", "ler-a", "ler-b", explicit_route=ROUTE)
        assert other.hop_labels[0] == 100_000
        if cls is OldRSVPTESignaler:
            assert left == NHLFE(op=LabelOp.PUSH, out_label=100_000, next_hop="lsr-1")
        else:
            assert left is None

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

def test_a_push_of_implicit_null_is_a_noop():
    assert NHLFE(
        op=LabelOp.PUSH, out_label=IMPLICIT_NULL, next_hop="eg", cos=5
    ) == NHLFE(op=LabelOp.NOOP, next_hop="eg")
    assert NHLFE(op=LabelOp.SWAP, out_label=IMPLICIT_NULL, next_hop="eg") == NHLFE(
        op=LabelOp.POP, next_hop="eg"
    )


# -- seeded mutants: what the suite must be able to tell apart ----------------
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


def remove_any_ingress_ftn(self, lsp, fec):
    """Mutant: a torn-down LSP takes the FEC's ingress entry whatever
    it steers onto (an FRR backup's steering too)."""
    remove_forwarding(self, lsp, None)
    if fec is not None and self.nodes[lsp.ingress].ftn.entry_for(fec):
        self.nodes[lsp.ingress].ftn.remove(fec)


MUTANTS = {
    "ftn refresh at every router": (
        LDPProcess, "refresh_node", refresh_every_router_with_a_next_hop,
        check_ldp, LDP_CASES,
    ),
    "teardown removes any ingress ftn": (
        RSVPTESignaler, "_remove_forwarding", remove_any_ingress_ftn,
        check_te, TE_CASES,
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_seeded_mutant_is_caught(mutant, monkeypatch):
    cls, attr, body, check, cases = MUTANTS[mutant]
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


@pytest.mark.parametrize(
    "oracle,flagged",
    [(OldLDPProcess, 4), (OldRSVPTESignaler, 2), (OldCRLDPSignaler, 2),
     (OldFastRerouteManager, 2)],
)
def test_the_lint_flags_the_replaced_bodies(oracle, flagged):
    assert len(php_tests_around_nhlfe(inspect.getsource(oracle))) == flagged
