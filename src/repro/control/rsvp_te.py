"""RSVP-TE- and CR-LDP-style explicit-route LSP signalling.

The two label distribution protocols the paper names for QoS ("label
distribution protocols that use MPLS like RSVP-TE and CR-LDP").  The
model captures RSVP-TE's essence:

* a **PATH** message travels the explicit route from head-end to tail,
* a **RESV** message returns, allocating a label at every hop
  (downstream-on-demand) and reserving bandwidth on each link,
* the state is *soft*: it must be refreshed, and :meth:`expire_stale`
  tears down LSPs whose refreshes stopped (the failure-injection path).

CR-LDP (:class:`CRLDPSignaler`, the paper's reference [5]) is the same
setup with *hard* state: a Label Request / Label Mapping pair per hop
(counted as PATH / RESV), no refreshes, and an LSP lives until it is
released.

Setup installs the same ILM/FTN entries a converged RSVP-TE network
would hold, so the data plane can forward immediately afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.control.cspf import cspf_path
from repro.control.labels import LabelAllocator
from repro.control.lsp import LSP
from repro.mpls.fec import FEC
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode
from repro.net.topology import LinkAttributes, Topology
from repro.obs.events import LSPEvent
from repro.obs.telemetry import get_telemetry


class SignalingError(Exception):
    """LSP setup failed (admission control, bad route...)."""


class SetupError(SignalingError):
    """Admission control rejected the setup; nothing was reserved.

    Raised *before* any label, table entry, or bandwidth reservation is
    touched, so a caller catching it can retry against unchanged
    network state.
    """


@dataclass
class SignalingStats:
    path_messages: int = 0
    resv_messages: int = 0
    refresh_messages: int = 0
    teardowns: int = 0
    setup_failures: int = 0


# An LSP's forwarding state, derived once for setup, refresh, steering
# and teardown.

def hop_entry(
    path: Sequence[str],
    hop_labels: Sequence[Optional[int]],
    i: int,
    cos: Optional[int],
) -> NHLFE:
    """The ILM entry ``path[i]`` (``i >= 1``) holds under its label
    ``hop_labels[i - 1]``: POP at the tail, elsewhere SWAP to the next
    hop's label."""
    if i == len(path) - 1:
        return NHLFE(op=LabelOp.POP)
    return NHLFE(
        op=LabelOp.SWAP, out_label=hop_labels[i], next_hop=path[i + 1], cos=cos
    )


def ingress_entry(
    path: Sequence[str],
    hop_labels: Sequence[Optional[int]],
    cos: Optional[int],
) -> NHLFE:
    """The head-end FTN entry steering a FEC onto the LSP: PUSH its
    first hop label."""
    return NHLFE(
        op=LabelOp.PUSH, out_label=hop_labels[0], next_hop=path[1], cos=cos
    )


class RSVPTESignaler:
    """Head-end signalling over shared node/topology state."""

    #: what an LSP this signaler sets up records as its protocol
    protocol = "rsvp-te"
    #: where each node's label allocation for this signaler starts
    first_label = 100_000
    #: soft state: an LSP must be refreshed, or :meth:`expire_stale`
    #: tears it down
    soft_state = True

    def __init__(self, topology: Topology, nodes: Dict[str, LSRNode]) -> None:
        self.topology = topology
        self.nodes = nodes
        self.allocators: Dict[str, LabelAllocator] = {
            name: LabelAllocator(first=self.first_label) for name in nodes
        }
        self.stats = SignalingStats()
        self.lsps: Dict[str, LSP] = {}
        #: lsp name -> last refresh timestamp (soft-state LSPs only)
        self._last_refresh: Dict[str, float] = {}
        #: lsp name -> the FEC it was set up with
        self._fec_of: Dict[str, FEC] = {}
        #: lsp name -> the links it reserved on; a removed link is
        #: restored with its reservations, so teardown releases on
        #: these whether or not the link is up
        self._reserved: Dict[str, List[LinkAttributes]] = {}
        self.telemetry = get_telemetry()

    def _note_lsp(self, event: str, name: str, detail: str = "") -> None:
        """Telemetry: one LSP lifecycle event (no-op when disabled)."""
        tel = self.telemetry
        if tel.enabled:
            tel.lsp_events.labels(event).inc()
            if tel.flows is not None:
                tel.flows.note_lsp(name, event, detail)
            tel.events.emit(LSPEvent(name=name, event=event, detail=detail))

    # -- setup ---------------------------------------------------------
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
        """Signal an LSP; returns it up and installed.

        Without an ``explicit_route``, CSPF computes one honouring the
        bandwidth constraint.  Admission control rejects the
        setup (and reserves nothing) when any link lacks headroom.
        """
        if name in self.lsps:
            raise SignalingError(f"LSP {name!r} already exists")
        if explicit_route is None:
            try:
                explicit_route = cspf_path(
                    self.topology,
                    ingress,
                    egress,
                    bandwidth_bps=bandwidth_bps,
                )
            except Exception as exc:
                self.stats.setup_failures += 1
                raise SignalingError(f"CSPF failed for {name!r}: {exc}") from exc
        route = explicit_route
        self._validate_route(route, ingress, egress)

        # PATH downstream: verify hop adjacency and bandwidth headroom;
        # the PATH message stops at the first short hop
        links = []
        for a, b in zip(route, route[1:]):
            self.stats.path_messages += 1
            attrs = self.topology.link(a, b)
            links.append(attrs)
            if attrs.reservable(a) + 1e-9 < bandwidth_bps:
                self.stats.setup_failures += 1
                raise SetupError(
                    f"admission control: link {a}-{b} has only "
                    f"{attrs.reservable(a):g} bps unreserved, "
                    f"{bandwidth_bps:g} requested"
                )

        # RESV upstream: allocate labels, install state, reserve.
        hop_labels = self._install_route(route, cos=cos, fec=fec)

        # bandwidth reservation along the route
        for a, attrs in zip(route, links):
            attrs.reserve(a, bandwidth_bps)

        lsp = LSP(
            name=name,
            path=list(route),
            hop_labels=hop_labels,
            bandwidth_bps=bandwidth_bps,
            cos=cos,
            protocol=self.protocol,
        )
        self.lsps[name] = lsp
        self._reserved[name] = links
        if self.soft_state:
            self._last_refresh[name] = 0.0
        if fec is not None:
            self._fec_of[name] = fec
        self._note_lsp(
            "setup",
            name,
            detail=f"{'->'.join(route)} @ {bandwidth_bps:g} bps",
        )
        return lsp

    def _install_route(
        self,
        route: List[str],
        cos: Optional[int],
        fec: Optional[FEC],
    ) -> List[Optional[int]]:
        """RESV upstream: allocate labels, install ILM (and the ingress
        FTN when a FEC is steered).  Returns the hop labels."""
        tail = len(route) - 1
        hop_labels: List[Optional[int]] = [None] * tail
        for i in range(tail, 0, -1):
            self.stats.resv_messages += 1
            label = hop_labels[i - 1] = self.allocators[route[i]].allocate()
            self.nodes[route[i]].ilm.install(
                label, hop_entry(route, hop_labels, i, cos)
            )
        # head-end FTN entry (when a FEC is being steered onto the LSP)
        if fec is not None:
            self.nodes[route[0]].ftn.install(
                fec, ingress_entry(route, hop_labels, cos)
            )
        return hop_labels

    def _remove_forwarding(self, lsp: LSP) -> None:
        """Remove the ILM entries an LSP's hop labels hold and free the
        labels -- the one way an LSP's labels leave the network -- then
        every ingress FTN entry that steers onto this LSP (the FEC it
        was set up with, or one an FRR switchover moved onto it; an
        entry a later LSP or a switchover took over stays).
        Reservations are the caller's business."""
        for node_name, label in zip(lsp.path[1:], lsp.hop_labels):
            if label is None:
                continue
            ilm = self.nodes[node_name].ilm
            if label in ilm:
                ilm.remove(label)
            self.allocators[node_name].release(label)
        ftn = self.nodes[lsp.ingress].ftn
        steering = ingress_entry(lsp.path, lsp.hop_labels, lsp.cos)
        for fec, entry in list(ftn):
            if entry == steering:
                ftn.remove(fec)

    def _validate_route(self, route: List[str], ingress: str, egress: str) -> None:
        if len(route) < 2:
            raise SignalingError("explicit route needs >= 2 nodes")
        if route[0] != ingress or route[-1] != egress:
            raise SignalingError("explicit route must span ingress..egress")
        for a, b in zip(route, route[1:]):
            if not self.topology.has_link(a, b):
                raise SignalingError(f"explicit route uses missing link {a}-{b}")
        if len(set(route)) != len(route):
            raise SignalingError("explicit route revisits a node")

    # -- soft state ------------------------------------------------------
    def refresh(self, name: str, now: float) -> None:
        """Record a refresh for the LSP (one message per hop)."""
        lsp = self.lsps[name]
        if not self.soft_state:
            raise SignalingError(
                f"{self.protocol} LSP {name!r} is hard state: "
                "there is nothing to refresh"
            )
        self.stats.refresh_messages += lsp.hops
        self._last_refresh[name] = now

    def refresh_node(self, name: str) -> int:
        """Rewrite one node's ILM entries in place from the signalled
        LSP state -- same labels, same next hops, no RESV traffic.

        The delegation-fallback / controller-resync primitive (install
        clears RFC 3478 stale marks).  The ingress FTN is the FRR
        manager's to refresh (:meth:`FastRerouteManager.refresh_ingress`)
        since protection decides which LSP the FEC rides.  Returns the
        number of entries rewritten.
        """
        writes = 0
        for lsp_name in sorted(self.lsps):
            lsp = self.lsps[lsp_name]
            for i in range(1, len(lsp.path)):
                label = lsp.hop_labels[i - 1]
                if lsp.path[i] != name or label is None:
                    continue
                self.nodes[name].ilm.install(
                    label, hop_entry(lsp.path, lsp.hop_labels, i, lsp.cos)
                )
                writes += 1
        return writes

    def expire_stale(self, now: float, hold_time: float = 90.0) -> List[str]:
        """Tear down LSPs not refreshed within ``hold_time`` (never a
        hard-state one: it has no refresh to miss)."""
        stale = [
            name
            for name, last in self._last_refresh.items()
            if now - last > hold_time
        ]
        for name in stale:
            self._note_lsp("expired", name, detail=f"no refresh by t={now:g}")
            self.teardown(name)
        return stale

    # -- teardown ---------------------------------------------------------
    def teardown(self, name: str) -> None:
        lsp = self.lsps.pop(name, None)
        if lsp is None:
            raise KeyError(f"unknown LSP {name!r}")
        self._last_refresh.pop(name, None)
        fec = self._fec_of.pop(name, None)
        if fec is not None:
            tel = self.telemetry
            if tel.enabled and tel.flows is not None:
                # finish the flow records riding the torn-down FEC
                tel.flows.close_fec(str(getattr(fec, "prefix", fec)))
        self.stats.teardowns += 1
        self._remove_forwarding(lsp)
        for a, attrs in zip(lsp.path, self._reserved.pop(name)):
            attrs.release(a, lsp.bandwidth_bps)
        lsp.up = False
        self._note_lsp("teardown", name)


class CRLDPSignaler(RSVPTESignaler):
    """Constraint-routed LDP: RSVP-TE's explicit-route setup with hard
    state.

    A Label Request travels downstream and a Label Mapping returns --
    two messages per hop, counted as ``path_messages`` and
    ``resv_messages``.  Signalling rides ordered LDP sessions, so a
    setup completes or fails atomically; there are no refreshes (so
    :meth:`expire_stale` never returns one of its LSPs and
    :meth:`refresh` refuses), and an LSP lives until it is released.  Its labels start at 200 000, apart from RSVP-TE's.
    """

    protocol = "cr-ldp"
    first_label = 200_000
    soft_state = False

    #: explicit teardown (hard state: the only way an LSP dies)
    release = RSVPTESignaler.teardown
