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
(counted as PATH / RESV), no refreshes, no preemption, and an LSP lives
until it is released.

Setup installs the same ILM/FTN entries a converged RSVP-TE network
would hold, so the data plane can forward immediately afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.cspf import CSPFError, cspf_path
from repro.control.labels import LabelAllocator
from repro.control.lsp import LSP
from repro.mpls.fec import FEC
from repro.mpls.label import IMPLICIT_NULL, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode
from repro.mpls.transaction import TableTransaction
from repro.net.topology import Topology
from repro.obs.events import LSPEvent, LSPPreempted
from repro.obs.telemetry import get_telemetry


class SignalingError(Exception):
    """LSP setup failed (admission control, bad route...)."""


class SetupError(SignalingError):
    """Admission control rejected the setup; nothing was reserved.

    Raised *before* any label, table entry, or bandwidth reservation is
    touched, so a caller catching it can retry (e.g. at a stronger
    setup priority) against unchanged network state.
    """


@dataclass
class SignalingStats:
    path_messages: int = 0
    resv_messages: int = 0
    refresh_messages: int = 0
    teardowns: int = 0
    setup_failures: int = 0
    #: victims rerouted make-before-break onto an alternate path
    preempt_reroutes: int = 0
    #: victims torn down because no alternate path existed
    preempt_teardowns: int = 0
    #: setups refused because preemption could not free enough headroom
    preempt_declined: int = 0


# An LSP's forwarding state, derived once for setup, refresh, steering
# and teardown; PHP needs no case here, the NHLFE constructor turns a
# label of IMPLICIT_NULL into a POP or a NOOP.

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
    #: may admission preempt lower-priority LSPs?  (soft preemption:
    #: victims are rerouted make-before-break when a path exists)
    preemption_enabled = True
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
        #: lsp name -> FEC steered onto it (needed to rewrite the
        #: ingress FTN when a preemption reroutes the LSP)
        self._fec_of: Dict[str, FEC] = {}
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
        php: bool = False,
        include_affinity: int = 0,
        exclude_affinity: int = 0,
        setup_priority: int = 4,
        hold_priority: Optional[int] = None,
    ) -> LSP:
        """Signal an LSP; returns it up and installed.

        Without an ``explicit_route``, CSPF computes one honouring the
        bandwidth/affinity constraints.  Admission control rejects the
        setup (and reserves nothing) when any link lacks headroom --
        unless :attr:`preemption_enabled` and the shortfall links carry
        LSPs whose hold priority is numerically weaker than this
        setup's ``setup_priority``, in which case those victims are
        preempted (rerouted make-before-break when an alternate path
        exists, torn down otherwise) to free the headroom.

        Priorities follow RFC 3209: 0 is strongest, 7 weakest, and
        ``hold_priority`` (defaulting to ``setup_priority``) must hold
        at least as strongly as the LSP requests, i.e. be numerically
        ``<= setup_priority`` -- otherwise two LSPs could preempt each
        other forever.
        """
        if name in self.lsps:
            raise SignalingError(f"LSP {name!r} already exists")
        if hold_priority is None:
            hold_priority = setup_priority
        if not (0 <= setup_priority <= 7 and 0 <= hold_priority <= 7):
            raise SignalingError("priorities must be in 0..7")
        if hold_priority > setup_priority:
            raise SignalingError(
                "hold_priority must be numerically <= setup_priority"
            )
        if explicit_route is None:
            try:
                explicit_route = cspf_path(
                    self.topology,
                    ingress,
                    egress,
                    bandwidth_bps=bandwidth_bps,
                    include_affinity=include_affinity,
                    exclude_affinity=exclude_affinity,
                )
            except Exception as exc:
                self.stats.setup_failures += 1
                raise SignalingError(f"CSPF failed for {name!r}: {exc}") from exc
        route = explicit_route
        self._validate_route(route, ingress, egress)

        # PATH downstream: verify hop adjacency and bandwidth headroom.
        # A shortfall hop is fatal unless preemption can free it; the
        # PATH message stops at the first hopeless hop, exactly as the
        # non-preempting admission check always has.
        shortfalls: List[Tuple[str, str]] = []
        for a, b in zip(route, route[1:]):
            self.stats.path_messages += 1
            attrs = self.topology.link(a, b)
            if attrs.reservable(a) + 1e-9 < bandwidth_bps:
                if not (
                    self.preemption_enabled
                    and self._candidates_on(a, b, setup_priority, name)
                ):
                    self.stats.setup_failures += 1
                    raise SetupError(
                        f"admission control: link {a}-{b} has only "
                        f"{attrs.reservable(a):g} bps unreserved, "
                        f"{bandwidth_bps:g} requested"
                    )
                shortfalls.append((a, b))

        if shortfalls:
            # plan first (pure), execute only if the whole plan works:
            # a declined preemption must leave zero partial state
            plan = self._plan_preemption(
                shortfalls, bandwidth_bps, setup_priority, name
            )
            if plan is None:
                self.stats.setup_failures += 1
                self.stats.preempt_declined += 1
                raise SetupError(
                    f"admission control: preemption at priority "
                    f"{setup_priority} cannot free {bandwidth_bps:g} bps "
                    f"for {name!r}"
                )
            avoid = {(a, b) if a <= b else (b, a) for a, b in shortfalls}
            for victim in plan:
                self._preempt(victim, avoid, by=name)
            for a, b in shortfalls:
                attrs = self.topology.link(a, b)
                if attrs.reservable(a) + 1e-9 < bandwidth_bps:
                    # the plan accounted for this; defensive only
                    self.stats.setup_failures += 1
                    raise SignalingError(
                        f"preemption under-freed link {a}-{b} for {name!r}"
                    )

        # RESV upstream: allocate labels, install state, reserve.
        hop_labels = self._install_route(route, cos=cos, fec=fec, php=php)

        # bandwidth reservation along the route
        for a, b in zip(route, route[1:]):
            self.topology.link(a, b).reserve(a, bandwidth_bps)

        lsp = LSP(
            name=name,
            path=list(route),
            hop_labels=hop_labels,
            bandwidth_bps=bandwidth_bps,
            cos=cos,
            protocol=self.protocol,
            setup_priority=setup_priority,
            hold_priority=hold_priority,
        )
        self.lsps[name] = lsp
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
        php: bool,
    ) -> List[Optional[int]]:
        """RESV upstream: allocate labels, install ILM (and the ingress
        FTN when a FEC is steered).  Returns the hop labels."""
        tail = len(route) - 1
        hop_labels: List[Optional[int]] = [None] * tail
        for i in range(tail, 0, -1):
            self.stats.resv_messages += 1
            if php and i == tail:
                hop_labels[i - 1] = IMPLICIT_NULL
                continue
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

    # -- preemption -------------------------------------------------------
    def _candidates_on(
        self, a: str, b: str, setup_priority: int, exclude: str
    ) -> List[LSP]:
        """Established LSPs on directed link ``a -> b`` preemptable by a
        setup at ``setup_priority``: weakest hold first, then biggest
        reservation (fewest victims), then name (determinism)."""
        victims = [
            lsp
            for lsp in self.lsps.values()
            if lsp.name != exclude
            and lsp.hold_priority > setup_priority
            and lsp.bandwidth_bps > 0.0
            and (a, b) in lsp.links()
        ]
        victims.sort(
            key=lambda lsp: (-lsp.hold_priority, -lsp.bandwidth_bps, lsp.name)
        )
        return victims

    def _plan_preemption(
        self,
        shortfalls: List[Tuple[str, str]],
        bandwidth_bps: float,
        setup_priority: int,
        name: str,
    ) -> Optional[List[LSP]]:
        """Pick victims freeing every shortfall link, mutating nothing.

        Returns None when even preempting every eligible victim leaves
        some link short -- the declined path, taken before any state
        has been touched.
        """
        chosen: List[LSP] = []
        chosen_names: set = set()
        for a, b in shortfalls:
            attrs = self.topology.link(a, b)
            freed = sum(
                v.bandwidth_bps for v in chosen if (a, b) in v.links()
            )
            need = bandwidth_bps - attrs.reservable(a) - freed
            if need <= 1e-9:
                continue
            for victim in self._candidates_on(a, b, setup_priority, name):
                if victim.name in chosen_names:
                    continue
                chosen.append(victim)
                chosen_names.add(victim.name)
                need -= victim.bandwidth_bps
                if need <= 1e-9:
                    break
            if need > 1e-9:
                return None
        return chosen

    def _preempt(
        self, victim: LSP, avoid_links: set, by: str
    ) -> None:
        """Soft-preempt ``victim``: reroute it make-before-break off the
        ``avoid_links``, or tear it down when no alternate path exists.
        Its old reservations are released either way."""
        for a, b in victim.links():
            self.topology.link(a, b).release(a, victim.bandwidth_bps)
        try:
            new_route = cspf_path(
                self.topology,
                victim.ingress,
                victim.egress,
                bandwidth_bps=victim.bandwidth_bps,
                avoid_links=avoid_links,
            )
        except CSPFError:
            new_route = None
        if new_route is None:
            # hard preemption: no alternate path, the victim goes down
            fec = self._fec_of.pop(victim.name, None)
            self._remove_forwarding(victim, fec)
            self.lsps.pop(victim.name, None)
            self._last_refresh.pop(victim.name, None)
            victim.up = False
            self.stats.preempt_teardowns += 1
            self._note_preempt(
                victim.name, by, "teardown", "no alternate route"
            )
            return
        php = victim.hop_labels[-1] == IMPLICIT_NULL
        fec = self._fec_of.get(victim.name)
        old_path = list(victim.path)
        old_labels = list(victim.hop_labels)
        # make-before-break, atomically: the new path's state and the
        # old path's removal land in one shadow-bank transaction, so
        # the data plane never observes a half-moved LSP
        tables = [
            self.nodes[node_name].ilm
            for node_name in sorted(set(old_path) | set(new_route))
        ]
        if fec is not None:
            tables.append(self.nodes[victim.ingress].ftn)
        for _ in zip(new_route, new_route[1:]):
            self.stats.path_messages += 1
        with TableTransaction(tables):
            new_labels = self._install_route(
                new_route, cos=victim.cos, fec=fec, php=php
            )
            self._unbind(old_path, old_labels)
        for a, b in zip(new_route, new_route[1:]):
            self.topology.link(a, b).reserve(a, victim.bandwidth_bps)
        victim.path = list(new_route)
        victim.hop_labels = new_labels
        self.stats.preempt_reroutes += 1
        self._note_preempt(victim.name, by, "reroute", "->".join(new_route))

    def _unbind(
        self, path: Sequence[str], hop_labels: Sequence[Optional[int]]
    ) -> None:
        """Remove the ILM entries a path's hop labels hold and free the
        labels: the one way an LSP's labels leave the network."""
        for node_name, label in zip(path[1:], hop_labels):
            if label is None or label == IMPLICIT_NULL:
                continue
            ilm = self.nodes[node_name].ilm
            if label in ilm:
                ilm.remove(label)
            self.allocators[node_name].release(label)

    def _remove_forwarding(self, lsp: LSP, fec: Optional[FEC]) -> None:
        """Remove an LSP's ILM entries and free its labels, then the
        ingress FTN entry for ``fec`` if it still steers onto this LSP
        (after an FRR switchover it steers onto the backup, and stays).
        Reservations are the caller's business."""
        self._unbind(lsp.path, lsp.hop_labels)
        if fec is None:
            return
        ftn = self.nodes[lsp.ingress].ftn
        steering = ingress_entry(lsp.path, lsp.hop_labels, lsp.cos)
        if ftn.entry_for(fec) == steering:
            ftn.remove(fec)

    def _note_preempt(
        self, name: str, by: str, mode: str, detail: str = ""
    ) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.lsp_preemptions.labels(mode).inc()
            tel.events.emit(
                LSPPreempted(name=name, by=by, mode=mode, detail=detail)
            )
        self._note_lsp(f"preempt-{mode}", name, detail=detail)

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
                if lsp.path[i] != name or label in (None, IMPLICIT_NULL):
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
        self._remove_forwarding(lsp, fec)
        for a, b in lsp.links():
            self.topology.link(a, b).release(a, lsp.bandwidth_bps)
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
    :meth:`refresh` refuses), no preemption, and an LSP lives until it
    is released.  Its labels start at 200 000, apart from RSVP-TE's.
    """

    protocol = "cr-ldp"
    first_label = 200_000
    preemption_enabled = False
    soft_state = False

    #: explicit teardown (hard state: the only way an LSP dies)
    release = RSVPTESignaler.teardown
