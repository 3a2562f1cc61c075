"""Fast reroute: pre-signalled backup LSPs (path protection).

The traffic-engineering payoff of explicit routes that the paper's
Section 1 motivates ("efficient maintenance of those paths"): because
LSPs are explicitly routed, a head-end can pre-signal a disjoint backup
*before* anything fails and switch traffic onto it with a single FTN
rewrite -- no reconvergence, no re-signalling on the failure path.

:class:`FastRerouteManager` protects a FEC with a primary/backup LSP
pair (the backup avoids every intermediate node of the primary when
the topology allows, otherwise it is merely link-disjoint), watches for
link failures, and repairs affected primaries by steering their FECs
onto the backups.  A protected path one of whose LSPs is torn down
or expires is forgotten: there is nothing left to switch between, and
the FEC stays on the LSP that still steers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.control.cspf import CSPFError, cspf_path
from repro.control.lsp import LSP
from repro.control.rsvp_te import (
    RSVPTESignaler,
    SignalingError,
    ingress_entry,
)
from repro.mpls.fec import FEC


@dataclass
class ProtectedPath:
    """One FEC protected by a primary/backup LSP pair."""

    name: str
    fec: FEC
    primary: LSP
    backup: LSP
    active: str = "primary"  # or "backup"

    @property
    def active_lsp(self) -> LSP:
        return self.primary if self.active == "primary" else self.backup


class FastRerouteManager:
    """Path protection over an RSVP-TE signaler."""

    def __init__(self, signaler: RSVPTESignaler) -> None:
        self.signaler = signaler
        self.protected: Dict[str, ProtectedPath] = {}
        self.switchovers = 0
        #: every link failure seen so far (both orientations)
        self.failed_links: Set[Tuple[str, str]] = set()

    # -- setup ---------------------------------------------------------
    def protect(
        self,
        name: str,
        ingress: str,
        egress: str,
        fec: FEC,
    ) -> ProtectedPath:
        """Signal a primary and a disjoint backup, then steer ``fec``
        onto the primary.  A protection that fails leaves nothing set
        up and ``fec`` where it was."""
        self._forget_broken()
        if name in self.protected:
            raise SignalingError(f"{name!r} is already protected")
        primary = self.signaler.setup(f"{name}-primary", ingress, egress)
        try:
            backup = self.signaler.setup(
                f"{name}-backup",
                ingress,
                egress,
                explicit_route=self._backup_route(ingress, egress, primary),
            )
        except SignalingError:
            self.signaler.teardown(primary.name)
            raise
        protected = ProtectedPath(
            name=name, fec=fec, primary=primary, backup=backup
        )
        self._steer(protected, primary)
        self.protected[name] = protected
        return protected

    def _backup_route(
        self, ingress: str, egress: str, primary: LSP
    ) -> List[str]:
        """A route avoiding every intermediate node of the primary;
        without one, the maximally disjoint fallback: penalize the
        primary's links so CSPF only reuses a link when no alternative
        exists (e.g. a single-homed ingress).  A backup identical to
        the primary means there is genuinely nothing to protect with."""
        topo = self.signaler.topology
        try:
            return cspf_path(
                topo, ingress, egress, avoid_nodes=set(primary.path[1:-1])
            )
        except CSPFError:
            pass
        saved = [(a, b, topo.link(a, b).metric) for a, b in primary.links()]
        try:
            for a, b, metric in saved:
                topo.set_metric(a, b, metric * 1000)
            route = cspf_path(topo, ingress, egress)
        finally:
            for a, b, metric in saved:
                topo.set_metric(a, b, metric)
        if route == primary.path:
            raise SignalingError(
                f"no disjoint backup exists for {primary.name}"
            )
        return route

    def _forget_broken(self) -> None:
        """Drop every protected path that lost its primary or backup."""
        for name, protected in list(self.protected.items()):
            if not (protected.primary.up and protected.backup.up):
                del self.protected[name]

    # -- failure handling ---------------------------------------------------
    def handle_link_failure(self, a: str, b: str) -> List[str]:
        """Switch every protected FEC whose *active* LSP crosses the
        failed link onto its other LSP.  Returns the repaired names."""
        self._forget_broken()
        failed = {(a, b), (b, a)}
        self.failed_links |= failed
        repaired = []
        for protected in self.protected.values():
            if not set(protected.active_lsp.links()) & failed:
                continue
            target = (
                protected.backup
                if protected.active == "primary"
                else protected.primary
            )
            if set(target.links()) & self.failed_links:
                continue  # the other path is (already) dead too
            self._steer(protected, target)
            protected.active = (
                "backup" if protected.active == "primary" else "primary"
            )
            self.switchovers += 1
            repaired.append(protected.name)
            self.signaler._note_lsp(
                "frr-switchover",
                protected.name,
                detail=f"link {a}-{b} failed; now on {protected.active}",
            )
        return repaired

    def handle_link_recovery(self, a: str, b: str) -> List[str]:
        """A failed link came back: forget it and revert every
        protected FEC that is riding its backup while its primary is
        fully healthy again.  Returns the reverted names."""
        self._forget_broken()
        self.failed_links -= {(a, b), (b, a)}
        reverted = []
        for protected in self.protected.values():
            if protected.active != "backup":
                continue
            if set(protected.primary.links()) & self.failed_links:
                continue  # the primary still crosses a dead link
            self.revert(protected.name)
            reverted.append(protected.name)
        return reverted

    def revert(self, name: str) -> None:
        """Switch a protected FEC back onto its primary."""
        self._forget_broken()
        protected = self.protected[name]
        if protected.active == "primary":
            return
        self._steer(protected, protected.primary)
        protected.active = "primary"
        self.signaler._note_lsp("frr-revert", name, detail="back on primary")

    def refresh_ingress(self, name: str) -> int:
        """Re-assert the ingress FTN steer for every protected path
        headed at ``name`` (same active LSP; install clears stale
        marks).  The delegation-fallback / controller-resync
        counterpart to :meth:`RSVPTESignaler.refresh_node`.  Returns
        the number of FTN entries rewritten.  The paths re-steer in
        protection order, the order switchovers and reverts walk them:
        a FEC two paths carry ends on the later one's active LSP."""
        self._forget_broken()
        writes = 0
        for protected in self.protected.values():
            if protected.active_lsp.ingress != name:
                continue
            self._steer(protected, protected.active_lsp)
            writes += 1
        return writes

    def _steer(self, protected: ProtectedPath, lsp: LSP) -> None:
        """One FTN rewrite at the ingress: the whole switchover."""
        self.signaler.nodes[lsp.ingress].ftn.install(
            protected.fec, ingress_entry(lsp.path, lsp.hop_labels, lsp.cos)
        )
