"""LDP-style label distribution (downstream unsolicited, liberal
retention omitted -- bindings follow the IGP shortest path).

For a FEC whose egress is a given LER, every router that can reach the
egress allocates a local label and installs:

* at the egress -- a POP entry (or it advertises Implicit NULL when
  penultimate-hop popping is requested, in which case the upstream
  neighbour pops instead),
* at transit nodes -- a SWAP from the local label to the downstream
  neighbour's label,
* at ingress LERs -- an FTN entry pushing the first label.

The result is exactly the state the paper's software routing
functionality would program into the hardware information base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.control.labels import LabelAllocator
from repro.control.routing import LinkStateDatabase
from repro.mpls.fec import FEC
from repro.mpls.label import IMPLICIT_NULL, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode
from repro.mpls.transaction import TableTransaction
from repro.net.topology import Topology
from repro.obs.events import LabelMappingInstalled, LabelMappingWithdrawn
from repro.obs.telemetry import get_telemetry


@dataclass
class FECBinding:
    """The network-wide label bindings for one FEC."""

    fec: FEC
    egress: str
    php: bool
    #: node -> the label that node expects (IMPLICIT_NULL at a PHP egress)
    labels: Dict[str, int] = field(default_factory=dict)
    #: node -> next hop towards the egress
    next_hops: Dict[str, str] = field(default_factory=dict)
    #: nodes that actually received an FTN entry for this FEC (the
    #: LERs steering traffic onto it) -- what a per-node refresh needs
    ingresses: List[str] = field(default_factory=list)

    # The binding's forwarding state, derived once for both install and
    # refresh; PHP needs no case here, the NHLFE constructor turns a
    # label of IMPLICIT_NULL into a POP or a NOOP.

    def ilm_entry(self, name: str) -> Optional[Tuple[int, NHLFE]]:
        """``name``'s ILM entry for this FEC: POP at a non-PHP egress,
        SWAP to the next hop's label at a router routing towards it,
        None where the binding gives ``name`` no entry."""
        label = self.labels.get(name)
        if name == self.egress:
            if self.php or label is None:
                return None
            return label, NHLFE(op=LabelOp.POP)
        nh = self.next_hops.get(name)
        if nh is None:
            return None
        return label, NHLFE(
            op=LabelOp.SWAP, out_label=self.labels[nh], next_hop=nh
        )

    def ftn_entry(self, name: str) -> Optional[NHLFE]:
        """The FTN entry steering this FEC onto the LSP at ``name``:
        PUSH the next hop's label, or None without a next hop."""
        nh = self.next_hops.get(name)
        if nh is None:
            return None
        return NHLFE(op=LabelOp.PUSH, out_label=self.labels[nh], next_hop=nh)


class LDPProcess:
    """Distributes labels for FECs over a converged topology.

    Parameters
    ----------
    topology:
        The (shared) link-state view.
    nodes:
        name -> :class:`~repro.mpls.router.LSRNode`; their ILM/FTN
        tables are programmed directly, modelling a converged LDP.
    """

    def __init__(self, topology: Topology, nodes: Dict[str, LSRNode]) -> None:
        self.topology = topology
        self.nodes = nodes
        self.lsdb = LinkStateDatabase(topology)
        self.allocators: Dict[str, LabelAllocator] = {
            name: LabelAllocator() for name in nodes
        }
        self.bindings: List[FECBinding] = []
        #: crashed routers: no state is installed at (or via) them until
        #: they restart and a :meth:`reconverge` reprograms the network
        self.down_nodes: Set[str] = set()
        #: routers in graceful restart: the control plane is down but
        #: the data plane keeps forwarding on stale-marked tables
        #: (RFC 3478 non-stop forwarding); label distribution skips
        #: them until :meth:`complete_graceful_restart`
        self.restarting: Set[str] = set()
        self.telemetry = get_telemetry()

    def establish_fec(
        self,
        fec: FEC,
        egress: str,
        php: bool = False,
        ingresses: Optional[List[str]] = None,
    ) -> FECBinding:
        """Bind labels for ``fec`` terminating at ``egress``.

        ``ingresses`` limits which nodes get an FTN entry; by default
        every edge router (LER) that can reach the egress does.
        """
        if egress not in self.nodes:
            raise KeyError(f"unknown egress {egress!r}")
        binding = FECBinding(fec=fec, egress=egress, php=php)
        # a restarting router cannot advertise or accept mappings, so
        # new bindings are distributed as if it were absent; its
        # pre-crash entries keep forwarding until refresh or flush
        unavailable = self.down_nodes | self.restarting
        live = [n for n in self.nodes if n not in unavailable]

        # 1. label allocation (downstream unsolicited advertisement)
        for name in live:
            if name == egress:
                binding.labels[name] = (
                    IMPLICIT_NULL if php else self.allocators[name].allocate()
                )
            else:
                binding.labels[name] = self.allocators[name].allocate()

        # 2. next hops from each node's SPF towards the egress (a
        #    crashed node's links are already out of the topology, so
        #    SPF routes around it; a crashed egress yields no paths)
        if egress in live:
            for name in live:
                if name == egress:
                    continue
                spf = self.lsdb.spf(name)
                nh = spf.next_hop(egress)
                if nh is not None and nh in binding.labels:
                    binding.next_hops[name] = nh

        # 3. install forwarding state: the egress, the transit routers,
        #    then the ingress FTNs
        for name in (egress, *binding.next_hops):
            entry = binding.ilm_entry(name)
            if entry is not None:
                self.nodes[name].ilm.install(*entry)
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
            nhlfe = binding.ftn_entry(name)
            if nhlfe is None:
                continue
            binding.ingresses.append(name)
            self.nodes[name].ftn.install(fec, nhlfe)
        self.bindings.append(binding)
        tel = self.telemetry
        if tel.enabled:
            # converged-model LDP: the whole binding appears at once;
            # one install event per router that received state
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

    def withdraw_fec(self, binding: FECBinding) -> None:
        """Remove all forwarding state and release the labels."""
        if binding not in self.bindings:
            raise KeyError("binding not established by this process")
        egress_label = binding.labels.get(binding.egress)
        if not binding.php and egress_label is not None:
            # the entry may already be gone if the egress crashed and
            # restarted cold -- withdrawal must stay idempotent.  A
            # restarting router cannot process the withdraw: its entry
            # stays in place (stale) until refreshed or flushed.
            if binding.egress not in self.restarting:
                try:
                    self.nodes[binding.egress].ilm.remove(egress_label)
                except KeyError:
                    pass
        for name in binding.next_hops:
            if name in self.restarting:
                continue
            node = self.nodes[name]
            try:
                node.ilm.remove(binding.labels[name])
            except KeyError:
                pass
            try:
                node.ftn.remove(binding.fec)
            except KeyError:
                pass
        for name, label in binding.labels.items():
            if label != IMPLICIT_NULL:
                self.allocators[name].release(label)
        self.bindings.remove(binding)
        tel = self.telemetry
        if tel.enabled and tel.topo is not None:
            # the negative edge of the binding lifecycle, wanted only
            # by the topology observer (gated so event-count sections
            # of pre-existing reports stay byte-identical)
            for name, label in sorted(binding.labels.items()):
                tel.events.emit(
                    LabelMappingWithdrawn(
                        node=name, fec_id=str(binding.fec), label=label
                    )
                )
        if tel.enabled and tel.flows is not None:
            # the FEC's forwarding state is gone: finish the flow
            # records still accounted to it
            tel.flows.close_fec(str(getattr(binding.fec, "prefix", binding.fec)))

    def reconverge(self) -> None:
        """Recompute every binding after a topology change (the model's
        equivalent of LDP reacting to an IGP reconvergence).

        The whole recomputation runs as one shadow-bank transaction
        across every (non-restarting) router's ILM/FTN: the data plane
        keeps forwarding on the pre-reconvergence tables until every
        binding has been re-derived, then all tables swap banks
        atomically.  No packet ever observes a half-programmed network,
        and a crash mid-reconvergence rolls the staging banks back.
        """
        tables = []
        for name in sorted(self.nodes):
            if name in self.restarting:
                continue
            node = self.nodes[name]
            tables.extend((node.ilm, node.ftn))
        with TableTransaction(tables):
            old = list(self.bindings)
            for binding in old:
                fec, egress, php = binding.fec, binding.egress, binding.php
                self.withdraw_fec(binding)
                self.establish_fec(fec, egress, php)

    def refresh_node(self, name: str) -> Tuple[int, int]:
        """Rewrite one router's ILM/FTN entries in place from the
        current bindings -- same labels, same next hops.

        This is the delegation-fallback / controller-resync primitive:
        a stale-marked table is refreshed entry by entry (install
        clears the stale mark), so still-valid forwarding state never
        leaves the data plane and anything dead stays stale for the
        hold-timer flush.  Emits **no** events: the network-wide state
        does not change, only this router's copy is reasserted.
        Returns the number of (ILM, FTN) entries rewritten.
        """
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        node = self.nodes[name]
        ilm_writes = ftn_writes = 0
        for binding in self.bindings:
            entry = binding.ilm_entry(name)
            if entry is not None:
                node.ilm.install(*entry)
                ilm_writes += 1
            if name in binding.ingresses:
                node.ftn.install(binding.fec, binding.ftn_entry(name))
                ftn_writes += 1
        return ilm_writes, ftn_writes

    # -- graceful restart (RFC 3478 semantics) -----------------------

    def begin_graceful_restart(self, name: str) -> Tuple[int, int]:
        """Warm control-plane crash at ``name``: non-stop forwarding.

        The data plane keeps forwarding; every surviving ILM/FTN entry
        is stale-marked; an open transaction rolls back (the staging
        bank dies with the software).  Until
        :meth:`complete_graceful_restart` the router can neither
        advertise nor process label mappings.  Returns the number of
        (ILM, FTN) entries stale-marked.
        """
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        node = self.nodes[name]
        if node.ilm.in_transaction:
            node.ilm.rollback()
        if node.ftn.in_transaction:
            node.ftn.rollback()
        self.restarting.add(name)
        return node.ilm.mark_all_stale(), node.ftn.mark_all_stale()

    def complete_graceful_restart(self, name: str) -> Tuple[int, int]:
        """The control plane at ``name`` is back (restart flag set).

        The router re-joins label distribution and the network
        reconverges; because label allocation is deterministic and the
        allocators' bookkeeping survives (the restarting LSR recovers
        its bindings from the preserved forwarding state, as RFC 3478
        describes), still-valid entries are rewritten with the same
        labels -- refreshed in place, clearing their stale marks.
        Returns the number of (ILM, FTN) entries *still* stale after
        the refresh: dead state the hold-timer flush will remove.
        """
        self.restarting.discard(name)
        self.reconverge()
        node = self.nodes[name]
        return len(node.ilm.stale_labels()), len(node.ftn.stale_fecs())
