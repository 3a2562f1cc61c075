"""Plain IP hop-by-hop forwarding: the pre-MPLS baseline.

The paper's premise inherits the classic argument for label switching:
conventional routers perform an independent longest-prefix-match
routing decision at *every* hop, while an LSR does one exact-match
label lookup.  This module supplies that baseline as a node type
pluggable into :class:`~repro.net.network.MPLSNetwork`, so benchmarks
can compare the two data planes on identical topologies and traffic:

* :class:`IPRouterNode` -- forwards IPv4 packets by longest-prefix
  match over a FIB, decrementing the TTL per hop, counting the
  prefixes scanned (the software cost model prices them),
* :func:`populate_fibs` -- builds every node's FIB from the converged
  SPF view, given which prefixes live at which edge routers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from repro.control.routing import LinkStateDatabase
from repro.mpls.forwarding import Action, ForwardingDecision
from repro.mpls.router import LSRNode, RouterRole
from repro.net.addressing import IPv4Prefix
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.topology import Topology


@dataclass(frozen=True)
class FIBEntry:
    prefix: IPv4Prefix
    next_hop: Optional[str]  # None = locally attached (deliver)


class IPRouterNode(LSRNode):
    """A conventional router: LPM + TTL decrement at every hop.

    Inherits the node plumbing (interfaces, stats) from
    :class:`LSRNode` but replaces the data plane entirely; the
    MPLS tables stay empty.
    """

    def __init__(
        self,
        name: str,
        role: RouterRole = RouterRole.LSR,
    ) -> None:
        super().__init__(name, role)
        self._fib: List[FIBEntry] = []
        #: total prefixes examined across all lookups (the LPM cost)
        self.prefixes_scanned = 0
        self.lookups = 0

    # -- FIB management ------------------------------------------------------
    def install_prefix(
        self, prefix: Union[str, IPv4Prefix], next_hop: Optional[str]
    ) -> None:
        prefix = (
            prefix if isinstance(prefix, IPv4Prefix) else IPv4Prefix(prefix)
        )
        self._fib = [e for e in self._fib if e.prefix != prefix]
        self._fib.append(FIBEntry(prefix, next_hop))
        # longest prefix first, as a real FIB resolves
        self._fib.sort(key=lambda e: -e.prefix.length)

    def lookup(self, packet: IPv4Packet) -> Optional[FIBEntry]:
        """Longest-prefix match, counting entries scanned."""
        self.lookups += 1
        for scanned, entry in enumerate(self._fib, start=1):
            if entry.prefix.contains(packet.dst):
                self.prefixes_scanned += scanned
                return entry
        self.prefixes_scanned += len(self._fib)
        return None

    # -- the data plane -------------------------------------------------------
    def receive(
        self, packet: Union[IPv4Packet, MPLSPacket], train=None
    ) -> ForwardingDecision:
        count = 1 if train is None else train.count
        self.stats.received += count
        if isinstance(packet, MPLSPacket):
            decision = ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: labelled packet at a plain IP router",
            )
        else:
            decision = self._forward(packet)
        decision = self._fill_interface(decision)
        self.stats.record(decision, count)
        return decision

    def _forward(self, packet: IPv4Packet) -> ForwardingDecision:
        entry = self.lookup(packet)
        if entry is None:
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: no route to {packet.dst}",
            )
        if entry.next_hop is None:
            return ForwardingDecision(Action.FORWARD_IP, packet=packet)
        if packet.ttl <= 1:
            return ForwardingDecision(
                Action.DISCARD,
                reason=f"{self.name}: IPv4 TTL expired",
            )
        return ForwardingDecision(
            Action.FORWARD_IP,
            packet=packet.decremented(),
            next_hop=entry.next_hop,
        )


def populate_fibs(
    topology: Topology,
    nodes: Dict[str, IPRouterNode],
    attached: Dict[str, Iterable[Union[str, IPv4Prefix]]],
    extra_prefixes: int = 0,
) -> None:
    """Fill every node's FIB from the converged SPF view.

    ``attached`` maps edge node -> prefixes that live behind it.
    ``extra_prefixes`` pads each FIB with that many non-matching
    routes (a realistic Internet-sized RIB for the cost benchmarks --
    every real lookup must scan past unrelated prefixes).
    """
    lsdb = LinkStateDatabase(topology)
    for name, node in nodes.items():
        spf = lsdb.spf(name)
        for egress, prefixes in attached.items():
            for prefix in prefixes:
                if egress == name:
                    node.install_prefix(prefix, None)
                else:
                    nh = spf.next_hop(egress)
                    if nh is not None:
                        node.install_prefix(prefix, nh)
        for i in range(extra_prefixes):
            # pad with /24s from the 198.18.0.0/15 benchmark range
            third = (i >> 8) & 1
            node.install_prefix(
                f"198.{18 + third}.{i & 0xFF}.0/24",
                next_hop=topology.neighbors(name)[0],
            )
