"""The conformance table: one forwarding contract on every backend.

One list of rows.  Each row is an input (an IPv4 packet, or a label
stack up to three deep over one), the state installed on the node
(nothing, one ILM entry or one FTN entry) and the expected outcome:
the action, the discard reason, the outgoing stack as (label, CoS, S,
TTL) entries, the IPv4 TTL and the next hop.  The expected values are
read off the RFCs, not off a backend:

* RFC 3031 section 3.10: an NHLFE swaps, pops or pushes, and names the
  next hop; a miss in the ILM discards (section 3.18);
* RFC 3032 section 2.1: labels 0-3 are reserved.  A Router Alert (1)
  hands the packet to local software; an IPv4 or IPv6 Explicit NULL
  (0, 2) is popped and the packet forwarded on what it exposes; an
  Implicit NULL (3) is only ever signalled, never on the wire.  Only
  the bottom entry has S = 1.  Section 2.4: every hop decrements the
  TTL once, a packet whose TTL would reach zero is discarded, a push
  copies the TTL below and a pop carries it into what it exposes, down
  to the IPv4 header (the uniform model of RFC 3443);
* RFC 4182: an Explicit NULL may sit at any depth, and the entry it
  exposes is processed in the same hop;
* a pushed entry keeps the CoS below it unless the NHLFE names one; at
  ingress the CoS is the DSCP's class selector (RFC 2474) unless the FTN
  entry names one.

Where the RFCs leave an order open, the row follows the paper's Figure 9
(search, then verify): a miss is named before an expired TTL, and a
push past the node's three-level stack is refused as the hardware's
VERIFY_INFO refuses it.  A row uses one TTL across its stack and its
IPv4 header, and well-formed S bits: the hardware's UPDATE_TOP TTL
(documented in ``repro.core.hwnode``) and malformed stacks are outside
the contract.

Every row runs on :class:`~repro.mpls.router.LSRNode` and on
:class:`~repro.core.hwnode.HardwareLSRNode` -- the Figure 6 router --
with its modifier on the functional model and on the RTL, each scalar
and through a ``FlowCache(cross_check=True)`` (the packet three times,
so a hardware ingress learns, fills and hits).
"""

from typing import NamedTuple, Optional, Tuple

import pytest

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fastpath import FlowCache
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import Action
from repro.mpls.label import IMPLICIT_NULL, LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket

FWD, IP, LOCAL, DROP = (
    Action.FORWARD_MPLS,
    Action.FORWARD_IP,
    Action.DELIVER_LOCAL,
    Action.DISCARD,
)

# -- installed state: one entry, or nothing -----------------------------------
NONE = None
SWAP = ("ilm", 100, NHLFE(LabelOp.SWAP, out_label=200, next_hop="b"))
POP = ("ilm", 300, NHLFE(LabelOp.POP, next_hop="c"))
PUSH = ("ilm", 400, NHLFE(LabelOp.PUSH, out_label=500, next_hop="d"))
PUSH_COS = ("ilm", 400, NHLFE(LabelOp.PUSH, out_label=500, next_hop="d", cos=5))
#: the PHP push of a one-hop tunnel
NOOP = ("ilm", 600, NHLFE(LabelOp.PUSH, out_label=IMPLICIT_NULL, next_hop="b"))
FEC = "10.2.0.0/16"
FTN_PUSH = ("ftn", FEC, NHLFE(LabelOp.PUSH, out_label=777, next_hop="b"))
FTN_PUSH_COS = ("ftn", FEC, NHLFE(LabelOp.PUSH, out_label=777, next_hop="b", cos=3))
#: a FEC reached without a label (the ingress next to a PHP egress)
FTN_NOOP = ("ftn", FEC, NHLFE(LabelOp.PUSH, out_label=IMPLICIT_NULL, next_hop="c"))


# -- inputs --------------------------------------------------------------------
def ip(ttl=64, dscp=0, dst="10.2.0.9"):
    return IPv4Packet(src="10.1.0.5", dst=dst, ttl=ttl, dscp=dscp)


def mpls(*labels, ttl=64, cos=0):
    """``labels`` top first, every entry and the IPv4 header at ``ttl``."""
    stack = LabelStack([LabelEntry(label=l, cos=cos, ttl=ttl) for l in labels])
    return MPLSPacket(stack, ip(ttl))


# -- outcomes --------------------------------------------------------------------
class Outcome(NamedTuple):
    action: Action
    reason: Optional[str] = None
    #: (label, CoS, S, TTL), top first
    stack: Tuple[Tuple[int, int, int, int], ...] = ()
    ip_ttl: Optional[int] = None
    next_hop: Optional[str] = None


def fwd(*entries, ip_ttl=64, hop="b"):
    return Outcome(FWD, None, entries, ip_ttl, hop)


def to_ip(ip_ttl, hop=None):
    return Outcome(IP, None, (), ip_ttl, hop)


def drop(reason):
    return Outcome(DROP, reason)


#: delivered to local software as received
DELIVERED = Outcome(LOCAL)

TTL_EXPIRED = drop("MPLS TTL expired")
IP_TTL_EXPIRED = drop("IPv4 TTL expired at ingress")
IMPLICIT_NULL_SEEN = drop("Implicit NULL label on the wire")


class Row(NamedTuple):
    name: str
    packet: object
    state: Optional[tuple]
    expect: Outcome


ROWS = [
    # -- swap (RFC 3031 3.10, RFC 3032 2.4): one TTL per hop, CoS kept
    *[
        Row(f"swap ttl {t}", mpls(100, ttl=t), SWAP,
            fwd((200, 0, 1, t - 1), ip_ttl=t))
        for t in (2, 64, 255)
    ],
    Row("swap ttl 1", mpls(100, ttl=1), SWAP, TTL_EXPIRED),
    Row("swap ttl 0", mpls(100, ttl=0), SWAP, TTL_EXPIRED),
    *[
        Row(f"swap cos {c}", mpls(100, cos=c), SWAP, fwd((200, c, 1, 63)))
        for c in range(8)
    ],
    Row("swap over 1", mpls(100, 101), SWAP,
        fwd((200, 0, 0, 63), (101, 0, 1, 64))),
    Row("swap over 2", mpls(100, 101, 102, ttl=2), SWAP,
        fwd((200, 0, 0, 1), (101, 0, 0, 2), (102, 0, 1, 2), ip_ttl=2)),
    Row("swap over Explicit NULL", mpls(100, 0), SWAP,
        fwd((200, 0, 0, 63), (0, 0, 1, 64))),
    Row("swap over Router Alert", mpls(100, 1, 101), SWAP,
        fwd((200, 0, 0, 63), (1, 0, 0, 64), (101, 0, 1, 64))),
    Row("swap over IPv6 Explicit NULL at depth 3", mpls(100, 101, 2), SWAP,
        fwd((200, 0, 0, 63), (101, 0, 0, 64), (2, 0, 1, 64))),
    # -- no ILM entry: the lookup comes first (Figure 9)
    Row("miss", mpls(42), NONE, drop("no ILM entry for label 42")),
    Row("miss ttl 1", mpls(42, ttl=1), SWAP, drop("no ILM entry for label 42")),
    Row("miss over 2", mpls(42, 100, 101, ttl=255), SWAP,
        drop("no ILM entry for label 42")),
    Row("reserved label 7 has no ILM entry", mpls(7, 100), SWAP,
        drop("no ILM entry for label 7")),
    # -- pop: the TTL carried down to what it exposes
    Row("pop to IPv4", mpls(300), POP, to_ip(63, "c")),
    Row("pop to IPv4 ttl 2", mpls(300, ttl=2), POP, to_ip(1, "c")),
    Row("pop ttl 1", mpls(300, ttl=1), POP, TTL_EXPIRED),
    Row("pop ttl 255 cos 6", mpls(300, 101, ttl=255, cos=6), POP,
        fwd((101, 6, 1, 254), ip_ttl=255, hop="c")),
    Row("pop over 2", mpls(300, 101, 102), POP,
        fwd((101, 0, 0, 63), (102, 0, 1, 64), hop="c")),
    Row("pop exposes Explicit NULL", mpls(300, 0), POP,
        fwd((0, 0, 1, 63), hop="c")),
    # -- push: the TTL and CoS below copied, unless the NHLFE names a CoS
    Row("push", mpls(400, cos=1), PUSH,
        fwd((500, 1, 0, 63), (400, 1, 1, 63), hop="d")),
    Row("push cos from the NHLFE", mpls(400, cos=1), PUSH_COS,
        fwd((500, 5, 0, 63), (400, 1, 1, 63), hop="d")),
    Row("push over 1", mpls(400, 101, ttl=2), PUSH,
        fwd((500, 0, 0, 1), (400, 0, 0, 1), (101, 0, 1, 2), ip_ttl=2, hop="d")),
    Row("push past the 3-level stack", mpls(400, 101, 102), PUSH,
        drop("push would exceed the 3-level stack limit")),
    Row("push ttl 1", mpls(400, ttl=1), PUSH_COS, TTL_EXPIRED),
    # -- an ILM NOOP forwards unchanged but for the TTL
    Row("noop", mpls(600), NOOP, fwd((600, 0, 1, 63))),
    Row("noop cos 4 ttl 255", mpls(600, 101, ttl=255, cos=4), NOOP,
        fwd((600, 4, 0, 254), (101, 4, 1, 255), ip_ttl=255)),
    Row("noop ttl 1", mpls(600, ttl=1), NOOP, TTL_EXPIRED),
    # -- Router Alert (RFC 3032 2.1): local software, whatever the TTL
    Row("Router Alert", mpls(1), NONE, DELIVERED),
    Row("Router Alert over 100", mpls(1, 100), SWAP, DELIVERED),
    Row("Router Alert ttl 0", mpls(1, 100, 101, ttl=0), SWAP, DELIVERED),
    # -- Explicit NULL (RFC 3032 2.1, RFC 4182): popped, then what it
    # exposes is processed in this same hop
    Row("IPv4 Explicit NULL alone", mpls(0), NONE, to_ip(63)),
    Row("IPv6 Explicit NULL alone", mpls(2), NONE, to_ip(63)),
    Row("Explicit NULL alone ttl 2", mpls(0, ttl=2), NONE, to_ip(1)),
    Row("Explicit NULL alone ttl 1", mpls(0, ttl=1), NONE, TTL_EXPIRED),
    Row("Explicit NULL alone ttl 0", mpls(2, ttl=0), NONE, TTL_EXPIRED),
    Row("Explicit NULL over 100", mpls(0, 100), SWAP, fwd((200, 0, 1, 63))),
    Row("IPv6 Explicit NULL over 100", mpls(2, 100, cos=3), SWAP,
        fwd((200, 3, 1, 63))),
    Row("Explicit NULL over 100 over 101", mpls(0, 100, 101), SWAP,
        fwd((200, 0, 0, 63), (101, 0, 1, 64))),
    Row("Explicit NULL over 100 ttl 1", mpls(0, 100, ttl=1), SWAP, TTL_EXPIRED),
    Row("Explicit NULL over a miss", mpls(0, 42), SWAP,
        drop("no ILM entry for label 42")),
    Row("Explicit NULL over a pop", mpls(0, 300), POP, to_ip(63, "c")),
    Row("Explicit NULL over a push", mpls(0, 400, 101), PUSH,
        fwd((500, 0, 0, 63), (400, 0, 0, 63), (101, 0, 1, 64), hop="d")),
    Row("Explicit NULL over a noop", mpls(2, 600), NOOP, fwd((600, 0, 1, 63))),
    Row("two Explicit NULLs", mpls(0, 2), NONE, to_ip(63)),
    Row("two Explicit NULLs over 100", mpls(2, 0, 100), SWAP,
        fwd((200, 0, 1, 63))),
    Row("Explicit NULL over Router Alert", mpls(0, 1, 100), SWAP, DELIVERED),
    # -- Implicit NULL (RFC 3032 2.1): never on the wire
    Row("Implicit NULL", mpls(3), NONE, IMPLICIT_NULL_SEEN),
    Row("Implicit NULL over 100", mpls(3, 100), SWAP, IMPLICIT_NULL_SEEN),
    Row("Explicit NULL over Implicit NULL", mpls(0, 3, 100), SWAP,
        IMPLICIT_NULL_SEEN),
    # -- a labelled packet without a label
    Row("empty stack", MPLSPacket(LabelStack(), ip()), SWAP,
        drop("labelled packet with empty stack")),
    # -- ingress (RFC 3031 3.11): classify, decrement, push one entry
    *[
        Row(f"ingress ttl {t}", ip(ttl=t), FTN_PUSH,
            fwd((777, 0, 1, t - 1), ip_ttl=t - 1))
        for t in (2, 64, 255)
    ],
    Row("ingress ttl 1", ip(ttl=1), FTN_PUSH, IP_TTL_EXPIRED),
    Row("ingress ttl 0", ip(ttl=0), FTN_PUSH_COS, IP_TTL_EXPIRED),
    *[
        Row(f"ingress dscp class {c}", ip(dscp=c << 3 | 2), FTN_PUSH,
            fwd((777, c, 1, 63), ip_ttl=63))
        for c in range(8)
    ],
    Row("ingress EF", ip(dscp=46), FTN_PUSH, fwd((777, 5, 1, 63), ip_ttl=63)),
    Row("ingress cos from the FTN", ip(dscp=46), FTN_PUSH_COS,
        fwd((777, 3, 1, 63), ip_ttl=63)),
    Row("ingress unlabelled FEC", ip(), FTN_NOOP, to_ip(63, "c")),
    Row("ingress unlabelled FEC ttl 1", ip(ttl=1), FTN_NOOP, IP_TTL_EXPIRED),
    Row("ingress no FEC", ip(dst="10.9.0.1"), FTN_PUSH,
        drop("no FEC matches packet to 10.9.0.1")),
    Row("ingress nothing installed", ip(ttl=1), NONE,
        drop("no FEC matches packet to 10.2.0.9")),
]


# -- the backends ------------------------------------------------------------------
def _install(node, state):
    if state is not None:
        table, key, nhlfe = state
        if table == "ilm":
            node.ilm.install(key, nhlfe)
        else:
            node.ftn.install(PrefixFEC(key), nhlfe)
    return node


def _outcome(decision):
    out = decision.packet
    if decision.action is LOCAL:
        # as received: the row's own packet, checked by identity below
        return Outcome(LOCAL), out
    labelled = isinstance(out, MPLSPacket)
    stack = tuple(
        (e.label, e.cos, e.s, e.ttl) for e in out.stack
    ) if labelled else ()
    ip_ttl = None if out is None else (out.inner if labelled else out).ttl
    reason = decision.reason
    if reason is not None:
        node, _, reason = reason.partition(": ")
        assert node == "n1"
    return Outcome(decision.action, reason, stack, ip_ttl, decision.next_hop), out


def _node(kind, row):
    if kind == "sw":
        node = LSRNode("n1", RouterRole.LER)
    else:
        backend = "rtl" if kind == "hw-rtl" else "model"
        node = HardwareLSRNode("n1", RouterRole.LER, backend=backend)
    return _install(node, row.state)


def _run_node(kind, cached, row):
    node = _node(kind, row)
    if cached:
        node.flow_cache = FlowCache(node.engine, cross_check=True)
    outcomes = []
    for _ in range(3 if cached else 1):
        outcome, out = _outcome(node.receive(row.packet))
        if outcome.action is LOCAL:
            assert out is row.packet
        outcomes.append(outcome)
    if cached:
        assert node.flow_cache.hits >= 1
    return node, outcomes


def _counters(node):
    return (
        node.hw_data_cycles,
        node.hw_control_cycles,
        node.fast_path_packets,
        node.slow_path_packets,
    )


BACKENDS = ("sw", "sw-cached", "hw", "hw-cached", "hw-rtl", "hw-rtl-cached")
CASES = [
    pytest.param(row, backend, id=f"{row.name}-{backend}")
    for row in ROWS
    for backend in BACKENDS
]


def test_row_names_are_unique():
    assert len({row.name for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row, backend", CASES)
def test_conformance(row, backend):
    cached = backend.endswith("-cached")
    kind = backend.removesuffix("-cached")
    node, outcomes = _run_node(kind, cached, row)
    for outcome in outcomes:
        assert outcome == row.expect
    if kind == "hw-rtl":
        # not only the outcome: the RTL costs the row the cycles and
        # path counts the Table 6 formulas give the model
        model, _ = _run_node("hw", cached, row)
        assert _counters(node) == _counters(model)

