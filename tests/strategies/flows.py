"""Packets, and the op scripts a forwarding node runs.

A script interleaves traffic over a few packet shapes -- repeats of one
key are what a flow cache serves -- with the writes that move what a
decision depends on:

* ``("packet", shape)`` and ``("train", shape, count)``;
* ILM installs (``("ilm", label, op, out_label)``) and removes
  (``("ilm-remove", label)``), FTN installs (``("ftn", prefix,
  out_label)``), an ILM transaction that commits or rolls back
  (``("txn", "commit" | "rollback", label, out_label)``), and an
  LDP-withdraw-style stale flush (``("withdraw",)``);
* on a hardware node, information-base faults and repairs:
  ``("corrupt", level, address, label_xor)`` and ``("scrub",)``.

A shape is ``("ip", destination, ttl, dscp)`` or ``("mpls", label, ttl,
tunnelled)``; :func:`packet` builds one.  :func:`apply` applies a
write to a node.
"""

from hypothesis import strategies as st

from repro.mpls.fec import PrefixFEC
from repro.mpls.label import IMPLICIT_NULL, LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.stack import LabelStack
from repro.net.packet import IPv4Packet, MPLSPacket
from tests.strategies import arranged, lehmer, picks


def ip_pkt(dst="10.2.0.9", ttl=64, dscp=0):
    return IPv4Packet(src="10.1.0.5", dst=dst, ttl=ttl, dscp=dscp)


def labelled(label, ttl=20):
    return MPLSPacket(
        LabelStack([LabelEntry(label=label, ttl=ttl)]), ip_pkt()
    )


LABELS = (100, 200, 300, 42)  # 42 is never installed
DESTINATIONS = (
    "10.2.0.1", "10.2.0.2", "10.2.0.3",
    "10.3.0.1",  # the non-PUSH FTN entry, once installed
    "10.9.0.1",  # no FEC
)
PREFIXES = ("10.2.0.0/16", "10.2.0.0/24", "10.3.0.0/16")


def packet(shape, seq):
    kind, key, ttl, extra = shape
    inner = IPv4Packet(
        src="10.1.0.5",
        dst=key if kind == "ip" else "10.2.0.1",
        ttl=ttl if kind == "ip" else 64,
        dscp=extra if kind == "ip" else 0,
        flow_id=7,
        seq=seq,
    )
    if kind == "ip":
        return inner
    entries = [LabelEntry(label=key, ttl=ttl)]
    if extra:  # a tunnel: the LSP label below the top
        entries.append(LabelEntry(label=200, ttl=ttl))
    return MPLSPacket(LabelStack(entries), inner)


def _nhlfe(kind, out_label, next_hop="n2"):
    if kind == "pop":
        return NHLFE(op=LabelOp.POP, next_hop="n0")
    return NHLFE(op=LabelOp[kind.upper()], out_label=out_label, next_hop=next_hop)


def apply(node, op):
    """A control-plane or fault step."""
    kind = op[0]
    if kind == "ilm":
        _, label, nhlfe, out_label = op
        node.ilm.install(label, _nhlfe(nhlfe, out_label))
    elif kind == "ilm-remove":
        if node.ilm.get(op[1]) is not None:
            node.ilm.remove(op[1])
    elif kind == "ftn":
        _, prefix, out_label = op
        node.ftn.install(PrefixFEC(prefix), _nhlfe("push", out_label))
    elif kind == "txn":
        _, mode, label, out_label = op
        node.ilm.begin()
        node.ilm.install(label, _nhlfe("swap", out_label, next_hop="t"))
        if mode == "commit":
            node.ilm.commit()
        else:
            node.ilm.rollback()
    elif kind == "withdraw":
        node.ilm.mark_all_stale()
        node.ilm.flush_stale()
    elif kind == "corrupt":
        _, level, address, label_xor = op
        node.modifier.corrupt_pair(level, address, label_xor=label_xor)
    else:  # scrub
        node.scrub_info_base()


#: every shape of each kind
IP_SHAPES = [("ip", dst, ttl, dscp) for dst in DESTINATIONS
             for ttl in (64, 1) for dscp in (0, 46)]
MPLS_SHAPES = [("mpls", label, ttl, tunnel) for label in LABELS
               for ttl in (20, 2, 1) for tunnel in (False, True)]
#: every write of each kind, so that drawing one is one draw
WRITES = {
    "ilm": [("ilm", label, op, out) for label in LABELS[:3]
            for op in ("swap", "pop", "push") for out in (500, 600)],
    "ilm-remove": [("ilm-remove", label) for label in LABELS[:3]],
    "ftn": [("ftn", prefix, out) for prefix in PREFIXES
            for out in (100, 200, IMPLICIT_NULL)],
    "txn": [("txn", mode, label, out) for mode in ("commit", "rollback")
            for label in LABELS[:3] for out in (500, 600)],
    "withdraw": [("withdraw",)],
}
HARDWARE_WRITES = {
    **WRITES,
    "corrupt": [("corrupt", level, address, label_xor) for level in (1, 2, 3)
                for address in range(4) for label_xor in (1, 0xFF)],
    "scrub": [("scrub",)],
}
@st.composite
def scripts(draw, hardware: bool = True):
    """Mostly traffic over a few packet shapes, with the writes in
    between; trains of 1-64 (a train must stay in the script: a fill
    from a pass that wrote the information base shows only there)."""
    writes = HARDWARE_WRITES if hardware else WRITES
    kinds = ("packet",) * 8 + ("train",) + tuple(writes)
    # two to four destinations -- ingress is where the level-1 LRU and
    # its evictions live -- and one to three labelled shapes
    ip, mpls, *code = draw(picks(
        3, 3, *lehmer(len(IP_SHAPES), 4), *lehmer(len(MPLS_SHAPES), 3)
    ))
    shapes = (arranged(IP_SHAPES, code[:4])[:ip + 2]
              + arranged(MPLS_SHAPES, code[4:])[:mpls + 1])
    ops = []
    # ``which`` picks a shape or a write: 252 is a multiple of most
    # lengths, and nearly uniform over the others
    for kind, which, length in draw(st.lists(
        picks(len(kinds), 252, 64), min_size=10, max_size=60,
    )):
        kind = kinds[kind]
        if kind == "packet":
            ops.append(("packet", shapes[which % len(shapes)]))
        elif kind == "train":
            ops.append(("train", shapes[which % len(shapes)], length + 1))
        else:
            ops.append(writes[kind][which % len(writes[kind])])
    return ops
