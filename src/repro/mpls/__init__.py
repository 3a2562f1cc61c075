"""MPLS protocol library: the software reference implementation.

This subpackage implements the MPLS data plane as described by RFC 3031
(architecture) and RFC 3032 (label stack encoding), which the paper's
hardware accelerates:

* :mod:`repro.mpls.label` -- the 32-bit label stack entry of the paper's
  Figure 5 (20-bit label / 3-bit CoS / S bit / 8-bit TTL), reserved
  label values, and the label operation alphabet shared with the
  hardware information base;
* :mod:`repro.mpls.stack` -- label stack semantics (push/pop/swap, the
  S-bit invariant, TTL propagation);
* :mod:`repro.mpls.fec` -- forwarding equivalence classes;
* :mod:`repro.mpls.nhlfe` -- next-hop label forwarding entries;
* :mod:`repro.mpls.tables` -- the ILM and FTN tables of RFC 3031;
* :mod:`repro.mpls.forwarding` -- a software label-switching engine
  with an explicit operation-count cost model (the software baseline
  the paper's hardware is compared against);
* :mod:`repro.mpls.router` -- LER and LSR node behaviour.
"""

from repro.mpls.errors import (
    InvalidLabelError,
    MPLSError,
    NoRouteError,
    StackDepthExceeded,
    StackUnderflow,
)
from repro.mpls.label import (
    BOTTOM_OF_STACK,
    IMPLICIT_NULL,
    IPV4_EXPLICIT_NULL,
    IPV6_EXPLICIT_NULL,
    LABEL_MAX,
    RESERVED_LABEL_MAX,
    ROUTER_ALERT,
    LabelEntry,
    LabelOp,
)
from repro.mpls.stack import LabelStack
from repro.mpls.fec import FEC, PrefixFEC, CoSFEC
from repro.mpls.nhlfe import NHLFE
from repro.mpls.tables import FTN, ILM
from repro.mpls.transaction import TableTransaction
from repro.mpls.forwarding import ForwardingEngine, ForwardingDecision, OpCounts
from repro.mpls.router import LSRNode, RouterRole

__all__ = [
    "MPLSError",
    "NoRouteError",
    "StackUnderflow",
    "StackDepthExceeded",
    "InvalidLabelError",
    "LabelEntry",
    "LabelOp",
    "LabelStack",
    "LABEL_MAX",
    "RESERVED_LABEL_MAX",
    "IPV4_EXPLICIT_NULL",
    "ROUTER_ALERT",
    "IPV6_EXPLICIT_NULL",
    "IMPLICIT_NULL",
    "BOTTOM_OF_STACK",
    "FEC",
    "PrefixFEC",
    "CoSFEC",
    "NHLFE",
    "ILM",
    "FTN",
    "TableTransaction",
    "ForwardingEngine",
    "ForwardingDecision",
    "OpCounts",
    "LSRNode",
    "RouterRole",
]
