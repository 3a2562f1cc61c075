"""Routing functionality: the software control plane.

The paper assigns "routing protocol functionality" to software, and
declares label path creation and distribution out of scope for the
hardware -- but the architecture depends on a populated information
base.  This subpackage supplies that software plane:

* :mod:`repro.control.routing` -- link-state database + Dijkstra SPF,
* :mod:`repro.control.labels` -- per-node label allocation,
* :mod:`repro.control.ldp` -- LDP-style downstream-unsolicited label
  distribution along IGP shortest paths (converged),
* :mod:`repro.control.ldp_sessions` -- the same distribution as real
  messages over sessions (discovery, ordered control, withdrawal),
* :mod:`repro.control.cspf` -- constraint-based SPF (bandwidth and
  affinity pruning) for traffic engineering,
* :mod:`repro.control.rsvp_te` -- explicit-route LSP signalling with
  bandwidth reservation: RSVP-TE (soft state, preemption) and CR-LDP
  (the other protocol the paper names: the same setup, hard state),
* :mod:`repro.control.frr` -- path protection over RSVP-TE,
* :mod:`repro.control.lsp` -- LSP and tunnel-hierarchy objects.

Each protocol derives a label binding's ILM/FTN entries in one place,
used by both install and refresh; penultimate-hop popping is the
:class:`~repro.mpls.nhlfe.NHLFE` constructor's (a label of
``IMPLICIT_NULL`` makes a swap a POP and a push a NOOP), so no protocol
branches on it.
"""

from repro.control.routing import LinkStateDatabase, SPFResult, shortest_path
from repro.control.labels import LabelAllocator, LabelSpaceExhausted
from repro.control.ldp import LDPProcess
from repro.control.ldp_sessions import MessageLDPProcess
from repro.control.cspf import CSPFError, cspf_path
from repro.control.overload import (
    IngressShedder,
    MessageClass,
    OverloadConfig,
    PriorityControlQueue,
)
from repro.control.rsvp_te import (
    CRLDPSignaler,
    RSVPTESignaler,
    SetupError,
    SignalingError,
)
from repro.control.frr import FastRerouteManager, ProtectedPath
from repro.control.oam import (
    PingResult,
    TracerouteResult,
    lsp_ping,
    lsp_traceroute,
)
from repro.control.lsp import LSP, TunnelHierarchy

__all__ = [
    "LinkStateDatabase",
    "SPFResult",
    "shortest_path",
    "LabelAllocator",
    "LabelSpaceExhausted",
    "LDPProcess",
    "MessageLDPProcess",
    "cspf_path",
    "CSPFError",
    "RSVPTESignaler",
    "SignalingError",
    "SetupError",
    "OverloadConfig",
    "PriorityControlQueue",
    "IngressShedder",
    "MessageClass",
    "CRLDPSignaler",
    "FastRerouteManager",
    "ProtectedPath",
    "lsp_ping",
    "lsp_traceroute",
    "PingResult",
    "TracerouteResult",
    "LSP",
    "TunnelHierarchy",
]
