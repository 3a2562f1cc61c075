"""Reproduction of *Embedded MPLS Architecture* (Peterkin & Ionescu,
2005).

The package reproduces the paper's hardware/software MPLS architecture
in Python, from the cycle-accurate RTL of the label stack modifier up
to a full simulated MPLS network with its control plane:

* :mod:`repro.hdl`  -- synchronous RTL simulation kernel,
* :mod:`repro.hw`   -- the label stack modifier (control unit + datapath),
* :mod:`repro.mpls` -- the MPLS protocol library (RFC 3031/3032),
* :mod:`repro.net`  -- packets, layer-2 framing, links, topologies,
  discrete-event simulation, traffic generators,
* :mod:`repro.control` -- SPF routing, LDP, CSPF, RSVP-TE, CR-LDP,
* :mod:`repro.qos`  -- classification and CoS scheduling,
* :mod:`repro.core` -- the assembled embedded architecture (the
  hardware router, on the functional model or the RTL) and its
  timing/device models,
* :mod:`repro.analysis` -- measurement and reporting for the
  benchmarks.

Quickstart (the README runs it in full)::

    from repro.core import HardwareLSRNode
    from repro.mpls.fec import PrefixFEC
    from repro.mpls.label import LabelOp
    from repro.mpls.nhlfe import NHLFE
    from repro.mpls.router import RouterRole

    ler = HardwareLSRNode("ler", RouterRole.LER, backend="rtl")
    ler.ftn.install(PrefixFEC("10.2.0.9/32"),
                    NHLFE(LabelOp.PUSH, out_label=777))
    result = ler.process_frame(ethernet_frame)
"""

__version__ = "1.0.0"

__all__ = [
    "hdl",
    "hw",
    "mpls",
    "net",
    "control",
    "qos",
    "core",
    "analysis",
]
