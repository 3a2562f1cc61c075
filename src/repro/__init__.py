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
* :mod:`repro.core` -- the assembled embedded architecture and its
  timing/device models,
* :mod:`repro.analysis` -- measurement and reporting for the
  benchmarks.

Quickstart::

    from repro.core import EmbeddedMPLS
    from repro.mpls.label import LabelOp
    from repro.mpls.router import RouterRole

    ler = EmbeddedMPLS(role=RouterRole.LER)
    ler.install_route(1, 0x0A000001, 777, LabelOp.PUSH)
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
