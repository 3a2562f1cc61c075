"""Quality of Service substrate (paper sections 1-2).

"The CoS bits affect the scheduling and/or discard algorithms applied
to the packet as it is transmitted through the network."  This
subpackage supplies the scheduling algorithms and the classification
that feeds them:

* :mod:`repro.qos.classifier` -- packet -> CoS classification,
* :mod:`repro.qos.scheduler` -- strict-priority and weighted-fair
  schedulers keyed on the CoS bits, pluggable into
  :class:`~repro.net.link.SimplexChannel`.
"""

from repro.mpls.forwarding import cos_of_packet
from repro.qos.classifier import Classifier
from repro.qos.scheduler import PriorityScheduler, WFQScheduler

__all__ = [
    "Classifier",
    "cos_of_packet",
    "PriorityScheduler",
    "WFQScheduler",
]
