"""Quality of Service substrate (paper sections 1-2).

"The CoS bits affect the scheduling and/or discard algorithms applied
to the packet as it is transmitted through the network."  This
subpackage supplies those scheduling and discard algorithms, plus the
classification and policing that feed them:

* :mod:`repro.qos.classifier` -- packet -> CoS classification,
* :mod:`repro.qos.policer` -- token-bucket policing and shaping,
* :mod:`repro.qos.queues` -- tail-drop and RED queues,
* :mod:`repro.qos.scheduler` -- strict-priority and weighted-fair
  schedulers keyed on the CoS bits, pluggable into
  :class:`~repro.net.link.SimplexChannel`.
"""

from repro.qos.classifier import Classifier, cos_of_packet
from repro.qos.policer import TokenBucket, PolicerAction
from repro.qos.queues import REDQueue, TailDropQueue
from repro.qos.scheduler import PriorityScheduler, WFQScheduler

__all__ = [
    "Classifier",
    "cos_of_packet",
    "TokenBucket",
    "PolicerAction",
    "TailDropQueue",
    "REDQueue",
    "PriorityScheduler",
    "WFQScheduler",
]
