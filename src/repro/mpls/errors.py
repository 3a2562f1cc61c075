"""MPLS protocol error taxonomy.

Stack misuse and an out-of-range or reserved label are configuration
errors that must never be silent, so each has a dedicated exception, as
does a FEC miss in ``FTN.lookup``.  A label lookup miss and an expired
TTL are no exceptions: the forwarding engine returns them as discard
decisions (the paper's Figure 9 DISCARD path).
"""

from __future__ import annotations


class MPLSError(Exception):
    """Base class for all MPLS protocol errors."""


class NoRouteError(MPLSError):
    """An unlabelled packet matched no FEC at the ingress LER."""


class StackUnderflow(MPLSError):
    """A pop or swap was attempted on an empty label stack."""


class StackDepthExceeded(MPLSError):
    """A push would exceed the configured maximum stack depth.

    The paper (and its information base) supports three levels; the
    software engine makes the bound configurable but enforces it.
    """


class InvalidLabelError(MPLSError, ValueError):
    """A label, CoS, or TTL field value is out of range, or a reserved
    label was used where a real label is required."""
