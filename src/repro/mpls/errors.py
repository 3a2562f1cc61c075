"""MPLS protocol error taxonomy.

Every abnormal condition the data plane raises has a dedicated
exception, because the paper's hardware distinguishes them too: a lookup
miss discards the packet (Figure 9's DISCARD path), while stack misuse
is a configuration error that must never be silent.  An expired TTL is
no exception: the forwarding engine returns it as a discard decision.
"""

from __future__ import annotations


class MPLSError(Exception):
    """Base class for all MPLS protocol errors."""


class LabelLookupMiss(MPLSError):
    """An incoming label has no ILM entry; packet dropped.

    Corresponds to the ``packetdiscard`` outcome of the paper's
    Figure 16 simulation.
    """


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
