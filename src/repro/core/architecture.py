"""EmbeddedMPLS: a standalone Figure 6 router, with its defaults.

The paper's router -- ingress packet processing, label stack modifier,
egress packet processing, programmed by the software routing
functionality -- is :class:`~repro.core.hwnode.HardwareLSRNode`: it owns
the backend choice (``"model"`` or ``"rtl"``), the hop and
:meth:`~repro.core.hwnode.HardwareLSRNode.process_frame`.  This module
only names a node that stands outside any network.
"""

from __future__ import annotations

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import RouterRole


class EmbeddedMPLS(HardwareLSRNode):
    """A hardware router outside any network: named ``device``, an LER
    unless told otherwise, programmed one ILM swap at a time.

    It stays only because the ``core.process_frame_*`` probe of
    ``benchmarks/perf`` builds ``EmbeddedMPLS(role=, backend=)`` and
    calls :meth:`install_swap`; once that probe builds the node, this
    class goes.
    """

    def __init__(
        self, role: RouterRole = RouterRole.LER, backend: str = "model"
    ) -> None:
        super().__init__("device", role, backend=backend)

    def install_swap(self, in_label: int, out_label: int) -> None:
        """An ILM SWAP entry; the node mirrors it into the information
        base before the next packet it forwards."""
        self.ilm.install(in_label, NHLFE(LabelOp.SWAP, out_label=out_label))
