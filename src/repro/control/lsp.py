"""Label switched paths and tunnel hierarchy (paper Figures 2-3).

An :class:`LSP` records everything the control plane decided for one
path: the node sequence, the label used on each hop, reserved
bandwidth, and CoS.  :class:`TunnelHierarchy` implements the paper's
Figure 3: routing one LSP *through* another by pushing the outer
tunnel's label on top at the tunnel head -- the mechanism behind
aggregation ("merging") of traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class LSP:
    """One signalled label switched path.

    ``hop_labels[i]`` is the label carried on the link from
    ``path[i]`` to ``path[i+1]`` (so there are ``len(path) - 1`` of
    them; the last may be None when penultimate-hop popping was
    negotiated).
    """

    name: str
    path: List[str]
    hop_labels: List[Optional[int]]
    bandwidth_bps: float = 0.0
    cos: Optional[int] = None
    #: signalling protocol that created it ("rsvp-te", "cr-ldp", "ldp")
    protocol: str = "static"
    up: bool = True

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError(f"LSP {self.name}: a path needs >= 2 nodes")
        if len(self.hop_labels) != len(self.path) - 1:
            raise ValueError(
                f"LSP {self.name}: {len(self.path)} nodes need "
                f"{len(self.path) - 1} hop labels, got {len(self.hop_labels)}"
            )

    @property
    def ingress(self) -> str:
        return self.path[0]

    @property
    def egress(self) -> str:
        return self.path[-1]

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def links(self) -> List[Tuple[str, str]]:
        return list(zip(self.path, self.path[1:]))

    def label_at(self, node: str) -> Optional[int]:
        """The label this LSP carries when *leaving* ``node``."""
        try:
            idx = self.path.index(node)
        except ValueError:
            raise KeyError(f"{node} is not on LSP {self.name}") from None
        if idx == len(self.path) - 1:
            return None  # the egress emits no label
        return self.hop_labels[idx]


class TunnelHierarchy:
    """Nests LSPs: an inner LSP rides an outer tunnel (Figure 3).

    The outer tunnel's ingress and egress must both lie on the inner
    LSP's path, in order.  The hierarchy answers, for any node, the
    stack of labels a packet of the inner LSP carries there -- which is
    what the paper's multi-level information base switches on.
    """

    def __init__(self) -> None:
        #: inner LSP name -> outer LSP name
        self._parent: Dict[str, str] = {}
        self._lsps: Dict[str, LSP] = {}

    def add(self, lsp: LSP) -> None:
        if lsp.name in self._lsps:
            raise ValueError(f"LSP {lsp.name!r} already registered")
        self._lsps[lsp.name] = lsp

    def lsp(self, name: str) -> LSP:
        return self._lsps[name]

    def nest(self, inner: str, outer: str) -> None:
        """Declare that ``inner`` rides through tunnel ``outer``."""
        inner_lsp = self._lsps[inner]
        outer_lsp = self._lsps[outer]
        try:
            i_in = inner_lsp.path.index(outer_lsp.ingress)
            i_out = inner_lsp.path.index(outer_lsp.egress)
        except ValueError:
            raise ValueError(
                f"tunnel {outer!r} endpoints are not on {inner!r}'s path"
            ) from None
        if i_in >= i_out:
            raise ValueError(
                f"tunnel {outer!r} endpoints appear out of order on "
                f"{inner!r}'s path"
            )
        if inner in self._parent:
            raise ValueError(f"{inner!r} is already nested")
        # depth check: no chain through this new edge may exceed the
        # 3 label-stack levels the architecture supports.  The chain
        # length is (descendants below `inner`) + (ancestors above
        # `outer`) + the two endpoints themselves.
        self._parent[inner] = outer
        try:
            for name in self._lsps:
                depth = 1
                ancestor = self._parent.get(name)
                while ancestor is not None:
                    depth += 1
                    ancestor = self._parent.get(ancestor)
                if depth > 3:
                    raise ValueError(
                        f"nesting {inner!r} in {outer!r} exceeds the 3 "
                        "label-stack levels the architecture supports"
                    )
        except ValueError:
            del self._parent[inner]
            raise

    def parent(self, name: str) -> Optional[str]:
        return self._parent.get(name)

    def stack_at(self, inner: str, node: str) -> List[int]:
        """The label stack (top first) a packet of LSP ``inner``
        carries when leaving ``node``.

        Defined for nodes on the *inner LSP's own path* (where both the
        customer and any enclosing tunnel labels are known); for pure
        tunnel-transit nodes the inner label is opaque to the control
        plane and an empty list is returned.
        """
        stack: List[int] = []
        current = inner
        while current is not None:
            lsp = self._lsps[current]
            if node in lsp.path and node != lsp.egress:
                outer_name = self._parent.get(current)
                label = lsp.label_at(node)
                if label is not None:
                    stack.insert(0, label)
                # only consult the outer tunnel while inside it
                if outer_name is not None:
                    outer = self._lsps[outer_name]
                    if node in outer.path and node != outer.egress:
                        current = outer_name
                        continue
            break
        return stack

    def depth_at(self, inner: str, node: str) -> int:
        return len(self.stack_at(inner, node))
