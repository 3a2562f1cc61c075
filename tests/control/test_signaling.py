"""Tests for RSVP-TE and CR-LDP signalling."""

import pytest

from repro.control.lsp import LSP, TunnelHierarchy
from repro.control.rsvp_te import (
    CRLDPSignaler,
    RSVPTESignaler,
    SetupError,
    SignalingError,
)
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import IMPLICIT_NULL, LabelOp
from repro.mpls.router import LSRNode, RouterRole
from repro.net.topology import paper_figure1


def _env(topo=None):
    topo = topo or paper_figure1(bandwidth_bps=100e6)
    nodes = {
        name: LSRNode(
            name,
            RouterRole.LER if name.startswith("ler") else RouterRole.LSR,
        )
        for name in topo.nodes
    }
    return topo, nodes


class TestRSVPTE:
    def test_setup_installs_state(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        lsp = sig.setup(
            "t1",
            "ler-a",
            "ler-b",
            explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
            fec=PrefixFEC("10.2.0.0/16"),
        )
        assert lsp.up
        assert lsp.hops == 3
        # transit swap at lsr-1
        nhlfe = nodes["lsr-1"].ilm.lookup(lsp.hop_labels[0])
        assert nhlfe.op is LabelOp.SWAP
        assert nhlfe.out_label == lsp.hop_labels[1]
        # egress pop
        assert nodes["ler-b"].ilm.lookup(lsp.hop_labels[2]).op is LabelOp.POP
        # ingress FTN
        assert len(nodes["ler-a"].ftn) == 1

    def test_cspf_route_when_no_ero(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        lsp = sig.setup("t1", "ler-a", "ler-b")
        assert lsp.path[0] == "ler-a" and lsp.path[-1] == "ler-b"

    def test_bandwidth_reserved_and_released(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        lsp = sig.setup(
            "t1",
            "ler-a",
            "ler-b",
            explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
            bandwidth_bps=40e6,
        )
        assert topo.link("ler-a", "lsr-1").reservable("ler-a") == pytest.approx(60e6)
        sig.teardown("t1")
        assert topo.link("ler-a", "lsr-1").reservable("ler-a") == pytest.approx(100e6)
        assert not lsp.up

    def test_admission_control_rejects(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        sig.setup("big", "ler-a", "ler-b",
                  explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
                  bandwidth_bps=90e6)
        with pytest.raises(SignalingError):
            sig.setup("too-big", "ler-a", "ler-b",
                      explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
                      bandwidth_bps=20e6)
        assert sig.stats.setup_failures == 1

    def test_a_refusal_at_a_later_hop_touches_nothing(self):
        # the PATH message passes the first hop and stops at the second:
        # a SetupError, raised before any label, entry or reservation
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        sig.setup("mid", "lsr-1", "lsr-2", explicit_route=["lsr-1", "lsr-2"],
                  bandwidth_bps=90e6)

        def state():
            return (
                [(a, b, attrs.reservable(a), attrs.reservable(b))
                 for a, b, attrs in topo.edges_with_attrs()],
                {name: (len(n.ilm), len(n.ftn)) for name, n in nodes.items()},
                sorted(sig.lsps),
            )

        before = state()
        with pytest.raises(SetupError, match="link lsr-1-lsr-2 has only"):
            sig.setup("new", "ler-a", "ler-b",
                      explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
                      fec=PrefixFEC("10.2.0.0/16"), bandwidth_bps=20e6)
        assert state() == before
        assert issubclass(SetupError, SignalingError)

    def test_cspf_diverts_second_lsp(self):
        """TE in action: the second big LSP takes the other core path."""
        topo, nodes = _env()
        # widen the shared access links so the core is the bottleneck
        topo.link("ler-a", "lsr-1").bandwidth_bps = 400e6
        sig = RSVPTESignaler(topo, nodes)
        first = sig.setup("t1", "ler-a", "ler-b", bandwidth_bps=60e6)
        second = sig.setup("t2", "ler-a", "ler-b", bandwidth_bps=60e6)
        shared = set(first.links()) & set(second.links())
        # only the unavoidable first hop may be shared (ler-a has one exit)
        assert all("ler-a" in link for link in shared)

    def test_php(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        lsp = sig.setup(
            "t1",
            "ler-a",
            "ler-b",
            explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
            php=True,
        )
        assert lsp.hop_labels[-1] == IMPLICIT_NULL
        # the penultimate hop pops
        nhlfe = nodes["lsr-2"].ilm.lookup(lsp.hop_labels[1])
        assert nhlfe.op is LabelOp.POP

    def test_message_counts(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        sig.setup("t1", "ler-a", "ler-b",
                  explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"])
        assert sig.stats.path_messages == 3
        assert sig.stats.resv_messages == 3

    def test_soft_state_expiry(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        sig.setup("t1", "ler-a", "ler-b")
        sig.setup("t2", "ler-a", "ler-b")
        sig.refresh("t1", now=100.0)
        stale = sig.expire_stale(now=150.0, hold_time=90.0)
        assert stale == ["t2"]
        assert "t1" in sig.lsps and "t2" not in sig.lsps

    def test_bad_routes_rejected(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        with pytest.raises(SignalingError):
            sig.setup("t", "ler-a", "ler-b", explicit_route=["ler-a"])
        with pytest.raises(SignalingError):
            sig.setup("t", "ler-a", "ler-b",
                      explicit_route=["ler-a", "lsr-2", "ler-b"])  # no link
        with pytest.raises(SignalingError):
            sig.setup("t", "ler-a", "ler-b",
                      explicit_route=["lsr-1", "lsr-2", "ler-b"])  # wrong head

    def test_duplicate_name_rejected(self):
        topo, nodes = _env()
        sig = RSVPTESignaler(topo, nodes)
        sig.setup("t1", "ler-a", "ler-b")
        with pytest.raises(SignalingError):
            sig.setup("t1", "ler-a", "ler-b")


class TestCRLDP:
    def test_setup_equivalent_forwarding_state(self):
        topo, nodes = _env()
        sig = CRLDPSignaler(topo, nodes)
        lsp = sig.setup(
            "c1",
            "ler-a",
            "ler-b",
            explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
            fec=PrefixFEC("10.2.0.0/16"),
        )
        assert lsp.protocol == "cr-ldp"
        nhlfe = nodes["lsr-1"].ilm.lookup(lsp.hop_labels[0])
        assert nhlfe.op is LabelOp.SWAP

    def test_two_messages_per_hop_no_refresh(self):
        topo, nodes = _env()
        sig = CRLDPSignaler(topo, nodes)
        sig.setup("c1", "ler-a", "ler-b",
                  explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"])
        assert sig.stats.path_messages == 3  # Label Requests
        assert sig.stats.resv_messages == 3  # Label Mappings
        assert sig.stats.refresh_messages == 0

    def test_release(self):
        topo, nodes = _env()
        sig = CRLDPSignaler(topo, nodes)
        sig.setup("c1", "ler-a", "ler-b", bandwidth_bps=10e6)
        sig.release("c1")
        assert sig.stats.teardowns == 1
        assert all(len(n.ilm) == 0 for n in nodes.values())

    def test_atomic_failure_installs_nothing(self):
        topo, nodes = _env()
        sig = CRLDPSignaler(topo, nodes)
        with pytest.raises(SignalingError):
            sig.setup("c1", "ler-a", "ler-b",
                      explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
                      bandwidth_bps=1e9)
        assert all(len(n.ilm) == 0 for n in nodes.values())
        assert topo.link("ler-a", "lsr-1").reservable("ler-a") == pytest.approx(100e6)


@pytest.mark.parametrize("signaler", [RSVPTESignaler, CRLDPSignaler])
class TestFirstComeFirstServed:
    """Admission never takes from an established LSP: a setup that does
    not fit is refused, and every LSP already up keeps its labels,
    entries and reservations."""

    @staticmethod
    def _state(topo, nodes, sig):
        return (
            [(a, b, attrs.reservable(a), attrs.reservable(b))
             for a, b, attrs in topo.edges_with_attrs()],
            {name: (len(n.ilm), len(n.ftn)) for name, n in nodes.items()},
            {name: (lsp.up, lsp.hop_labels) for name, lsp in sig.lsps.items()},
        )

    @pytest.mark.parametrize("route", [
        ["ler-a", "lsr-1", "lsr-2", "ler-b"],
        None,  # CSPF: ler-a's one exit is the bottleneck
    ])
    def test_a_setup_that_does_not_fit_leaves_the_held_lsp(
        self, signaler, route
    ):
        topo, nodes = _env()
        sig = signaler(topo, nodes)
        held = sig.setup("held", "ler-a", "ler-b",
                         explicit_route=["ler-a", "lsr-1", "lsr-2", "ler-b"],
                         fec=PrefixFEC("10.2.0.0/16"), bandwidth_bps=90e6)
        before = self._state(topo, nodes, sig)
        with pytest.raises(SignalingError):
            sig.setup("late", "ler-a", "ler-b", explicit_route=route,
                      fec=PrefixFEC("10.3.0.0/16"), bandwidth_bps=20e6)
        assert self._state(topo, nodes, sig) == before
        assert held.up and list(sig.lsps) == ["held"]
        assert sig.stats.setup_failures == 1


class TestLSPAndTunnels:
    def test_lsp_validation(self):
        with pytest.raises(ValueError):
            LSP(name="bad", path=["a"], hop_labels=[])
        with pytest.raises(ValueError):
            LSP(name="bad", path=["a", "b"], hop_labels=[1, 2])

    def test_label_at(self):
        lsp = LSP(name="l", path=["a", "b", "c"], hop_labels=[100, 200])
        assert lsp.label_at("a") == 100
        assert lsp.label_at("b") == 200
        assert lsp.label_at("c") is None
        with pytest.raises(KeyError):
            lsp.label_at("ghost")

    def test_tunnel_stack_depth(self):
        """The paper's Figure 3: a level-2 tunnel around part of an LSP."""
        hierarchy = TunnelHierarchy()
        inner = LSP(name="inner", path=["a", "b", "c", "d"],
                    hop_labels=[10, 20, 30])
        outer = LSP(name="outer", path=["b", "x", "c"], hop_labels=[99, 98])
        hierarchy.add(inner)
        hierarchy.add(outer)
        hierarchy.nest("inner", "outer")
        assert hierarchy.stack_at("inner", "a") == [10]
        # inside the tunnel: outer label on top of the inner one
        assert hierarchy.stack_at("inner", "b") == [99, 20]
        assert hierarchy.depth_at("inner", "b") == 2
        # after the tunnel egress, back to one level
        assert hierarchy.stack_at("inner", "c") == [30]

    def test_nest_validation(self):
        hierarchy = TunnelHierarchy()
        inner = LSP(name="inner", path=["a", "b", "c"], hop_labels=[1, 2])
        bad = LSP(name="bad", path=["x", "y"], hop_labels=[9])
        hierarchy.add(inner)
        hierarchy.add(bad)
        with pytest.raises(ValueError):
            hierarchy.nest("inner", "bad")

    def test_nesting_depth_limit(self):
        """More than 3 levels exceeds the architecture's support."""
        hierarchy = TunnelHierarchy()
        l1 = LSP(name="l1", path=["a", "b", "c", "d", "e"],
                 hop_labels=[1, 2, 3, 4])
        l2 = LSP(name="l2", path=["b", "c", "d"], hop_labels=[5, 6])
        l3 = LSP(name="l3", path=["b", "c"], hop_labels=[7])
        l4 = LSP(name="l4", path=["b", "c"], hop_labels=[8])
        for lsp in (l1, l2, l3, l4):
            hierarchy.add(lsp)
        hierarchy.nest("l1", "l2")
        hierarchy.nest("l2", "l3")
        with pytest.raises(ValueError):
            hierarchy.nest("l3", "l4")
