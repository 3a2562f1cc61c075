"""Route management on a hardware node: the backend's modify/remove/read
path (the software control plane's management writes into the hardware
information base) and what forwarding sees afterwards."""

import pytest

from repro.core.hwnode import HardwareLSRNode
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import RouterRole
from repro.net.ethernet import ETHERTYPE_MPLS, EthernetFrame
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.mpls.stack import LabelStack
from repro.mpls.label import LabelEntry


def labelled_frame(label, ttl=20):
    packet = MPLSPacket(
        LabelStack([LabelEntry(label=label, ttl=ttl)]),
        IPv4Packet(src="10.1.0.5", dst="10.2.0.9"),
    )
    return EthernetFrame(
        dst_mac="02:00:00:00:00:01",
        src_mac="02:00:00:00:00:02",
        ethertype=ETHERTYPE_MPLS,
        payload=packet.serialize(),
    )


def install_swaps(node, swaps):
    """ILM swaps (in label -> out label), mirrored into the information
    base by one frame through the node."""
    for in_label, out_label in swaps.items():
        node.ilm.install(in_label, NHLFE(LabelOp.SWAP, out_label=out_label))
    node.process_frame(labelled_frame(in_label))


@pytest.fixture(params=["model", "rtl"])
def lsr(request):
    node = HardwareLSRNode("lsr", RouterRole.LSR, ib_depth=64,
                           backend=request.param)
    install_swaps(node, {100: 200})
    return node


class TestRouteManagement:
    def test_modify_pair_changes_forwarding(self, lsr):
        before = lsr.process_frame(labelled_frame(100))
        assert before.stack_after[0].label == 200
        assert lsr.modifier.modify_pair(1, 100, 300, LabelOp.SWAP).found
        after = lsr.process_frame(labelled_frame(100))
        assert after.stack_after[0].label == 300

    def test_update_missing_route_is_not_found(self, lsr):
        assert not lsr.modifier.modify_pair(1, 999, 300, LabelOp.SWAP).found

    def test_remove_pair_blackholes(self, lsr):
        assert lsr.modifier.remove_pair(1, 100).found
        result = lsr.process_frame(labelled_frame(100))
        assert result.discarded

    def test_remove_missing_route_is_not_found(self, lsr):
        assert not lsr.modifier.remove_pair(1, 999).found

    def test_read_entry_audits_contents(self, lsr):
        entry = lsr.modifier.read_entry(1, 0)
        assert entry.valid
        assert entry.index == 100
        assert entry.label == 200
        assert entry.op == LabelOp.SWAP

    def test_cycles_reported(self, lsr):
        update = lsr.modifier.modify_pair(1, 100, 300, LabelOp.SWAP)
        assert update.cycles == (3 * 0 + 8) + 2
        remove = lsr.modifier.remove_pair(1, 100)
        assert remove.cycles == (3 * 0 + 8) + 4

    def test_forwarding_continues_after_churn(self, lsr):
        """Install/update/remove cycles leave the data plane healthy."""
        install_swaps(lsr, {label: label + 1000 for label in range(300, 310)})
        lsr.modifier.modify_pair(1, 305, 777, LabelOp.SWAP)
        lsr.modifier.remove_pair(1, 303)
        result = lsr.process_frame(labelled_frame(305))
        assert result.stack_after[0].label == 777
        result = lsr.process_frame(labelled_frame(303))
        assert result.discarded
        result = lsr.process_frame(labelled_frame(309))
        assert result.stack_after[0].label == 1309
