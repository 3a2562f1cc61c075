"""Aggregate <-> packet materialization edges.

Covers the boundary cases of flow aggregates: an aggregate whose
flight spans an FRR-style table switchover, zero-length and single-packet
aggregates, and exact accounting against the same demand as packets.
"""

import pytest

from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import RouterRole
from repro.net.aggregate import (
    AggregateCBRSource,
    AggregateDelivery,
    FlowAggregate,
)
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource
from repro.obs import telemetry_session


def _network():
    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    net = MPLSNetwork(topo, roles)
    net.attach_host("ler-b", "10.2.0.0/16")
    ldp = LDPProcess(topo, net.nodes)
    ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
    return net, ldp


def _packet(dst="10.2.0.9", ttl=64, created_at=0.0, seq=0):
    return IPv4Packet(
        src="10.1.0.5",
        dst=dst,
        ttl=ttl,
        payload=bytes(500),
        flow_id=7,
        seq=seq,
        created_at=created_at,
    )


class TestAggregateEdges:
    def test_zero_count_aggregate_is_a_noop(self):
        net, _ = _network()
        net.scheduler.after(
            0.0, net.aggregate_sink("ler-a"),
            FlowAggregate(template=_packet(), count=0),
        )
        net.run(until=1.0)
        assert net.delivered_count() == 0
        assert net.drop_count() == 0
        assert net.deliveries.views() == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FlowAggregate(template=_packet(), count=-1)

    def test_single_packet_aggregate_delivers_one(self):
        net, _ = _network()
        net.scheduler.after(
            0.0, net.aggregate_sink("ler-a"),
            FlowAggregate(template=_packet(), count=1),
        )
        net.run(until=1.0)
        assert net.delivered_count() == 1
        (delivery,) = net.deliveries.views()
        assert isinstance(delivery, AggregateDelivery)
        assert delivery.count == 1
        assert len(delivery.latencies()) == 1

    def test_aggregate_latencies_are_per_packet_analytic(self):
        delivery = AggregateDelivery(
            time=1.0,
            node="ler-b",
            flow_id=7,
            count=3,
            first_created_at=0.4,
            interval=0.1,
        )
        assert delivery.latencies() == pytest.approx([0.6, 0.5, 0.4])


class TestSpanningSwitchover:
    def test_aggregate_spanning_frr_switchover_takes_new_path(self):
        """Aggregates in flight when the tables flip (FRR-style NHLFE
        rewrite) are forwarded by the *new* tables on their next hop:
        the whole train switches together, none of it is lost."""
        net, ldp = _network()
        # steady traffic: one aggregate every batch window
        source = AggregateCBRSource(
            net.scheduler,
            net.aggregate_sink("ler-a"),
            src="10.1.0.5",
            dst="10.2.0.9",
            rate_bps=2e6,
            batch=25,
            stop=0.4,
        )
        source.begin()

        # mid-run, swing lsr-1's swap onto the protection leg through
        # lsr-3 the way an FRR switchover does (transactional commit)
        def switchover():
            node = net.nodes["lsr-1"]
            node.ilm.begin()
            for label, nhlfe in list(node.ilm):
                if nhlfe.op is LabelOp.SWAP:
                    node.ilm.install(
                        label,
                        NHLFE(
                            op=nhlfe.op,
                            out_label=nhlfe.out_label,
                            next_hop="lsr-3",
                        ),
                    )
            node.ilm.commit()

        net.scheduler.at(0.2, switchover)
        net.run(until=1.0)
        assert source.sent > 0
        assert net.delivered_count() == source.sent
        assert net.drop_count() == 0
        # the commit invalidated lsr-1's flow cache mid-run, and the
        # protection hop saw the tail of the demand
        assert net.nodes["lsr-1"].flow_cache.invalidations >= 1
        assert net.nodes["lsr-3"].stats.forwarded_mpls > 0
        assert net.nodes["lsr-2"].stats.forwarded_mpls > 0


class TestAccountingEquivalence:
    def test_aggregate_totals_match_scalar_run(self):
        """The same CBR demand, once as scalar packets and once as
        aggregates, produces identical delivered/byte totals and
        identical per-node stats counters."""

        def scalar_totals():
            topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
            roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
            net = MPLSNetwork(topo, roles)
            net.attach_host("ler-b", "10.2.0.0/16")
            ldp = LDPProcess(topo, net.nodes)
            ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
            source = CBRSource(
                net.scheduler,
                net.source_sink("ler-a"),
                src="10.1.0.5",
                dst="10.2.0.9",
                rate_bps=1e6,
                packet_size=500,
                stop=0.3,
            )
            source.begin()
            net.run(until=1.0)
            return net, source

        def batched_totals():
            net, _ = _network()
            source = AggregateCBRSource(
                net.scheduler,
                net.aggregate_sink("ler-a"),
                src="10.1.0.5",
                dst="10.2.0.9",
                rate_bps=1e6,
                batch=16,
                stop=0.3,
            )
            source.begin()
            net.run(until=1.0)
            return net, source

        with telemetry_session():
            scalar_net, scalar_src = scalar_totals()
        with telemetry_session():
            batched_net, batched_src = batched_totals()
        assert batched_src.sent == scalar_src.sent
        assert batched_src.sent_bytes == scalar_src.sent_bytes
        assert (
            batched_net.delivered_count() == scalar_net.delivered_count()
        )
        for name in scalar_net.nodes:
            s = scalar_net.nodes[name].stats
            b = batched_net.nodes[name].stats
            assert (s.received, s.forwarded_mpls, s.forwarded_ip) == (
                b.received,
                b.forwarded_mpls,
                b.forwarded_ip,
            ), name
