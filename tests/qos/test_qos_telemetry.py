"""A CoS scheduler is a link queue with telemetry on, too.

With telemetry enabled, ``SimplexChannel.send`` reports the queue's
depth after every enqueue and dequeue, so every queue a link takes --
the drop-tail FIFO and both CoS schedulers -- answers ``len``.  Figure
1 is congested with elastic data next to a voice flow, under each
scheduler, inside a telemetry session.
"""

import pytest

from repro.control.ldp import LDPProcess
from repro.mpls.fec import CoSFEC, PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import DSCP_EF, CBRSource, VoIPSource
from repro.obs.telemetry import telemetry_session
from repro.qos.scheduler import PriorityScheduler, WFQScheduler

LINK_BPS = 2e6


@pytest.mark.parametrize(
    "queue_factory",
    [
        lambda: PriorityScheduler(capacity_per_class=8),
        lambda: WFQScheduler({5: 4.0}, capacity_per_class=8),
    ],
    ids=["priority", "wfq"],
)
def test_figure1_runs_under_telemetry_with_a_cos_scheduler(queue_factory):
    with telemetry_session() as tel:
        topo = paper_figure1(bandwidth_bps=LINK_BPS, delay_s=1e-3)
        net = MPLSNetwork(
            topo,
            roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER},
            queue_factory=queue_factory,
        )
        net.attach_host("ler-b", "10.2.0.0/16")
        ldp = LDPProcess(topo, net.nodes)
        ldp.establish_fec(PrefixFEC("10.2.0.0/16"), egress="ler-b")
        ldp.establish_fec(CoSFEC(PrefixFEC("10.2.0.0/16"), DSCP_EF), egress="ler-b")
        sink = net.source_sink("ler-a")
        voice = VoIPSource(net.scheduler, sink, src="10.1.0.5", dst="10.2.0.9", stop=1.0)
        data = CBRSource(net.scheduler, sink, src="10.1.0.7", dst="10.2.0.11",
                         rate_bps=2 * LINK_BPS, packet_size=1000, stop=1.0)
        voice.begin()
        data.begin()
        net.run(until=0.1)  # mid-congestion: the queues are not empty
    depths = {labels: child.value for labels, child in tel.queue_depth.samples()}
    channels = [c for link in net.links.values() for c in (link.forward, link.reverse)]
    # the gauge shows each queue as the last send or dequeue left it
    queued = {(c.src.node, c.dst.node): len(c.queue) for c in channels if c.tx_packets}
    assert queued and all(depths[key] == depth for key, depth in queued.items())
    assert max(queued.values()) >= 2  # the data really congested a link
