"""The flow-cache hit's call budget, counted rather than timed.

A train that hits every node's flow cache replays what the cache
worked out when it filled: the flow key is the stack's stored memo,
the decision a ``tuple.__new__``, the outbound channel one dict read.
This test counts the Python ``call`` events (``sys.setprofile``) over
flow-cache-hit train-hops on the Figure 1 network, the shape the
``fwd_batched`` workload runs, and pins the count per hop.  Counting
calls instead of timing them makes the budget exact and independent of
the machine; a regression here means a per-hop function call was
added to the hit path (a property, a helper, a constructor).

The count is the same on Python 3.10 and 3.11 (each ``call`` event is
one Python frame started or resumed; C calls are ``c_call`` events and
are not counted).
"""

import sys

from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.aggregate import FlowAggregate
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1

#: Python calls per flow-cache-hit train-hop over the four nodes of
#: the path (ingress, two LSRs, egress)
CALLS_PER_HIT_HOP = 25.25

#: the calls a run makes once, whatever it carries: ``MPLSNetwork.run``
#: and ``EventScheduler.run``
RUN_CALLS = 2

FLOWS = 40
TRAIN = 16
SPACING = 2e-6


def _network():
    topology = paper_figure1(bandwidth_bps=1e11, delay_s=1e-3)
    net = MPLSNetwork(
        topology, roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    )
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topology, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    return net


def _offer(net, flows):
    """One train per flow from now on, every destination distinct."""
    sink = net.aggregate_sink("ler-a")
    start = net.scheduler.now
    for flow_id in range(flows):
        train = FlowAggregate(
            template=IPv4Packet(
                src="10.1.0.5",
                dst=f"10.2.0.{flow_id + 1}",
                payload=bytes(200),
                flow_id=flow_id,
                created_at=start + flow_id * SPACING,
            ),
            count=TRAIN,
        )
        net.scheduler.at(start + flow_id * SPACING, sink, train)


def calls_per_hit_hop(flows=FLOWS):
    """Python calls per train-hop over a round of trains that hits at
    every node (a first round of the same flows filled the caches)."""
    net = _network()
    _offer(net, flows)
    net.run()
    misses = sum(n.flow_cache.misses for n in net.nodes.values())
    received = sum(n.stats.received for n in net.nodes.values())
    _offer(net, flows)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        net.run()
    finally:
        sys.setprofile(None)
    assert sum(n.flow_cache.misses for n in net.nodes.values()) == misses
    assert net.delivered_count() == 2 * flows * TRAIN
    hops = (sum(n.stats.received for n in net.nodes.values()) - received)
    return (calls - RUN_CALLS) / (hops // TRAIN)


def test_a_hit_hop_stays_inside_its_call_budget():
    assert calls_per_hit_hop() == CALLS_PER_HIT_HOP
