"""The telemetry hot-path contract, measured rather than promised.

The data plane's deal with the observability layer: when telemetry is
disabled, a packet costs exactly one read of the object's own telemetry
reference (resolved once, when the object was built) and one
``enabled`` boolean per instrumentation site, and nothing is emitted.
Span tracing (PR 4) and flow accounting (PR 6) must ride inside that
budget -- the capture gate short-circuits on the absent recorder, and
the flow hooks only test ``tel.flows`` after the boolean has already
passed.

This bench proves it with a :class:`Telemetry` subclass that counts
every read of ``enabled``, made the default before the network is built
so every object takes it: a full hardware-network run with telemetry
off must emit zero events and read the switch a bounded, audited number
of times per packet-hop.
"""

from benchmarks._util import emit, emit_json
from repro.analysis.report import render_table
from repro.control.ldp import LDPProcess
from repro.core.hwnode import HardwareLSRNode
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net.network import MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource
from repro.obs.telemetry import Telemetry, set_telemetry

#: Audited ``enabled`` reads per node-receive with telemetry disabled:
#: one in ``FlowCache.process`` (a hit's replay publishes by the flag
#: its measured pass recorded, so it reads none) and one at the
#: ``LSRNode.observe`` gate in ``receive``; the span-capture gate reads
#: none without a recorder.  A cache miss adds its measured pass's read.
READS_PER_RECEIVE = 2

#: Audited reads charged per packet-hop by the network layer around the
#: node (enqueue/transmit/deliver bookkeeping).
READS_PER_HOP_NETWORK = 4


class CountingTelemetry(Telemetry):
    """Counts every read of the ``enabled`` switch."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled_reads = 0
        self._enabled_flag = False
        super().__init__(enabled=enabled)

    @property
    def enabled(self) -> bool:
        self.enabled_reads += 1
        return self._enabled_flag

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled_flag = value


def _run_hw_network():
    topo = paper_figure1(bandwidth_bps=10e6, delay_s=1e-3)
    roles = {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER}
    net = MPLSNetwork(topo, roles, node_factory=HardwareLSRNode)
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topo, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    src = CBRSource(net.scheduler, net.source_sink("ler-a"),
                    src="10.1.0.5", dst="10.2.0.9", rate_bps=2e6,
                    packet_size=500, stop=0.5)
    src.begin()
    net.run(until=1.0)
    return net, src


def test_disabled_telemetry_hot_path_contract(benchmark):
    def run():
        tel = CountingTelemetry(enabled=False)
        previous = set_telemetry(tel)
        try:
            net, src = _run_hw_network()
        finally:
            set_telemetry(previous)
        return tel, net, src

    tel, net, src = benchmark.pedantic(run, iterations=1, rounds=2)
    assert net.delivered_count() == src.sent

    receives = sum(n.stats.received for n in net.nodes.values())
    budget = receives * (READS_PER_RECEIVE + READS_PER_HOP_NETWORK)
    reads_per_hop = tel.enabled_reads / receives

    # nothing observable happened: no events, no metric samples
    assert tel.events.emitted == 0
    assert tel.spans is None
    assert tel.flows is None
    # and the cost stayed inside the audited per-hop boolean budget --
    # a regression here means someone added an unguarded telemetry read
    # (or an eager span check) to the per-packet path
    assert tel.enabled_reads <= budget, (
        f"{tel.enabled_reads} enabled-reads for {receives} receives "
        f"(budget {budget})"
    )

    emit(
        "obs_overhead_disabled",
        render_table(
            ["metric", "value"],
            [
                ["packets sent", src.sent],
                ["node receives", receives],
                ["enabled reads", tel.enabled_reads],
                ["reads / packet-hop", f"{reads_per_hop:.2f}"],
                ["events emitted", tel.events.emitted],
            ],
            title="Telemetry-off overhead across a full hardware run",
        ),
    )
    emit_json(
        "obs_overhead_disabled",
        metric="enabled_reads_per_packet_hop",
        value=round(reads_per_hop, 4),
        units="reads/hop",
        seed=1,
        budget=READS_PER_RECEIVE + READS_PER_HOP_NETWORK,
    )
