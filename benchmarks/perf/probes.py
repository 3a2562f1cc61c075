"""Per-layer probes: each layer timed from outside, by its public calls.

A probe wraps one public function in a tight loop, repeats the loop in
at least five batches and reports the median cost per call; beside the
timings it reports counts that must repeat exactly (settle passes per
cycle, LDP messages to converge).  Probes use fixed inputs -- they do
not depend on the workload or the seed -- so a layer's number means the
same thing in every traced run.

``scale`` shrinks the loop lengths (never the batch count) for the
smoke test.
"""

from __future__ import annotations

import gc
import io
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.control.controller import ControllerConfig, PCEController
from repro.control.cspf import cspf_path
from repro.control.ldp import LDPProcess
from repro.control.ldp_sessions import MessageLDPProcess
from repro.control.overload import MessageClass, PriorityControlQueue
from repro.control.routing import LinkStateDatabase
from repro.control.rsvp_te import RSVPTESignaler
from repro.core.architecture import EmbeddedMPLS
from repro.core.hwnode import HardwareLSRNode
from repro.faults import chaos
from repro.faults.auditor import ConsistencyAuditor
from repro.faults.scenario import Scenario
from repro.hdl.simulator import Component
from repro.hw.driver import ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.mpls.fastpath import FlowCache
from repro.mpls.fec import PrefixFEC
from repro.mpls.forwarding import ForwardingEngine
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.nhlfe import NHLFE
from repro.mpls.router import LSRNode, RouterRole
from repro.mpls.stack import LabelStack
from repro.mpls.transaction import TableTransaction
from repro.net.atm import reassemble_aal5, segment_aal5
from repro.net.ethernet import ETHERTYPE_MPLS, EthernetFrame
from repro.net.events import EventScheduler
from repro.net.frame_relay import FrameRelayFrame
from repro.net.link import Interface, Link
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.topology import Topology, ring
from repro.obs import (
    JSONLSink,
    ListSink,
    PacketForwarded,
    get_telemetry,
    telemetry_session,
    to_prometheus,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.qos.classifier import Classifier
from repro.qos.scheduler import WFQScheduler

from benchmarks.perf.workloads import WORKLOADS

BATCHES = 5


def _calls(n: int, scale: float) -> int:
    return max(3, int(n * scale))


def _per_call(
    fn: Callable[[], Any], calls: int, unit: float = 1e6
) -> float:
    """Median over the batches of (loop time / calls), in ``1/unit`` s."""
    samples = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls * unit)
    return statistics.median(samples)


def _per_batch(
    setup: Callable[[], Any],
    run: Callable[[Any], Any],
    unit: float = 1e3,
    divide_by: int = 1,
) -> float:
    """Median over the batches of one ``run(setup())``, set-up untimed."""
    samples = []
    for _ in range(BATCHES):
        state = setup()
        start = perf_counter()
        run(state)
        samples.append((perf_counter() - start) * unit / divide_by)
    return statistics.median(samples)


# -- hdl / hw ---------------------------------------------------------------
def hdl_hw(scale: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    entries = _calls(256, scale)

    def filled(factory: Callable[..., Any]) -> Any:
        modifier = factory(ib_depth=1024)
        modifier.reset()
        for i in range(entries):
            modifier.write_pair(1, 1000 + i, 500 + i, LabelOp.SWAP)
        return modifier

    out["hw.driver_build_ms"] = _per_call(
        lambda: ModifierDriver(ib_depth=1024), _calls(20, scale), 1e3
    )
    driver = ModifierDriver(ib_depth=1024)
    driver.reset()
    position = iter(range(1 << 30))
    out["hw.rtl_write_pair_us"] = _per_call(
        lambda: driver.write_pair(
            1, 1000 + next(position), 500, LabelOp.SWAP
        ),
        entries // BATCHES or 1,
    )

    # Simulator.step() mid-search, seen from a tick hook; a settle
    # counter rides along as one more component of the design
    driver = filled(ModifierDriver)

    class SettleCounter(Component):
        passes = 0

        def settle(self) -> None:
            self.passes += 1

    counter = SettleCounter(driver.sim, "perf_probe")
    ticks: List[float] = []

    def on_tick(_cycle: int) -> None:
        ticks.append(perf_counter())

    driver.sim.on_tick(on_tick)
    missing = 0xFFFFF
    result = driver.search(1, missing)
    driver.sim.remove_tick_hook(on_tick)
    steps = [b - a for a, b in zip(ticks, ticks[1:])]
    out["hdl.step_us"] = statistics.median(steps) * 1e6
    out["hdl.settle_passes_per_cycle"] = counter.passes / result.cycles

    search_times = []
    for _ in range(BATCHES):
        start = perf_counter()
        driver.search(1, missing)
        search_times.append(perf_counter() - start)
    rtl_search = statistics.median(search_times) / entries
    out["hw.rtl_search_us_per_entry"] = rtl_search * 1e6

    def update(modifier: Any) -> None:
        # hit at position 8: push the key, update (swap), pop it again
        modifier.user_push(LabelEntry(label=1008, ttl=64, s=1))
        if modifier.update().discarded:
            raise RuntimeError("probe update was discarded")
        modifier.user_pop()

    out["hw.rtl_update_us"] = _per_call(
        lambda: update(driver), _calls(6, scale)
    )

    model = filled(FunctionalModifier)
    model_search = _per_call(
        lambda: model.search(1, missing), _calls(400, scale)
    ) / entries
    out["hw.model_search_us_per_entry"] = model_search

    out["hw.model_update_us"] = _per_call(
        lambda: update(model), _calls(4000, scale)
    )
    # the same full-scan search on both back ends
    out["hw.rtl_model_ratio"] = rtl_search * 1e6 / model_search
    return out


# -- mpls ---------------------------------------------------------------------
def mpls(scale: float) -> Dict[str, float]:
    out: Dict[str, float] = {}

    def engine() -> ForwardingEngine:
        eng = ForwardingEngine(node_name="probe")
        for i in range(256):
            eng.ftn.install(
                PrefixFEC(f"10.{i}.0.0/16"),
                NHLFE(LabelOp.PUSH, out_label=100 + i, next_hop="peer"),
            )
            eng.ilm.install(
                100 + i,
                NHLFE(LabelOp.SWAP, out_label=400 + i, next_hop="peer"),
            )
        return eng

    eng = engine()
    ip_packets = [
        IPv4Packet(src="192.0.2.1", dst=f"10.{i}.3.4", payload=bytes(64))
        for i in range(256)
    ]
    labelled = [
        MPLSPacket(
            LabelStack([LabelEntry(label=100 + i, ttl=64, s=1)]), packet
        )
        for i, packet in enumerate(ip_packets)
    ]
    turn = iter(range(1 << 30))
    n = _calls(4000, scale)
    out["mpls.ftn_lookup_us"] = _per_call(
        lambda: eng.ingress(ip_packets[next(turn) & 0xFF]), n // 4
    )
    out["mpls.transit_us"] = _per_call(
        lambda: eng.transit(labelled[next(turn) & 0xFF]), n
    )
    entry = LabelEntry(label=0xABCDE, cos=5, s=1, ttl=200)
    out["mpls.label_codec_us"] = _per_call(
        lambda: LabelEntry.decode(entry.encode()), _calls(20000, scale)
    )

    cache = FlowCache(engine())
    for packet in ip_packets:
        cache.process(packet)
    out["mpls.cache_hit_us"] = _per_call(
        lambda: cache.process(ip_packets[next(turn) & 0xFF]), n
    )
    # every call a miss: the engine's tables never change, the key does
    fresh = iter(
        IPv4Packet(src="192.0.2.1", dst=f"10.{i & 0xFF}.{i >> 8}.9")
        for i in range(1 << 30)
    )
    fill_cache = FlowCache(engine())
    out["mpls.cache_fill_us"] = _per_call(
        lambda: fill_cache.process(next(fresh)), _calls(600, scale)
    )
    small = FlowCache(engine(), capacity=64)
    out["mpls.cache_evict_us"] = _per_call(
        lambda: small.process(next(fresh)), _calls(600, scale)
    )

    def commit_entries() -> None:
        nodes = {f"n{i}": LSRNode(f"n{i}", RouterRole.LSR) for i in range(4)}
        txn = TableTransaction.for_nodes(nodes).begin()
        for i in range(64):
            for node in nodes.values():
                node.ilm.install(
                    100 + i,
                    NHLFE(LabelOp.SWAP, out_label=300 + i, next_hop="peer"),
                )
        txn.commit()

    out["mpls.table_commit_us"] = (
        _per_call(commit_entries, _calls(10, scale)) / 256
    )
    return out


# -- net ------------------------------------------------------------------------
def net(scale: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    depth = _calls(10_000, scale)

    def deep_heap() -> EventScheduler:
        scheduler = EventScheduler()
        for i in range(depth):
            scheduler.at(1.0 + i * 1e-6, _noop)
        return scheduler

    def churn(scheduler: EventScheduler) -> None:
        # one at() and one popped event per turn, heap depth constant
        for i in range(depth):
            scheduler.at(2.0 + i * 1e-6, _noop)
            scheduler.step()

    out["net.sched_event_us"] = _per_batch(
        deep_heap, churn, unit=1e6, divide_by=depth
    )

    packet = IPv4Packet(src="10.0.0.1", dst="10.0.0.2", payload=bytes(64))
    sends = _calls(2000, scale)

    def wired() -> Tuple[EventScheduler, Link]:
        scheduler = EventScheduler()
        link = Link(scheduler, Interface("a", "to-b"), Interface("b", "to-a"),
                    bandwidth_bps=1e12, delay_s=1e-6)
        link.forward.on_deliver = _noop2
        return scheduler, link

    def send_all(state: Tuple[EventScheduler, Link]) -> None:
        scheduler, link = state
        for _ in range(sends):
            link.forward.send(packet, packet.length)
            scheduler.run()

    out["net.link_send_us"] = _per_batch(
        wired, send_all, unit=1e6, divide_by=sends
    )
    payload = bytes(64)
    out["net.packet_build_us"] = _per_call(
        lambda: IPv4Packet(src="10.1.0.5", dst="10.2.0.9", ttl=64,
                           payload=payload, flow_id=1, seq=2),
        _calls(5000, scale),
    )
    wire = packet.serialize()

    def l2_codecs() -> None:
        frame = EthernetFrame("02:00:00:00:00:01", "02:00:00:00:00:02",
                              ETHERTYPE_MPLS, wire)
        EthernetFrame.deserialize(frame.serialize())
        reassemble_aal5(segment_aal5(wire, vpi=1, vci=42))
        FrameRelayFrame.deserialize(
            FrameRelayFrame(dlci=100, payload=wire).serialize()
        )

    out["net.l2_codec_us"] = _per_call(l2_codecs, _calls(1500, scale))
    return out


def _noop() -> None:
    pass


def _noop2(_interface: Any, _packet: Any) -> None:
    pass


# -- control --------------------------------------------------------------------
FECS = 48


def _ring(n: int) -> Topology:
    return ring(n, bandwidth_bps=10e6, delay_s=1e-3)


def _ring_network(
    n: int, node_factory: Any = LSRNode
) -> Tuple[Topology, MPLSNetwork]:
    """A ring of n where every node is an LER."""
    topology = _ring(n)
    roles = {name: RouterRole.LER for name in topology.nodes}
    return topology, MPLSNetwork(
        topology, roles=roles, node_factory=node_factory
    )


def _fec_specs(n: int) -> List[Tuple[str, str]]:
    """48 (prefix, egress) pairs spread evenly round a ring of n."""
    return [
        (f"10.{i % n + 1}.{i // n}.0/24", f"n{i % n}") for i in range(FECS)
    ]


def control(scale: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    n = 16
    topology = _ring(n)
    lsdb = LinkStateDatabase(topology)
    turn = iter(range(1 << 30))
    out["control.spf_us"] = _per_call(
        lambda: lsdb.spf(f"n{next(turn) % n}"), _calls(300, scale)
    )
    out["control.cspf_us"] = _per_call(
        lambda: cspf_path(topology, "n0", f"n{1 + next(turn) % (n - 1)}",
                          bandwidth_bps=1e6),
        _calls(300, scale),
    )

    specs = _fec_specs(n)

    def converged_ldp() -> LDPProcess:
        topo, network = _ring_network(n)
        return LDPProcess(topo, network.nodes)

    def establish_all(ldp: LDPProcess) -> None:
        for prefix, egress in specs:
            ldp.establish_fec(PrefixFEC(prefix), egress=egress)

    out["control.ldp_establish_ms"] = _per_batch(
        converged_ldp, establish_all, divide_by=FECS
    )

    def established() -> LDPProcess:
        ldp = converged_ldp()
        establish_all(ldp)
        return ldp

    out["control.ldp_reconverge_ms"] = _per_batch(
        established, lambda ldp: ldp.reconverge()
    )

    messages: List[int] = []

    def message_ldp() -> Tuple[Any, MessageLDPProcess]:
        topo, network = _ring_network(n)
        return network, MessageLDPProcess(
            topo, network.nodes, network.scheduler
        )

    def converge(state: Tuple[Any, MessageLDPProcess]) -> None:
        network, mldp = state
        mldp.start()
        for prefix, egress in specs:
            mldp.announce_fec(prefix, PrefixFEC(prefix), egress=egress)
        until = 0.0
        while not all(mldp.converged(prefix) for prefix, _ in specs):
            until += 0.05
            network.run(until=until)
            if until > 5.0:
                raise RuntimeError("message LDP did not converge in 5 s")
        messages.append(mldp.total_messages)

    out["control.mldp_converge_ms"] = _per_batch(message_ldp, converge)
    if len(set(messages)) != 1:
        raise RuntimeError(f"message counts differ between runs: {messages}")
    out["control.mldp_messages"] = float(messages[0])

    def signaler() -> RSVPTESignaler:
        topo, network = _ring_network(n)
        return RSVPTESignaler(topo, network.nodes)

    def setup_lsps(rsvp: RSVPTESignaler) -> None:
        for i in range(n):
            rsvp.setup(f"lsp-{i}", f"n{i}", f"n{(i + n // 2) % n}",
                       bandwidth_bps=1e5)

    out["control.rsvp_setup_ms"] = _per_batch(
        signaler, setup_lsps, divide_by=n
    )

    ring6 = 6
    pce_specs = _fec_specs(ring6)[:12]

    def distributed() -> Tuple[Any, LDPProcess]:
        topo, network = _ring_network(ring6)
        ldp = LDPProcess(topo, network.nodes)
        for prefix, egress in pce_specs:
            network.attach_host(egress, prefix)
            ldp.establish_fec(PrefixFEC(prefix), egress=egress)
        return network, ldp

    def adopt(state: Tuple[Any, LDPProcess]) -> None:
        network, ldp = state
        pce = PCEController(
            network,
            ControllerConfig.from_dict({}, horizon=1.0),
            ldp=ldp,
            fec_specs=[
                (PrefixFEC(prefix), f"n{(int(egress[1:]) + 3) % ring6}",
                 egress)
                for prefix, egress in pce_specs
            ],
            seed=7,
        )
        pce.start()
        for _ in range(100_000):
            if len(pce.adoptions) >= ring6:
                return
            if not network.scheduler.step():
                break
        raise RuntimeError("the controller did not adopt every node")

    out["control.pce_adopt_ms"] = _per_batch(distributed, adopt)

    queue = PriorityControlQueue(64, 48, 16)

    def offer_pop() -> None:
        queue.offer("m", MessageClass.SETUP)
        queue.offer("k", MessageClass.LIVENESS)
        queue.pop()
        queue.pop()

    out["control.queue_offer_pop_us"] = (
        _per_call(offer_pop, _calls(20000, scale)) / 2
    )
    return out


# -- core / qos -------------------------------------------------------------------
def core_qos(scale: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    inner = IPv4Packet(src="10.1.0.5", dst="10.2.0.9", payload=bytes(64))
    frame = EthernetFrame(
        "02:00:00:00:00:01", "02:00:00:00:00:02", ETHERTYPE_MPLS,
        MPLSPacket(
            LabelStack([LabelEntry(label=1008, ttl=64, s=1)]), inner
        ).serialize(),
    )
    for backend, calls in (("model", 2000), ("rtl", 6)):
        router = EmbeddedMPLS(role=RouterRole.LSR, backend=backend)
        for i in range(16):
            router.install_swap(1000 + i, 500 + i)

        def process(router: EmbeddedMPLS = router) -> None:
            if router.process_frame(frame).discarded:
                raise RuntimeError("probe frame was discarded")

        out[f"core.process_frame_{backend}_us"] = _per_call(
            process, _calls(calls, scale)
        )

    topology, network = _ring_network(6, node_factory=HardwareLSRNode)
    network.attach_host("n3", "10.4.0.0/24")
    LDPProcess(topology, network.nodes).establish_fec(
        PrefixFEC("10.4.0.0/24"), egress="n3"
    )
    ingress = network.nodes["n0"]
    packet = IPv4Packet(src="10.1.0.5", dst="10.4.0.9", payload=bytes(64))
    ingress.receive(packet)  # slow path once; then pure hardware
    out["core.hwnode_receive_us"] = _per_call(
        lambda: ingress.receive(packet), _calls(3000, scale)
    )

    classifier = Classifier()
    for i in range(16):
        classifier.add_rule(cos=i % 8, dst=f"10.{i + 1}.0.0/16")
    out["qos.classify_us"] = _per_call(
        lambda: classifier.classify(packet), _calls(10000, scale)
    )
    wfq = WFQScheduler()
    item = (packet, packet.length)
    turn = iter(range(1 << 30))

    def enqueue_dequeue() -> None:
        wfq.enqueue(item, next(turn) & 7)
        wfq.dequeue()

    out["qos.wfq_enq_deq_us"] = _per_call(
        enqueue_dequeue, _calls(10000, scale)
    )
    return out


# -- faults / security / obs ---------------------------------------------------------
def faults_security_obs(scale: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    obs_workload = WORKLOADS["chaos_obs"]
    raw = obs_workload.scenario(7, round(max(0.6, 1.0 * scale), 3))
    seed = 7

    def load() -> None:
        Scenario.from_dict(raw).materialize(seed)

    out["faults.scenario_load_ms"] = _per_call(
        load, _calls(40, scale), 1e3
    )
    scenario = Scenario.from_dict(raw)
    out["faults.build_run_ms"] = _per_call(
        lambda: chaos.build_run(scenario, seed), _calls(8, scale), 1e3
    )

    # the chaos_obs scenario with telemetry on and off: the ratio is
    # what observability costs, the counts must repeat exactly
    inputs = {"seed": seed, "scenario": raw}
    on: List[Any] = []
    off: List[float] = []
    summarize_ms: List[float] = []
    original = chaos.summarize

    def timed_summarize(*args: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            summarize_ms.append((perf_counter() - start) * 1e3)

    for _ in range(3):
        gc.collect()
        off.append(obs_workload.repetition(inputs, telemetry=False).run_s)
        gc.collect()
        chaos.summarize = timed_summarize
        try:
            on.append(obs_workload.repetition(inputs))
        finally:
            chaos.summarize = original
    out["faults.summarize_ms"] = statistics.median(summarize_ms)
    out["obs.overhead_ratio"] = statistics.median(
        o.run_s for o in on
    ) / statistics.median(off)
    counts = {(o.counts["events_emitted"], o.counts["span_count"])
              for o in on}
    if len(counts) != 1:
        raise RuntimeError(f"obs counts differ between runs: {counts}")
    out["obs.events_emitted"], out["obs.span_count"] = map(
        float, counts.pop()
    )

    # post-run registry for the exporter: one more telemetry-on run
    with telemetry_session(enabled=True) as tel:
        chaos.run_scenario(scenario, seed)
        out["obs.prom_export_ms"] = _per_call(
            lambda: to_prometheus(tel.registry), _calls(20, scale), 1e3
        )

    topology, network = _ring_network(6, node_factory=HardwareLSRNode)
    ldp = LDPProcess(topology, network.nodes)
    for i in range(12):
        network.attach_host(f"n{i % 6}", f"10.{i % 6 + 1}.{i // 6}.0/24")
        ldp.establish_fec(
            PrefixFEC(f"10.{i % 6 + 1}.{i // 6}.0/24"), egress=f"n{i % 6}"
        )
    for node in network.nodes.values():
        # the hardware mirror is programmed lazily, on the first packet;
        # an audit of a never-synced node returns at once
        node.receive(IPv4Packet(src="10.9.0.1", dst="10.1.0.9"))
    auditor = ConsistencyAuditor(network, period=0.1, start=0.0)
    out["faults.audit_tick_ms"] = _per_call(
        network.scheduler.step, _calls(20, scale), 1e3
    )
    if auditor.summary()[1] == 0 or not auditor.clean:
        raise RuntimeError("the audit probe checked nothing, or found drift")

    # the trust-boundary reject path, monitor armed
    guarded = chaos.build_run(scenario, seed)
    forged = MPLSPacket(
        LabelStack([LabelEntry(label=999, ttl=64, s=1)]),
        IPv4Packet(src="203.0.113.66", dst="10.3.0.9", payload=bytes(64)),
    )
    edge = guarded.scenario.edges[0]

    def external() -> None:
        guarded.network.inject_external(edge, forged)
        guarded.network.scheduler.step()

    before = guarded.network.drop_count()
    out["security.external_guard_us"] = _per_call(
        external, _calls(2000, scale)
    )
    if guarded.network.drop_count() == before:
        raise RuntimeError("the armed guard rejected nothing")

    out["obs.disabled_guard_ns"] = _per_call(
        lambda: get_telemetry().enabled, _calls(100_000, scale), 1e9
    )
    log = EventLog()
    log.add_sink(ListSink())
    event = PacketForwarded(node="n0", uid=1, flow_id=2, action="forward")
    out["obs.event_emit_us"] = _per_call(
        lambda: log.emit(event), _calls(20000, scale)
    )
    family = MetricsRegistry().counter(
        "probe_total", "probe counter", ("node", "op")
    )
    out["obs.counter_inc_us"] = _per_call(
        lambda: family.labels("n0", "swap").inc(), _calls(20000, scale)
    )
    sink = JSONLSink(io.StringIO())
    out["obs.jsonl_write_us"] = _per_call(
        lambda: sink.write(event), _calls(5000, scale)
    )
    return out


# -- cli ----------------------------------------------------------------------------
def cli(scale: float, root: str, scratch: str) -> Dict[str, float]:
    """What a CLI user waits for: a subprocess per command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    examples = os.path.join(root, "examples")

    def timed(*argv: str) -> float:
        start = perf_counter()
        subprocess.run(
            [sys.executable, *argv], check=True, env=env, cwd=root,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120,
        )
        return perf_counter() - start

    out: Dict[str, float] = {}
    repeats = 3 if scale >= 1.0 else 1
    out["cli.import_s"] = statistics.median(
        timed("-c", "import repro.cli") for _ in range(repeats)
    )
    smoke = os.path.join(examples, "chaos_smoke.json")
    out["cli.chaos_cmd_s"] = statistics.median(
        timed("-m", "repro", "chaos", smoke, "--seed", "7")
        for _ in range(repeats)
    )
    scenarios = sorted(
        name for name in os.listdir(examples)
        if name.startswith("chaos_") and name.endswith(".json")
    )
    scenarios = scenarios[: max(1, int(round(len(scenarios) * scale)))]
    os.makedirs(scratch, exist_ok=True)
    total = 0.0
    for name in scenarios:
        reports = []
        for mode in ("on", "off"):
            path = os.path.join(scratch, f"cli_{mode}.json")
            total += timed(
                "-m", "repro", "chaos", os.path.join(examples, name),
                "--seed", "7", "--batching", mode, "-o", path,
            )
            with open(path, "rb") as handle:
                reports.append(handle.read())
            os.remove(path)
        if reports[0] != reports[1]:
            raise RuntimeError(
                f"{name}: batched and scalar reports differ"
            )
    out["cli.examples_suite_s"] = total
    return out


def run_all(scale: float, root: str, scratch: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for probe in (hdl_hw, mpls, net, control, core_qos,
                  faults_security_obs):
        gc.collect()
        out.update(probe(scale))
    out.update(cli(scale, root, scratch))
    return out
