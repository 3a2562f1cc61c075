"""The five workloads: seeded inputs, one repetition, output checks.

Each workload generates its inputs from ``(seed, scale)`` alone, and one
:meth:`repetition` goes from a fresh state to checked outputs with the
clock split into *set-up* (build the design or network, converge or
start the control plane, schedule traffic and faults) and the *timed
region* (everything a user waits for after that).  The program under
test only ever sees the generated scenario dictionaries / operation
lists, never the seed's random stream.

The seed picks addresses, labels, keys, orderings, flow start offsets
and the rotation of a fault pattern round a symmetric ring; the *amount*
of work (cycles, packets, simulated seconds, faults per kind) is fixed
by the workload's shape, so host time is comparable across seeds.  Every
simulated statistic must repeat exactly for a given seed -- only host
time may move.

Inside the timed region a :class:`~benchmarks.perf.pacing.Pacer` gets a
turn every few milliseconds; its time is kept apart from the workload's
and tells how fast the machine was while the workload ran.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.control.ldp import LDPProcess
from repro.core.timing import HardwareCycleModel
from repro.faults import chaos
from repro.faults.scenario import Scenario
from repro.hw import model as hw_model
from repro.hw.driver import ModifierDriver
from repro.hw.model import FunctionalModifier
from repro.mpls.fec import PrefixFEC
from repro.mpls.label import LabelEntry, LabelOp
from repro.mpls.router import RouterRole
from repro.net.aggregate import FlowAggregate
from repro.net.network import MPLSNetwork
from repro.net.packet import IPv4Packet
from repro.net.topology import paper_figure1
from repro.obs import telemetry_session

from benchmarks.perf.pacing import Pacer


@dataclass
class Outcome:
    """What one repetition measured and produced.

    The three times are raw host seconds with the pacer's own time taken
    out; the ``speed`` values are the machine-speed factors the
    interleaved reference kernel saw during each stretch (see
    :mod:`benchmarks.perf.pacing`).
    """

    setup_s: float
    setup_speed: float
    run_s: float
    run_cpu_s: float
    speed: float
    speed_cpu: float
    #: exact, seed-determined outputs; pinned in ``expected.json``
    facts: Dict[str, Any]
    #: invariant checks as (name, passed)
    checks: List[Tuple[str, bool]]
    #: exact per-layer counts read at the layer boundary
    counts: Dict[str, float] = field(default_factory=dict)


class Region:
    """One timed stretch of host time with its own pacer.

    A slice of the reference kernel brackets the stretch on both sides
    (outside the clock) and the caller ticks :attr:`pacer` inside it, so
    even a 2 ms set-up knows how fast the machine was around it.
    """

    def __init__(self) -> None:
        self.pacer = Pacer()
        self.wall = self.cpu = 0.0

    def begin(self) -> "Region":
        self.pacer.tick(force=True)
        self._kernel = (self.pacer.wall, self.pacer.cpu)
        self._start = (perf_counter(), process_time())
        return self

    def finish(self) -> None:
        wall, cpu = perf_counter(), process_time()
        self.wall = wall - self._start[0] - (self.pacer.wall - self._kernel[0])
        self.cpu = cpu - self._start[1] - (self.pacer.cpu - self._kernel[1])
        self.pacer.tick(force=True)


def _outcome(
    setup: Region, run: Region, facts, checks, counts=None
) -> Outcome:
    return Outcome(
        setup_s=setup.wall,
        setup_speed=setup.pacer.speed,
        run_s=run.wall,
        run_cpu_s=run.cpu,
        speed=run.pacer.speed,
        speed_cpu=run.pacer.speed_cpu,
        facts=facts,
        checks=checks,
        counts=counts or {},
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    #: what ``work_per_s`` counts; fixed by the inputs, never an
    #: internal count, so coalescing events cannot look like a slowdown
    work_unit: str

    #: a millisecond set-up is timed this many more times per
    #: repetition (results discarded) so that ``setup_s`` is a median
    extra_setups = 4

    def generate(self, seed: int, scale: float) -> Any:
        raise NotImplementedError

    def work(self, inputs: Any) -> float:
        raise NotImplementedError

    def set_up(self, inputs: Any) -> Any:
        """From a fresh state to ready to run; returns the ready state."""
        raise NotImplementedError

    def repetition(self, inputs: Any) -> Outcome:
        raise NotImplementedError


# -- rtl_worstcase -----------------------------------------------------------
#: pairs written per information-base level in the Table 6 mix, and
#: one update per this many pairs, at evenly spread hit positions
MIX_PAIRS = 64
MIX_STEP = 4


class RtlWorstCase(Workload):
    """The paper's section-4 composite plus a Table 6 operation mix on the
    RTL: hdl and hw are all of the time, net/mpls/control/obs none.
    """

    name = "rtl_worstcase"
    work_unit = "simulated cycles"

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        depth = max(8, int(round(1024 * scale)))
        table6 = HardwareCycleModel()
        ops: List[tuple] = []
        #: Table 6 in closed form, op by op
        expected: List[int] = []

        def emit(cycles: int, *op: Any) -> None:
            ops.append(op)
            expected.append(cycles)

        def label() -> int:
            return rng.randrange(16, 1 << 20)

        # the composite's values are the paper's; the search key is
        # written last so the swap scans the whole level
        emit(table6.reset, "reset")
        for i, value in enumerate((100, 200, 300)):
            emit(table6.user_push, "push", value, 9, 1 if i == 0 else 0)
        for i in range(depth - 1):
            emit(table6.write_pair, "write", 3, 1000 + i, 500,
                 int(LabelOp.SWAP))
        emit(table6.write_pair, "write", 3, 300, 999, int(LabelOp.SWAP))
        emit(table6.update_swap_worst(depth), "update", 0)
        composite_ops = len(ops)

        emit(table6.reset, "reset")
        pairs = max(MIX_STEP, int(round(MIX_PAIRS * scale)))
        keys: Dict[int, List[int]] = {}
        for level in (1, 2, 3):
            keys[level] = rng.sample(range(16, 1 << 20), pairs)
            for position, key in enumerate(keys[level]):
                # level 1 alternates ingress pairs (keyed by packet id,
                # must push) with depth-1 label pairs (swap)
                ingress = level == 1 and position % 2 == 0
                emit(table6.write_pair, "write", level, key, label(),
                     int(LabelOp.PUSH if ingress else LabelOp.SWAP))
        # the hit positions are a fixed, evenly spread set in a seeded
        # order: the cycle total is the same for every seed
        visits = [
            (level, MIX_STEP * i + (level + i) % MIX_STEP)
            for level in (1, 2, 3)
            for i in range(pairs // MIX_STEP)
        ]
        rng.shuffle(visits)
        for level, position in visits:
            key = keys[level][position]
            hit = table6.search_hit(position)
            if level == 1 and position % 2 == 0:
                # empty stack: the ingress push keyed by packet id
                emit(hit + hw_model.INGRESS_PUSH_TAIL_CYCLES, "update", key)
            else:
                for below in range(level - 1):
                    emit(table6.user_push, "push", label(), 64,
                         1 if below == 0 else 0)
                emit(table6.user_push, "push", key, 64,
                     1 if level == 1 else 0)
                emit(hit + hw_model.SWAP_TAIL_CYCLES, "update", 0)
            for _ in range(level):
                emit(table6.user_pop, "pop")
        return {
            "depth": depth,
            "ops": ops,
            "composite_ops": composite_ops,
            "table6": expected,
            "composite_total": 6 * depth + 23,  # 6167 at depth 1024
        }

    def work(self, inputs: Dict[str, Any]) -> float:
        return float(sum(inputs["table6"]))

    @staticmethod
    def _apply(
        modifier: Any, ops: List[tuple], pacer: Optional[Pacer] = None
    ) -> List[int]:
        cycles: List[int] = []
        for op in ops:
            if pacer is not None:
                pacer.tick()
            kind = op[0]
            if kind == "write":
                cycles.append(
                    modifier.write_pair(op[1], op[2], op[3], LabelOp(op[4]))
                )
            elif kind == "push":
                cycles.append(
                    modifier.user_push(
                        LabelEntry(label=op[1], ttl=op[2], s=op[3])
                    )
                )
            elif kind == "pop":
                cycles.append(modifier.user_pop()[1])
            elif kind == "update":
                cycles.append(modifier.update(packet_id=op[1]).cycles)
            else:
                cycles.append(modifier.reset())
        return cycles

    def set_up(self, inputs: Dict[str, Any]) -> Tuple[Any, Any, List[int]]:
        driver = ModifierDriver(ib_depth=inputs["depth"])
        # the oracle is part of getting ready: the functional model on
        # the same sequence
        model = FunctionalModifier(ib_depth=inputs["depth"])
        return driver, model, self._apply(model, inputs["ops"])

    def repetition(self, inputs: Dict[str, Any]) -> Outcome:
        ops = inputs["ops"]
        setup = Region().begin()
        driver, model, model_cycles = self.set_up(inputs)
        setup.finish()
        run = Region().begin()
        rtl_cycles = self._apply(driver, ops, run.pacer)
        run.finish()
        composite = sum(rtl_cycles[: inputs["composite_ops"]])
        checks = [
            ("composite equals the paper's closed form",
             composite == inputs["composite_total"]),
            ("rtl cycles equal the functional model op by op",
             rtl_cycles == model_cycles),
            ("rtl cycles equal Table 6 op by op",
             rtl_cycles == inputs["table6"]),
            ("final stacks equal",
             list(driver.stack()) == list(model.stack())),
            ("simulator total equals the sum of transactions",
             driver.total_cycles == sum(rtl_cycles)),
        ]
        facts = {
            "composite_cycles": composite,
            "total_cycles": sum(rtl_cycles),
            "cycles_sha256": _sha256(",".join(map(str, rtl_cycles))),
        }
        return _outcome(setup, run, facts, checks)


# -- scenario-driven workloads -------------------------------------------------
#: a network run is cut into this many equal pieces of simulated time so
#: the pacer gets a turn between them; the events and their order are
#: those of the single call
RUN_SLICES = 400


def _paced_run(
    network: MPLSNetwork, until: float, pacer: Pacer, run: Any
) -> int:
    """``run(network, until=until)`` with pacer turns in between."""
    start = network.scheduler.now
    processed = 0
    for k in range(1, RUN_SLICES):
        pacer.tick()
        processed += run(
            network, until=start + (until - start) * k / RUN_SLICES
        )
    pacer.tick()
    return processed + run(network, until=until)


def _run_scenario_split(
    raw: Dict[str, Any], seed: int, **run_kwargs: Any
) -> Tuple[Region, Region, Any, Any, str]:
    """``run_scenario`` with the clock split where ``build_run`` returns
    and the pacer interleaved with ``MPLSNetwork.run``.

    Returns (setup, run, chaos_run, report, report_json).  Both are done
    from outside, by wrapping :func:`chaos.build_run` and
    :meth:`MPLSNetwork.run` for the one call, so the program's own
    ``run_scenario`` stays the thing measured.
    """
    setup, run = Region(), Region()
    built: List[Any] = []
    build_run, network_run = chaos.build_run, MPLSNetwork.run

    def split_build_run(*args: Any, **kwargs: Any) -> Any:
        built.append(build_run(*args, **kwargs))
        setup.finish()
        run.begin()
        return built[0]

    def paced_run(network: MPLSNetwork, until: float) -> int:
        return _paced_run(network, until, run.pacer, network_run)

    chaos.build_run = split_build_run
    MPLSNetwork.run = paced_run
    try:
        setup.begin()
        scenario = Scenario.from_dict(raw)
        report = chaos.run_scenario(scenario, seed, **run_kwargs)
        text = report.to_json()
        run.finish()
    finally:
        chaos.build_run = build_run
        MPLSNetwork.run = network_run
    if not built or run.pacer.slices < 3:
        raise RuntimeError(
            "run_scenario did not go through chaos.build_run and "
            "MPLSNetwork.run; the run cannot be split and paced from outside"
        )
    return setup, run, built[0], report, text


def _network_counts(network: MPLSNetwork, packets: int) -> Dict[str, float]:
    hits = misses = invalidations = 0
    for node in network.nodes.values():
        cache = getattr(node, "flow_cache", None)
        if cache is not None:
            stats = cache.stats()
            hits += stats["hits"]
            misses += stats["misses"]
            invalidations += stats["invalidations"]
    return {
        "sched_events": network.scheduler.processed,
        "packets": packets,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_invalidations": invalidations,
    }


def _ring_topology(n: int, bandwidth_bps: float) -> Dict[str, Any]:
    return {"kind": "ring", "n": n, "bandwidth_bps": bandwidth_bps,
            "delay_s": 1e-3}


class ScenarioWorkload(Workload):
    """A workload whose input is one generated chaos scenario."""

    def set_up(self, inputs: Dict[str, Any]) -> Any:
        return chaos.build_run(
            Scenario.from_dict(inputs["scenario"]), inputs["seed"]
        )


class FwdScalar(ScenarioWorkload):
    """Bare per-packet forwarding on the scalar path at 64 B and 1500 B, no
    faults, telemetry off: the floor under every scenario and the bypass
    of the flow cache, the control plane and obs.
    """

    name = "fwd_scalar"
    work_unit = "packets offered"
    #: packets per second per flow; eight flows
    PPS = 3600

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        n = 8
        duration = round(max(0.1, 0.5 * scale), 3)
        traffic = []
        for i in range(n):
            j = (i + n // 2) % n
            size = 64 if i % 2 == 0 else 1500
            traffic.append({
                "ingress": f"n{i}", "egress": f"n{j}",
                "prefix": f"10.{j + 1}.{i}.0/24",
                "src": f"10.{i + 1}.{j}.{rng.randrange(2, 250)}",
                "dst": f"10.{j + 1}.{i}.{rng.randrange(2, 250)}",
                # CBRSource spaces packets by (size + 20) * 8 / rate
                "rate_bps": self.PPS * (size + 20) * 8,
                "packet_size": size,
                # sources stop early so the network drains
                "stop": round(duration - 0.05, 3),
            })
        return {
            "seed": seed,
            "offered": sum(_cbr_packets(flow, duration) for flow in traffic),
            "scenario": {
                "name": self.name,
                "topology": _ring_topology(n, 1e9),
                "control": "ldp",
                "duration": duration,
                "traffic": traffic,
            },
        }

    def work(self, inputs: Dict[str, Any]) -> float:
        return float(inputs["offered"])

    def repetition(self, inputs: Dict[str, Any]) -> Outcome:
        setup, run, built, report, text = _run_scenario_split(
            inputs["scenario"], inputs["seed"]
        )
        traffic = report["traffic"]
        checks = [
            ("offered packets match the input shape",
             traffic["sent"] == inputs["offered"]),
            ("every packet delivered",
             traffic["delivered"] == traffic["sent"]),
            ("no drops", traffic["dropped"] == 0),
        ]
        facts = {
            "report_sha256": _sha256(text),
            "delivered": traffic["delivered"],
        }
        return _outcome(
            setup, run, facts, checks,
            _network_counts(built.network, traffic["sent"]),
        )


def _cbr_packets(flow: Dict[str, Any], duration: float) -> int:
    """Packets a CBR flow offers: one at ``start`` and one per interval
    strictly before ``stop`` (the arithmetic ``CBRSource`` does)."""
    interval = (flow["packet_size"] + 20) * 8 / flow["rate_bps"]
    stop = flow.get("stop")
    if stop is None:
        stop = duration
    now, sent = flow.get("start", 0.0), 0
    while now < stop and now <= duration:
        sent += 1
        now += interval
    return sent


class FwdBatched(Workload):
    """The same mpls/net layers through flow caches and 16-packet trains:
    round 1 fills the ingress cache, rounds 2-3 and every transit node
    hit, so fill and replay costs show with opposite sign to fwd_scalar.
    """

    name = "fwd_batched"
    work_unit = "packets offered"
    FLOWS = 5000
    TRAIN = 16
    ROUNDS = 3
    #: the 0.2 s set-up is paced from inside; once per repetition is enough
    extra_setups = 0
    #: train start spacing; keeps every queue depth bounded
    SPACING = 2e-6

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        flows = max(50, int(round(self.FLOWS * scale)))
        return {
            "flows": flows,
            # distinct destinations inside the one announced /16
            "hosts": rng.sample(range(1, 65535), flows),
            "payload": bytes(rng.choice((64, 200, 500))),
            "src": f"10.1.{rng.randrange(256)}.{rng.randrange(2, 250)}",
        }

    def work(self, inputs: Dict[str, Any]) -> float:
        return float(inputs["flows"] * self.TRAIN * self.ROUNDS)

    def repetition(self, inputs: Dict[str, Any]) -> Outcome:
        flows = inputs["flows"]
        setup = Region().begin()
        topology = paper_figure1(bandwidth_bps=1e11, delay_s=1e-3)
        network = MPLSNetwork(
            topology,
            roles={"ler-a": RouterRole.LER, "ler-b": RouterRole.LER},
        )
        network.attach_host("ler-b", "10.2.0.0/16")
        LDPProcess(topology, network.nodes).establish_fec(
            PrefixFEC("10.2.0.0/16"), egress="ler-b"
        )
        network.enable_batching()
        sink = network.aggregate_sink("ler-a")
        slot = 0
        for round_ in range(self.ROUNDS):
            for flow_id, host in enumerate(inputs["hosts"]):
                at = slot * self.SPACING
                train = FlowAggregate(
                    template=IPv4Packet(
                        src=inputs["src"],
                        dst=f"10.2.{host >> 8}.{host & 0xFF}",
                        ttl=64,
                        payload=inputs["payload"],
                        flow_id=flow_id,
                        seq=round_ * self.TRAIN,
                        created_at=at,
                    ),
                    count=self.TRAIN,
                )
                network.scheduler.at(at, lambda a=train: sink(a))
                slot += 1
                setup.pacer.tick()
        setup.finish()
        run = Region().begin()
        _paced_run(
            network, slot * self.SPACING + 0.01, run.pacer, MPLSNetwork.run
        )
        network.run(until=slot * self.SPACING + 1.0)  # drain
        delivered = network.delivered_count()
        run.finish()
        offered = int(self.work(inputs))
        stats = {
            name: node.flow_cache.stats()
            for name, node in sorted(network.nodes.items())
        }
        misses = {name: s["misses"] for name, s in stats.items() if s["misses"]}
        transit = [m for name, m in misses.items() if name != "ler-a"]
        checks = [
            ("every packet delivered", delivered == offered),
            ("no drops", network.drop_count() == 0),
            ("one ingress miss per flow", misses.get("ler-a") == flows),
            ("one miss at each of the three downstream nodes",
             transit == [1, 1, 1]),
            ("no cache flushed",
             all(s["invalidations"] == 0 for s in stats.values())),
        ]
        facts = {
            "delivered": delivered,
            "cache_stats": [
                [name, s["hits"], s["misses"], s["evictions"]]
                for name, s in stats.items()
            ],
        }
        return _outcome(
            setup, run, facts, checks,
            _network_counts(network, offered),
        )


#: the control-plane fault kinds ``ctrl_churn`` cycles through
CHURN_KINDS = (
    "ldp-session-drop", "link-down", "link-flap", "node-crash",
    "node-restart",
)


class CtrlChurn(ScenarioWorkload):
    """Message-level LDP on a ring-16 under a fault every 120 ms and a
    signalling storm, data plane kept small: SPF, session service and
    table commits that flush every flow cache do the work.
    """

    name = "ctrl_churn"
    work_unit = "simulated ms"
    NODES = 16
    FAULT_EVERY = 0.12
    OUTAGE = 0.06

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        n = self.NODES
        duration = round(max(1.0, 16.0 * scale), 3)
        traffic = []
        # every node is an LER sending three FECs seven hops round the
        # ring (one short of its antipode, so the shortest path is
        # unique), which makes any rotation of the fault pattern cost
        # the same
        for i in range(n):
            j = (i + n // 2 - 1) % n
            for k in range(3):
                traffic.append({
                    "ingress": f"n{i}", "egress": f"n{j}",
                    "prefix": f"10.{j + 1}.{16 * k + i}.0/24",
                    "src": f"10.{i + 1}.{16 * k + j}.{rng.randrange(2, 250)}",
                    "dst": f"10.{j + 1}.{16 * k + i}.{rng.randrange(2, 250)}",
                    "rate_bps": 20e3, "packet_size": 200,
                    "start": round(0.15 + rng.uniform(0, 1e-3), 6),
                    "cos": 2 * k,
                })
        # the fault pattern is fixed: kinds cycle in order and each
        # target is five hops on from the last, never next to a fresh
        # fault.  (Rotating it by a seeded offset moved the event count
        # by 3 % through name-ordered tie-breaks; the seed moves only
        # addresses and sub-millisecond flow starts.)
        faults: List[Dict[str, Any]] = []
        at, a, turn = 0.25, 0, 0
        while at < duration - 0.4:
            kind = CHURN_KINDS[turn % len(CHURN_KINDS)]
            fault: Dict[str, Any] = {"at": round(at, 3), "kind": kind}
            if kind in ("ldp-session-drop", "link-down", "link-flap"):
                fault["target"] = [f"n{a}", f"n{(a + 1) % n}"]
            else:
                fault["target"] = [f"n{a}"]
            if kind == "link-flap":
                fault.update(flaps=2, period=self.OUTAGE / 2)
            elif kind == "node-restart":
                fault.update(heal_at=round(at + self.OUTAGE, 3),
                             hold_time=0.2)
            elif kind != "ldp-session-drop":
                fault["heal_at"] = round(at + self.OUTAGE, 3)
            faults.append(fault)
            at += self.FAULT_EVERY
            a = (a + 5) % n
            turn += 1
        storm = round(duration / 2 + self.FAULT_EVERY / 2, 3)
        faults.append({
            "at": storm, "kind": "signaling-storm",
            "target": [f"n{n // 2}"],
            "heal_at": round(storm + 0.3, 3),
            "mappings": 1000, "hellos": 50,
        })
        return {
            "seed": seed,
            "scenario": {
                "name": self.name,
                "topology": _ring_topology(n, 10e6),
                "control": "ldp-messages",
                "duration": duration,
                "traffic": traffic,
                "faults": faults,
                "overload": {"enabled": True},
                "audit": {"period": 0.1, "start": 0.05},
            },
        }

    def work(self, inputs: Dict[str, Any]) -> float:
        return inputs["scenario"]["duration"] * 1e3

    def repetition(self, inputs: Dict[str, Any]) -> Outcome:
        setup, run, built, report, text = _run_scenario_split(
            inputs["scenario"], inputs["seed"], batching=True
        )
        sessions = report["ldp_sessions"]
        checks = [
            ("no LDP session abandoned", sessions["abandoned"] == 0),
            ("every lost session recovered",
             sessions["recovered"] == sessions["lost"]),
            ("every fault ran", len(report["faults"]) >= len(
                inputs["scenario"]["faults"])),
        ]
        facts = {
            "report_sha256": _sha256(text),
            "sessions_lost": sessions["lost"],
        }
        return _outcome(
            setup, run, facts, checks,
            _network_counts(built.network, report["traffic"]["sent"]),
        )


class ChaosObs(ScenarioWorkload):
    """Hardware nodes with every subsystem armed, telemetry on and every
    packet traced: the only workload where obs, core.hwnode/hw.model,
    security and summarize do real work; fwd_scalar is its bypass.
    """

    name = "chaos_obs"
    work_unit = "simulated ms"
    NODES = 6
    EDGES = ("n0", "n2", "n4")

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        return {
            "seed": seed,
            "scenario": self.scenario(
                seed, round(max(0.6, 4.0 * scale), 3)
            ),
        }

    def scenario(self, seed: int, duration: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        n = self.NODES
        # each edge sends to both other edges, so the ring looks the
        # same from every edge and the seed can rotate one fixed fault
        # pattern round it without changing the work
        traffic = []
        for k, (a, b) in enumerate(
            (a, b) for a in self.EDGES for b in self.EDGES if a != b
        ):
            ai, bi = int(a[1:]), int(b[1:])
            traffic.append({
                "ingress": a, "egress": b,
                "prefix": f"10.{bi + 1}.{k}.0/24",
                "src": f"10.{ai + 1}.{k}.{rng.randrange(2, 250)}",
                "dst": f"10.{bi + 1}.{k}.{rng.randrange(2, 250)}",
                "rate_bps": 0.7e6, "packet_size": 500,
                "start": 0.1, "cos": k,
            })
        turn = 2 * rng.randrange(n // 2)  # edges stay edges
        unit = duration / 3.0

        def node(i: int) -> str:
            return f"n{(turn + i) % n}"

        def t(x: float) -> float:
            return round(x * unit, 3)

        faults = [
            {"at": t(0.25), "kind": "link-flap",
             "target": [node(1), node(2)], "flaps": 2, "period": 0.06},
            {"at": t(0.6), "kind": "label-spoof", "target": [node(0)],
             "heal_at": t(1.0), "packets": 40, "ttl": 64},
            {"at": t(1.1), "kind": "controller-crash",
             "target": ["controller"], "heal_at": t(1.4)},
            {"at": t(1.6), "kind": "ttl-flood", "target": [node(2)],
             "heal_at": t(2.0), "packets": 400},
            {"at": t(2.1), "kind": "node-restart", "target": [node(3)],
             "heal_at": t(2.25), "hold_time": 0.2},
            {"at": t(2.4), "kind": "ib-bitflip", "target": [node(5)],
             "level": 2, "heal_at": t(2.5)},
            {"at": t(2.6), "kind": "ib-bitflip", "target": [node(4)],
             "heal_at": t(2.7)},
        ]
        return {
            "name": self.name,
            "topology": _ring_topology(n, 10e6),
            "edges": list(self.EDGES),
            "hardware": True,
            # the attack fault kinds need message-level LDP
            "control": "ldp-messages",
            "duration": duration,
            "traffic": traffic,
            "faults": faults,
            "audit": {"period": 0.1, "start": 0.05},
            "overload": {"enabled": True},
            "security": {"enabled": True},
            "oam": {"period": 0.05, "timeout": 0.05, "slo_rtt_s": 0.01},
            "flows": {"active_timeout": 0.5, "idle_timeout": 0.2,
                      "capacity": 1024, "matrix_period": 0.1},
            "topo": {"snapshot_every": 32},
            "controller": {},
        }

    def work(self, inputs: Dict[str, Any]) -> float:
        return inputs["scenario"]["duration"] * 1e3

    def set_up(self, inputs: Dict[str, Any]) -> Any:
        # armed observers attach to the session's telemetry: keep a
        # discarded set-up out of the real run's session
        with telemetry_session(enabled=True):
            return super().set_up(inputs)

    def repetition(
        self, inputs: Dict[str, Any], telemetry: bool = True
    ) -> Outcome:
        # sample_rate is 1.0, not a fraction: with fractional head
        # sampling the report depends on the process-global flow-id
        # counter and the digest would differ between repetitions
        with telemetry_session(enabled=telemetry):
            setup, run, built, report, text = _run_scenario_split(
                inputs["scenario"], inputs["seed"],
                sample_rate=1.0 if telemetry else None,
            )
        expected_sections = (
            "audit", "overload", "security", "oam", "flows", "controller",
        ) + (("convergence", "spans", "events") if telemetry else ())
        checks = [
            ("every armed subsystem reported",
             all(key in report.data for key in expected_sections)),
            ("every fault ran", len(report["faults"]) >= len(
                inputs["scenario"]["faults"])),
        ]
        facts = {"report_sha256": _sha256(text)}
        counts = _network_counts(built.network, report["traffic"]["sent"])
        if telemetry:
            counts["events_emitted"] = sum(report["events"].values())
            counts["span_count"] = sum(
                report["spans"]["spans_by_kind"].values()
            )
            facts["events_emitted"] = counts["events_emitted"]
            facts["span_count"] = counts["span_count"]
        return _outcome(setup, run, facts, checks, counts)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (RtlWorstCase(), FwdScalar(), FwdBatched(), CtrlChurn(),
              ChaosObs())
}
