"""Chaos soak: a long randomized fault schedule on a multi-LSR ring.

For several distinct seeds, an 8-router ring with two opposing flows
absorbs a randomized schedule of link failures and node crashes (all
healing before the horizon) while converged LDP reconverges after each
detected change.  The soak asserts the safety and liveness properties
the fault subsystem promises:

* **no packet crosses a down link** -- every link arrival happens while
  the injector's timeline says the adjacency was up (the epoch
  invalidation in :mod:`repro.net.link` is what makes this hold for
  packets in flight when the link dies);
* **stale forwarding is bounded by the detection delay** -- a node may
  keep forwarding towards a dead neighbour only until the control
  plane notices (those packets are dropped at the missing adjacency,
  never delivered);
* **the network reconverges** -- after the last heal settles, both
  flows deliver again and all failed state is restored.
"""

import pytest

from repro.faults import Scenario
from repro.faults.chaos import build_run
from repro.obs import ListSink, telemetry_session

DETECTION = 1e-3
DURATION = 3.0

SOAK = {
    "name": "soak",
    "topology": {"kind": "ring", "n": 8,
                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
    "edges": ["n0", "n4"],
    "control": "ldp",
    "duration": DURATION,
    "traffic": [
        {"ingress": "n0", "egress": "n4", "prefix": "10.4.0.0/16",
         "src": "10.0.0.5", "dst": "10.4.0.9",
         "rate_bps": 1.5e6, "packet_size": 500, "stop": 2.8},
        {"ingress": "n4", "egress": "n0", "prefix": "10.0.0.0/16",
         "src": "10.4.0.5", "dst": "10.0.0.9",
         "rate_bps": 1.5e6, "packet_size": 500, "stop": 2.8},
    ],
    "random_faults": {
        "count": 8,
        "kinds": ["link-down", "node-crash"],
        "window": [0.2, 2.2],
        "mean_outage": 0.08,
    },
}

SEEDS = [7, 11, 23]


def _soak(seed):
    """Run the soak once, recording every link arrival and every
    forwarding decision."""
    arrivals = []

    with telemetry_session() as tel:
        sink = tel.events.add_sink(ListSink())
        run = build_run(Scenario.from_dict(SOAK), seed=seed)
        for (a, b), link in run.network.links.items():
            for channel, src, dst in (
                (link.forward, a, b),
                (link.reverse, b, a),
            ):
                original = channel.on_deliver

                def wrapped(
                    iface, packet, _orig=original, _a=src, _b=dst,
                    _net=run.network,
                ):
                    arrivals.append((_net.scheduler.now, _a, _b))
                    _orig(iface, packet)

                channel.on_deliver = wrapped
        run.network.run(until=DURATION)
        forwarded = [
            e for e in sink.events if e.kind == "packet-forwarded"
        ]
    return run, arrivals, forwarded


@pytest.mark.parametrize("seed", SEEDS)
class TestChaosSoak:
    def test_soak(self, seed):
        run, arrivals, forwarded = _soak(seed)
        injector = run.injector
        network = run.network

        # the schedule actually exercised the network
        executed = [r for r in injector.records if not r.skipped]
        assert len(executed) >= 4, "soak schedule degenerated"

        # -- safety: nothing ever crossed a down link -------------------
        assert arrivals, "no traffic flowed at all"
        for when, a, b in arrivals:
            assert injector.link_was_up(a, b, when), (
                f"seed {seed}: packet arrived over {a}-{b} at {when:.6f} "
                "while the link was down"
            )

        # -- stale forwarding is bounded by the detection delay ----------
        for event in forwarded:
            if event.next_hop is None:
                continue
            when = event.time
            if injector.link_was_up(event.node, event.next_hop, when):
                continue
            down_for = _downtime_at(injector, event.node, event.next_hop,
                                    when)
            assert down_for <= DETECTION * 2, (
                f"seed {seed}: {event.node} still forwarded towards "
                f"{event.next_hop} {down_for * 1e3:.2f} ms after the "
                "link died (reconvergence should have repaired it)"
            )

        # -- liveness: everything healed and traffic resumed -------------
        heals = [r.healed_at for r in executed if r.healed_at is not None]
        assert heals, "no fault healed before the horizon"
        settle = max(heals) + DETECTION + 0.05
        assert settle < DURATION, "schedule leaves no settle window"
        late_flows = {
            d.flow_id for d in network.deliveries.views() if d.time > settle
        }
        want_flows = {s.flow_id for s in run.sources}
        assert late_flows == want_flows, (
            f"seed {seed}: flows {want_flows - late_flows} never "
            "recovered after the last heal"
        )

        # all fault state fully restored
        assert not network._failed_links
        assert not network._down_nodes
        for record in executed:
            assert record.recovered_at is not None, (
                f"{record.spec.kind.value} on {record.spec.label} "
                "never finished recovering"
            )

        # sanity: the domain stayed mostly usable
        sent = sum(s.sent for s in run.sources)
        assert network.delivered_count() > sent * 0.5


def _downtime_at(injector, a, b, t):
    """How long the adjacency (or an endpoint) had been down at ``t``."""
    key = (a, b) if a <= b else (b, a)
    down_since = None
    for ts, up in injector._link_log.get(key, []):
        if ts > t:
            break
        down_since = None if up else ts
    candidates = [down_since] if down_since is not None else []
    for name in (a, b):
        node_down = None
        for ts, up in injector._node_log.get(name, []):
            if ts > t:
                break
            node_down = None if up else ts
        if node_down is not None:
            candidates.append(node_down)
    if not candidates:
        return 0.0
    return t - min(candidates)


def test_distinct_seeds_produce_distinct_schedules():
    scenario = Scenario.from_dict(SOAK)
    schedules = {
        tuple((s.kind, s.at, s.target) for s in scenario.materialize(seed))
        for seed in SEEDS
    }
    assert len(schedules) == len(SEEDS)
