"""TTL-expiry equivalence: aggregate trains vs the scalar path.

A :class:`~repro.net.aggregate.FlowAggregate` whose template carries
TTL <= 1 must behave exactly like the same train of individual
packets: the whole train is discarded at ingress (FTN lookup first,
then the TTL check -- no decrement ever happens), the per-node
counters scale by the train's count, and the security monitor sees the
same count-aware exception punt.  This is the adversarial counterpart
of the general batching-equivalence suite: the TTL-flood attack's
defense (the exception-path rate limiter) must not care which shape
the flood arrives in.
"""

from repro.faults.chaos import build_run
from repro.faults.scenario import Scenario
from repro.net.aggregate import FlowAggregate
from repro.net.packet import IPv4Packet
from repro.obs import telemetry_session

RAW = {
    "name": "ttl-train",
    "topology": {"kind": "ring", "n": 4,
                 "bandwidth_bps": 10e6, "delay_s": 1e-3},
    "edges": ["n0", "n2"],
    "control": "ldp-messages",
    "duration": 1.0,
    "traffic": [
        {"ingress": "n0", "egress": "n2", "prefix": "10.2.0.0/16",
         "src": "10.0.0.5", "dst": "10.2.0.9",
         "rate_bps": 1e6, "packet_size": 500, "start": 0.1},
    ],
    "faults": [],
    "security": {"enabled": True},
}

#: (ttl, count) trains fired at n0 mid-run; both TTL values expire at
#: ingress, and 60 > the limiter's burst so both sides get limited
TRAINS = [(1, 60), (0, 25)]


def _packet(ttl, flow_id, seq, created_at):
    return IPv4Packet(
        src="203.0.113.9",
        dst="10.2.0.9",  # a remote prefix: FTN-matches, then expires
        ttl=ttl,
        flow_id=flow_id,
        seq=seq,
        created_at=created_at,
    )


def _run(batched):
    scenario = Scenario.from_dict(RAW)
    with telemetry_session():
        run = build_run(scenario, seed=3)
        if batched:
            run.network.enable_batching()
        network = run.network

        def fire():
            now = network.scheduler.now
            for j, (ttl, count) in enumerate(TRAINS):
                flow_id = 777000 + j
                if batched:
                    network.scheduler.after(
                        0.0, network.aggregate_sink("n0"),
                        FlowAggregate(
                            template=_packet(ttl, flow_id, 0, now),
                            count=count,
                            interval=0.0,
                        ),
                    )
                else:
                    for i in range(count):
                        network.inject_external(
                            "n0", _packet(ttl, flow_id, i, now)
                        )

        network.scheduler.at(0.5, fire)
        network.run(until=scenario.duration)
    node = network.nodes["n0"]
    return {
        "engine_discards": node.engine.counts.discards,
        "ttl_updates": node.engine.counts.ttl_updates,
        "stats_discarded": node.stats.discarded,
        "discard_reasons": dict(node.stats.discard_reasons),
        "drop_count": sum(drop.count for drop in network.drops),
        "exceptions": (
            run.security.exceptions_total,
            run.security.exceptions_forwarded,
            run.security.exceptions_limited,
        ),
    }


def test_aggregate_ttl_expiry_matches_scalar():
    scalar = _run(batched=False)
    batched = _run(batched=True)
    assert batched == scalar


def test_the_trains_actually_expired():
    """Guard the comparison above against a vacuous pass: the counters
    must show the full trains discarded, punted, and rate-limited."""
    expected = sum(count for _, count in TRAINS)
    result = _run(batched=True)
    reason = result["discard_reasons"]["IPv4 TTL expired at ingress"]
    assert reason == expected
    total, forwarded, limited = result["exceptions"]
    assert total == expected
    assert forwarded + limited == total
    assert limited > 0  # 60-packet burst > the 20-token bucket
    # the trains are n0's only discards: the background flow forwards
    assert result["stats_discarded"] == expected
    assert result["engine_discards"] == expected
