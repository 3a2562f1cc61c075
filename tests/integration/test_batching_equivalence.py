"""The flow-cached data plane, pinned to the bytes of an uncached run.

Every node forwards through its flow cache (``repro.mpls.fastpath``).
The cache is a pure memoization layer and has no license to change
behaviour, so each example scenario below -- chaos with FRR
switchovers, signaling storms, graceful restarts, hardware scrubbing,
flow alerting, span sampling -- must give the chaos report, the
flow-accounting export and the final ILM/FTN tables that a run with no
cache gave.  Those runs are recorded as sha256 digests in
``data/batching_digests.json`` (taken from the uncached data plane
before the cache became the only one); a divergence means the cache
served a stale or wrongly rebuilt decision.
"""

import hashlib
import io
import json
import os

import pytest

from repro.faults.chaos import build_run, finish, run_scenario, summarize
from repro.faults.scenario import Scenario
from repro.obs import telemetry_session
from repro.obs.flows import flows_to_jsonl

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)
DIGESTS = os.path.join(
    os.path.dirname(__file__), "data", "batching_digests.json"
)

# (scenario file, seed): fifteen seeded cases covering every
# invalidation source -- LDP withdraws, FRR switchover, restart
# flushes, scrub repairs -- plus the signaling-storm stress case
CASES = [
    ("chaos_smoke.json", 0),
    ("chaos_smoke.json", 13),
    ("chaos_frr.json", 1),
    ("chaos_frr.json", 23),
    ("chaos_graceful_restart.json", 2),
    ("chaos_hw_scrub.json", 3),
    ("chaos_ldp_sessions.json", 4),
    ("chaos_signaling_storm.json", 5),
    ("chaos_flow_alerts.json", 6),
    ("chaos_spans.json", 7),
    # adversarial suite: quarantine-driven invalidation (the cross-FEC
    # audit removes a poisoned ILM entry mid-run) plus forged traffic
    ("chaos_security.json", 7),
    ("chaos_security.json", 11),
    # topology observatory armed: the convergence ledger is derived
    # from the event stream
    ("chaos_topo.json", 17),
    # centralized PCE armed: crash + partition failover, delegation
    # fallback and the readopt resync transaction all ride the same
    # scheduler
    ("chaos_controller.json", 19),
    ("chaos_controller.json", 29),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(path, seed):
    """One scenario run; returns (report json, flow export, tables,
    run).

    Runs what ``run_scenario`` runs -- ``build_run``, the network, the
    shared ``finish`` step, ``summarize`` -- but keeps the live run
    object so the final forwarding tables and the flow-accounting
    export can be captured alongside the report.
    """
    scenario = Scenario.load(path)
    with telemetry_session():
        run = build_run(scenario, seed)
        with finish(run) as sink:
            processed = run.network.run(until=scenario.duration)
        report = summarize(run, processed, sink)
    flows_export = None
    if run.flows is not None:
        buffer = io.StringIO()
        flows_to_jsonl(run.flows.all_records(), buffer)
        flows_export = buffer.getvalue()
    tables = {
        name: {
            "ilm": sorted(
                (label, repr(nhlfe)) for label, nhlfe in node.ilm
            ),
            "ftn": sorted(
                (repr(fec), repr(nhlfe)) for fec, nhlfe in node.ftn
            ),
        }
        for name, node in run.network.nodes.items()
    }
    return report.to_json(), flows_export, tables, run


@pytest.mark.parametrize("name,seed", CASES)
def test_cached_run_matches_the_uncached_digests(name, seed):
    with open(DIGESTS) as handle:
        want = json.load(handle)[f"{name}@{seed}"]
    path = os.path.join(EXAMPLES_DIR, name)
    report, flows, tables, run = _run(path, seed)
    with telemetry_session():
        reference = run_scenario(Scenario.load(path), seed).to_json()
    assert report == reference
    assert {
        "report": _sha(report),
        "flows": None if flows is None else _sha(flows),
        "tables": _sha(json.dumps(tables, sort_keys=True)),
    } == want
    # the pins are exercised by real cache hits, not a cache that
    # never engages
    assert sum(node.flow_cache.hits for node in run.network.nodes.values())


def test_the_pins_cover_every_case_once():
    with open(DIGESTS) as handle:
        assert sorted(json.load(handle)) == sorted(
            f"{name}@{seed}" for name, seed in CASES
        )


# -- the names the benchmark harness still calls ----------------------------------
def test_run_scenario_ignores_batching():
    path = os.path.join(EXAMPLES_DIR, "chaos_smoke.json")
    reports = []
    for kwargs in ({}, {"batching": True}, {"batching": False}):
        with telemetry_session():
            reports.append(
                run_scenario(Scenario.load(path), 7, **kwargs).to_json()
            )
    assert reports[1] == reports[0] == reports[2]


def test_enable_batching_leaves_every_cache_in_place():
    scenario = Scenario.load(os.path.join(EXAMPLES_DIR, "chaos_smoke.json"))
    with telemetry_session():
        run = build_run(scenario, 7)
        caches = {n: node.flow_cache for n, node in run.network.nodes.items()}
        run.network.enable_batching()
        with finish(run):
            run.network.run(until=scenario.duration)
    assert {n: node.flow_cache for n, node in run.network.nodes.items()} == caches
