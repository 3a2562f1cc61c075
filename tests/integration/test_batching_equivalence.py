"""Differential equivalence: batched fast path vs the scalar oracle.

The batched data plane (per-node flow caches, see
``repro.mpls.fastpath``) must be *observably identical* to the scalar
per-packet path: same chaos report byte for byte, same flow-accounting
export, same final ILM/FTN tables.  Every example scenario -- chaos
with FRR switchovers, signaling storms, graceful restarts, hardware
scrubbing, flow alerting, span sampling -- runs twice under the same
seed, once per mode, and the artifacts are compared verbatim.

Any divergence here means the flow cache served a stale or
wrongly-rebuilt decision; the cache is a pure memoization layer and
has no license to change behavior.
"""

import io
import os

import pytest

from repro.faults.chaos import build_run, finish, run_scenario, summarize
from repro.faults.scenario import Scenario
from repro.obs import telemetry_session
from repro.obs.flows import flows_to_jsonl

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)

# (scenario file, seed): ten seeded differential cases covering every
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
    # from the event stream, so it must match across modes too
    ("chaos_topo.json", 17),
    # centralized PCE armed: crash + partition failover, delegation
    # fallback and the readopt resync transaction all ride the same
    # scheduler, so the controller section must match across modes
    ("chaos_controller.json", 19),
    ("chaos_controller.json", 29),
]


def _run(path, seed, batching):
    """One scenario run; returns (report json, flow export, tables).

    Runs what ``run_scenario`` runs -- ``build_run``, the network, the
    shared ``finish`` step, ``summarize`` -- but keeps the live run
    object so the final forwarding tables and the flow-accounting
    export can be captured alongside the report.
    """
    scenario = Scenario.load(path)
    with telemetry_session():
        run = build_run(scenario, seed)
        if batching:
            run.network.enable_batching()
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
    return report.to_json(), flows_export, tables


@pytest.mark.parametrize("name,seed", CASES)
def test_batched_report_is_byte_identical(name, seed):
    path = os.path.join(EXAMPLES_DIR, name)
    scalar_report, scalar_flows, scalar_tables = _run(path, seed, False)
    batched_report, batched_flows, batched_tables = _run(path, seed, True)
    with telemetry_session():
        reference = run_scenario(Scenario.load(path), seed).to_json()
    assert scalar_report == reference
    assert batched_report == scalar_report
    assert batched_flows == scalar_flows
    assert batched_tables == scalar_tables


def test_batched_mode_actually_caches():
    """Guard against the trivial pass: the equivalence above must be
    exercised by real cache hits, not a cache that never engages."""
    path = os.path.join(EXAMPLES_DIR, "chaos_smoke.json")
    scenario = Scenario.load(path)
    with telemetry_session():
        run = build_run(scenario, seed=0)
        run.network.enable_batching()
        run.network.run(until=scenario.duration)
    hits = sum(node.flow_cache.hits for node in run.network.nodes.values())
    assert hits > 0


def test_batched_mode_caches_on_hardware_nodes():
    """The hardware scenario must exercise the hardware memo."""
    path = os.path.join(EXAMPLES_DIR, "chaos_hw_scrub.json")
    scenario = Scenario.load(path)
    with telemetry_session():
        run = build_run(scenario, seed=3)
        run.network.enable_batching()
        run.network.run(until=scenario.duration)
    hits = sum(node.flow_cache.hits for node in run.network.nodes.values())
    assert hits > 0
