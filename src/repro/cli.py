"""Command-line interface: regenerate the paper's results standalone.

``python -m repro <command>``: each row of :data:`COMMANDS` is one
command, and ``--help`` prints them (``<command> --help`` one row's
arguments).  A command refuses every flag it does not read.

Every command returns a process exit code: 0 on success, 1 when a
measured value disagrees with the paper (a MISMATCH) or an invariant
fails, 2 for arguments no run can mean.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, TextIO
from typing import Tuple

from repro.analysis.cycles import measure_table6
from repro.analysis.report import render_series, render_table
from repro.analysis.throughput import estimate_throughput
from repro.core.device import STRATIX_EP1S40
from repro.core.hybrid import compare_partitions
from repro.core.timing import worst_case_scenario
from repro.hw.driver import ModifierDriver
from repro.mpls.label import LabelEntry, LabelOp

if TYPE_CHECKING:  # pragma: no cover - type-only; repro.faults loads lazily
    from repro.faults import ChaosReport, Scenario
    from repro.obs import Telemetry


def _print_table6(title: str, driver: ModifierDriver) -> int:
    """Measure Table 6 on ``driver`` and print it under ``title``: 0
    when every row matches the paper, else 1."""
    rows = measure_table6(driver)
    print(render_table(
        ["operation", "formula", "expected", "measured (RTL)", "match"],
        [[r.operation, r.formula, r.expected, r.measured,
          "ok" if r.matches else "MISMATCH"] for r in rows],
        title=title,
    ))
    return 0 if all(r.matches for r in rows) else 1


def cmd_table6() -> int:
    return _print_table6(
        "Table 6 -- processing times (worst-case clock cycles)",
        ModifierDriver(),
    )


def cmd_worst_case() -> int:
    wc = worst_case_scenario()
    rows = list(wc.as_rows())
    rows.append(("time at 50 MHz", f"{wc.seconds * 1e3:.4f} ms"))
    print(render_table(["component", "cycles"], rows,
                       title="Section 4 worst case (paper: 6167 cycles, "
                       "~0.1233 ms)"))
    print("\nre-measuring on the cycle-accurate RTL (takes ~1 s)...")
    drv = ModifierDriver(ib_depth=1024)
    total = drv.reset()
    for i, label in enumerate((100, 200, 300)):
        total += drv.user_push(
            LabelEntry(label=label, ttl=9, s=1 if i == 0 else 0)
        )
    for i in range(1023):
        total += drv.write_pair(3, 1000 + i, 500, LabelOp.SWAP)
    total += drv.write_pair(3, 300, 999, LabelOp.SWAP)
    total += drv.update().cycles
    print(f"RTL total: {total} cycles "
          f"({STRATIX_EP1S40.time_for_cycles(total) * 1e3:.4f} ms) -- "
          f"{'matches the paper' if total == 6167 else 'MISMATCH'}")
    return 0 if total == 6167 else 1


def cmd_figures() -> int:
    ops = [LabelOp.SWAP, LabelOp.POP, LabelOp.PUSH]
    drv = ModifierDriver(ib_depth=1024)

    drv.reset()
    for i in range(10):
        drv.write_pair(1, 600 + i, 500 + i, ops[i % 3])
    hit = drv.search(1, 604)
    print(f"Figure 14: lookup(packetid=604) -> label_out={hit.label} "
          f"operation_out={int(hit.op)} cycles={hit.cycles} "
          f"packetdiscard={int(hit.discarded)}")

    drv.reset()
    for i in range(10):
        drv.write_pair(2, i + 1, 500 + i, ops[i % 3])
    hit2 = drv.search(2, 5)
    print(f"Figure 15: lookup(label=5) at level 2 -> label_out={hit2.label} "
          f"cycles={hit2.cycles} packetdiscard={int(hit2.discarded)}")

    miss = drv.search(2, 27)
    print(f"Figure 16: lookup(label=27, absent) -> found={miss.found} "
          f"cycles={miss.cycles} (3n+5, n=10) "
          f"packetdiscard={int(miss.discarded)}")
    return 0


def cmd_hw_vs_sw() -> int:
    cmp = compare_partitions()
    rows = [
        [p.n_entries, p.hw_cycles, round(p.hw_seconds * 1e6, 2),
         round(p.sw_seconds * 1e6, 2),
         f"{p.speedup_vs_linear_sw:.1f}x"]
        for p in cmp.points
    ]
    print(render_table(
        ["IB entries", "hw cycles", "hw us", "sw-linear us", "hw speedup"],
        rows,
        title="Hardware (50 MHz) vs linear software (200 MHz) per "
        "worst-case swap",
    ))
    print(f"hashed-software crossover at n = {cmp.crossover_entries()}")
    return 0


def cmd_throughput() -> int:
    rows = []
    for n in (1, 16, 64, 256, 1024):
        est = estimate_throughput(n)
        rows.append([n, est.cycles_per_packet,
                     int(est.packets_per_second), round(est.mbps, 1)])
    print(render_series(
        "IB entries", ["cycles/pkt", "pps", "Mbps (500B)"], rows,
        title="Worst-case label-switching throughput at 50 MHz",
    ))
    return 0


def cmd_device() -> int:
    dev = STRATIX_EP1S40
    print(render_table(
        ["property", "value"],
        [
            ["device", dev.name],
            ["clock", f"{dev.clock_hz / 1e6:.0f} MHz"],
            ["cycle time", f"{dev.cycle_time_s * 1e9:.0f} ns"],
            ["block RAM", f"{dev.memory_bits} bits"],
            ["info base need", f"{dev.info_base_bits()} bits"],
            ["memory utilization", f"{dev.memory_utilization():.1%}"],
            ["fits", "yes" if dev.fits_info_base() else "NO"],
        ],
        title="FPGA device model",
    ))
    return 0


# -- export plumbing ---------------------------------------------------------
# every command that writes a file reports unwritable paths the same
# way: `error: cannot write <path>: <reason>` on stderr, exit code 1.

def _write_output(
    path: str, write: Callable[[TextIO], None], note: str = ""
) -> bool:
    """Write an export file through ``write(handle)`` and print
    ``note`` to stderr; on failure print the standard error message and
    return False."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            write(stream)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    if note:
        print(note, file=sys.stderr)
    return True


#: the scenario ``stats``, ``trace`` and ``spans`` run without a file:
#: the Figure 1 domain, LDP binding ``10.2.0.0/16`` towards ``ler-b``,
#: one 1 Mbit/s CBR flow from behind ``ler-a`` for its first 0.5 s
QUICKSTART: Dict[str, Any] = {
    "name": "quickstart",
    "topology": {"kind": "paper_figure1", "bandwidth_bps": 10e6,
                 "delay_s": 1e-3},
    "control": "ldp",
    "duration": 1.0,
    "traffic": [
        {"ingress": "ler-a", "egress": "ler-b", "prefix": "10.2.0.0/16",
         "src": "10.1.0.5", "dst": "10.2.0.9",
         "rate_bps": 1e6, "packet_size": 500, "stop": 0.5},
    ],
}


def _run(
    path: Optional[str],
    armed: Optional[Dict[str, Dict]] = None,
    telemetry: Optional[Telemetry] = None,
    **kwargs,
) -> Optional[Tuple[Scenario, ChaosReport]]:
    """Load a scenario file (None: :data:`QUICKSTART`), arm each
    ``armed`` key whatever the file says (its config laid over the
    file's own: how every CLI override reaches a scenario), and run it
    under ``telemetry`` -- a fresh session when None; a caller passes
    its own to attach sinks before the run or read it after.
    A file that cannot be read, or a scenario the harness rejects,
    prints the standard error message and returns None (callers turn
    that into exit 1)."""
    from repro.faults import Scenario, ScenarioError, run_scenario
    from repro.obs import telemetry_session

    try:
        scenario = (
            Scenario.from_dict(QUICKSTART) if path is None
            else Scenario.load(path)
        )
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except ScenarioError as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return None
    for key, config in (armed or {}).items():
        setattr(scenario, key, {**(getattr(scenario, key) or {}), **config})
    try:
        with telemetry_session(telemetry=telemetry):
            return scenario, run_scenario(scenario, **kwargs)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


# -- telemetry commands ------------------------------------------------------

def cmd_stats(scenario: Optional[str] = None) -> int:
    """Run ``scenario`` (default: the quickstart) and a profiled Table 6
    measurement under one telemetry session; print the full snapshot."""
    from repro.obs import (
        ConservationError,
        CycleProfiler,
        ListSink,
        telemetry_session,
        to_json,
        to_prometheus,
    )

    with telemetry_session() as tel:
        sink = tel.events.add_sink(ListSink())
        ran = _run(scenario, telemetry=tel)
        if ran is None:
            return 1
        traffic = ran[1]["traffic"]
        print(f"scenario: sent {traffic['sent']}, "
              f"delivered {traffic['delivered']}, "
              f"dropped {traffic['dropped']}")

        # -- cycle-level profile of the Table 6 measurement ----------------
        drv = ModifierDriver(ib_depth=1024)
        profiler = CycleProfiler(drv.sim, telemetry=tel)
        drv.attach_profiler(profiler)
        print()
        rc = _print_table6("Table 6 -- measured under the cycle profiler", drv)
        print()
        print("cycle profile (per scoped operation / FSM state):")
        print(profiler.render())
        try:
            profiler.check_conservation()
        except ConservationError as exc:
            print(f"cycle conservation FAILED: {exc}")
            rc = 1
        else:
            print("cycle conservation: ok (per-state and per-operation "
                  "totals sum to the observed cycles)")
        if profiler.cycles == drv.total_cycles:
            print(f"profiler total == simulator total: "
                  f"{profiler.cycles} cycles")
        else:
            print(f"profiler total {profiler.cycles} != simulator total "
                  f"{drv.total_cycles}: MISMATCH")
            rc = 1

        # -- event log roll-up --------------------------------------------
        kinds: Dict[str, int] = {}
        for event in sink.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        print()
        print(render_table(
            ["event kind", "count"],
            [[k, kinds[k]] for k in sorted(kinds)],
            title=f"Event log ({tel.events.emitted} events)",
        ))

        # -- the snapshot itself ------------------------------------------
        print()
        print("# ---- Prometheus exposition ----")
        print(to_prometheus(tel.registry))
        print("# ---- JSON snapshot ----")
        print(to_json(tel.registry))
    return rc


def cmd_trace(
    scenario: Optional[str] = None,
    output: Optional[str] = None,
    flows: Optional[List[int]] = None,
    nodes: Optional[List[str]] = None,
) -> int:
    """Emit ``scenario``'s event stream (default: the quickstart's) as
    JSON Lines -- to stdout, or to ``output`` when given.

    ``flows`` / ``nodes`` restrict the stream to matching events (a
    :class:`~repro.obs.events.FilterSink` in front of the JSONL sink).
    Events stream to the sink as they happen; nothing is buffered for
    the run's whole duration.
    """
    from repro.obs import FilterSink, JSONLSink, telemetry_session

    with telemetry_session() as tel:
        try:
            stream = (
                open(output, "w", encoding="utf-8") if output else sys.stdout
            )
        except OSError as exc:
            print(f"error: cannot write {output}: {exc}", file=sys.stderr)
            return 1
        jsonl = JSONLSink(stream)
        sink = tel.events.add_sink(
            FilterSink(jsonl, flows=flows, nodes=nodes)
            if flows or nodes else jsonl
        )
        try:
            ran = _run(scenario, telemetry=tel)
        finally:
            tel.events.remove_sink(sink)
            if output:
                stream.close()
        if ran is None:
            return 1
        traffic = ran[1]["traffic"]
        filtered = (
            f" ({sink.filtered} filtered out)"
            if isinstance(sink, FilterSink)
            else ""
        )
        print(
            f"traced {tel.events.emitted} events{filtered} "
            f"({traffic['sent']} packets sent, "
            f"{traffic['delivered']} delivered)"
            + (f" -> {output}" if output else ""),
            file=sys.stderr,
        )
    return 0


def cmd_spans(
    scenario: Optional[str] = None,
    seed: int = 0,
    sample_rate: float = 1.0,
    export: Optional[str] = None,
    flows: Optional[List[int]] = None,
    fecs: Optional[List[str]] = None,
    slowest: int = 5,
) -> int:
    """Trace a run at span granularity and summarize (or export) it.

    The chaos harness runs ``scenario`` (default: the quickstart) under
    a :class:`~repro.obs.spans.SpanRecorder`.  ``--export`` writes the
    (possibly ``--flow``/``--fec``-filtered) traces as Chrome
    trace-event JSON, loadable in Perfetto / ``chrome://tracing``.
    """
    from repro.obs.spans import export_chrome_trace, render_summary

    ran = _run(scenario, seed=seed, sample_rate=sample_rate)
    if ran is None:
        return 1
    loaded, report = ran
    recorder = report.recorder
    print(render_summary(recorder, slowest=slowest))
    traces = recorder.traces()
    flowset = set(flows) if flows else None
    fecset = set(fecs) if fecs else None
    if flowset is not None or fecset is not None:
        traces = [
            t
            for t in traces
            if (flowset is None or t.flow_id in flowset)
            and (fecset is None or t.fec in fecset)
        ]
        print()
        print(f"filtered traces ({len(traces)}):")
        for t in traces:
            status = (
                "delivered"
                if t.delivered
                else ("dropped" if t.dropped else "open")
            )
            lat = (
                f"{t.latency * 1e3:.3f}ms"
                if t.latency is not None
                else "n/a"
            )
            print(
                f"  {t.trace_id:<24} fec={t.fec:<18} {status:<9} "
                f"latency={lat} path={'>'.join(t.path)}"
            )
    if export and not _write_output(
        export, lambda handle: export_chrome_trace(traces, handle),
        f"spans: {loaded.name!r}: exported {len(traces)} traces -> {export}",
    ):
        return 1
    return 0


def _render_fault_kinds() -> str:
    """Enumerate every fault kind with its target arity and accepted
    params, straight from the kind table -- what ``from_dict`` accepts
    is exactly what this prints."""
    from repro.faults.scenario import FAULT_KINDS
    from repro.faults.subsystems import KIND_KEYS

    arity = {
        "link": "link (two nodes)",
        "node": "node",
        "controller": 'the literal "controller"',
    }
    lines = []
    for kind, contract in FAULT_KINDS.items():
        key = contract.key
        tag = f"  [{KIND_KEYS[key][0]}: needs a '{key}' key]" if key else ""
        lines.append(f"{kind.value} -- target: {arity[contract.target]}{tag}")
        for name in sorted(contract.params):
            lines.append(f"    {name}: {contract.params[name].description}")
        if not contract.params:
            lines.append("    (no params)")
    return "\n".join(lines)


def cmd_chaos(
    scenario: Optional[str] = None,
    seed: int = 0,
    output: Optional[str] = None,
    batching: Optional[str] = None,
    list_faults: bool = False,
    **overrides,
) -> int:
    """Run a fault-injection scenario file and print its report.

    Stdout carries exactly the JSON report (the CI smoke step compares
    two runs byte-for-byte); diagnostics go to stderr.
    ``--list-faults`` instead enumerates the fault taxonomy (kinds,
    target arity, accepted params) and exits.

    ``overrides`` are the subsystem rows' flags by name (``audit=0.05``,
    ``controller="on"``): each one given arms its row whatever the file
    says -- the auditor at that period; overload protection, the
    security guards or the PCE switched on, or off for the baseline.
    """
    from repro.faults.subsystems import FLAGS

    unknown = sorted(set(overrides) - set(FLAGS))
    if unknown:
        raise TypeError(f"cmd_chaos() has no override {', '.join(unknown)}")
    if list_faults:
        print(_render_fault_kinds())
        return 0
    if scenario is None:
        print("error: chaos needs a scenario file "
              "(e.g. examples/chaos_smoke.json)", file=sys.stderr)
        return 1
    armed = {
        FLAGS[name].key: FLAGS[name].flag.config(value)
        for name, value in overrides.items()
        if value is not None
    }
    ran = _run(scenario, armed, seed=seed, batching=(batching == "on"))
    if ran is None:
        return 1
    loaded, report = ran
    text = report.to_json()
    if output:
        if not _write_output(output, lambda handle: handle.write(text)):
            return 1
    else:
        sys.stdout.write(text)
    traffic = report["traffic"]
    availability = traffic["availability"]
    print(
        f"chaos: {loaded.name!r} seed={seed}: "
        f"{len(report['faults'])} faults, "
        f"availability {availability if availability is not None else 'n/a'}"
        + (f" -> {output}" if output else ""),
        file=sys.stderr,
    )
    return 0


def cmd_flows(
    scenario: str,
    seed: int = 0,
    top: int = 10,
    export: Optional[str] = None,
    matrix: Optional[str] = None,
    prom: Optional[str] = None,
) -> int:
    """Run a scenario with flow accounting armed and render the
    top-talkers view, the traffic matrix, and the alert history.

    Flow accounting is forced on even when the scenario file has no
    ``flows`` key (defaults apply); alert rules run only if the file
    declares them.  ``--export`` writes the flow records, matrix
    snapshots, and alert transitions as JSON Lines; ``--matrix`` the
    snapshots as one JSON document; ``--prom`` the final Prometheus
    exposition.  All three exports are byte-stable for a seeded
    scenario (the CI views-smoke job compares two runs with ``cmp``).
    """
    from repro.obs import to_prometheus
    from repro.obs.alerts import render_alert_history
    from repro.obs.flows import (
        flows_to_jsonl,
        matrices_to_json,
        render_flow_summary,
    )

    ran = _run(scenario, {"flows": {}}, seed=seed)
    if ran is None:
        return 1
    loaded, report = ran
    # the flows row always arms the accountant and the matrix collector
    accountant, matrices = report.flows, report.collector.matrices
    engine = report.alert_engine
    print(render_flow_summary(accountant, report.collector, top=top))
    if engine is not None:
        print()
        print(render_alert_history(engine))
    records = accountant.all_records()
    history = engine.history if engine is not None else ()
    if export and not _write_output(
        export,
        lambda handle: flows_to_jsonl(records, handle, matrices, history),
        f"flows: {loaded.name!r} seed={seed}: exported {len(records)} "
        f"records -> {export}",
    ):
        return 1
    if matrix and not _write_output(
        matrix, lambda handle: handle.write(matrices_to_json(matrices)),
        f"flows: matrix snapshots -> {matrix}",
    ):
        return 1
    # the accountant holds the run's telemetry (and its registry)
    registry = accountant.telemetry.registry
    if prom and not _write_output(
        prom, lambda handle: handle.write(to_prometheus(registry)),
        f"flows: Prometheus exposition -> {prom}",
    ):
        return 1
    return 0


def cmd_bench_report(results_dir: Optional[str] = None) -> int:
    """Merge the ``BENCH_<name>.json`` artifacts into one summary table.

    Reads every machine-readable benchmark record under
    ``benchmarks/results/`` (or ``results_dir``) and renders them
    sorted by name, so a whole benchmark run can be scanned -- or
    diffed against a previous one -- at a glance.
    """
    import glob
    import json
    import os

    directory = results_dir or os.path.join("benchmarks", "results")
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        print(
            f"error: no BENCH_*.json files under {directory} "
            "(run the benchmarks first: pytest benchmarks/)",
            file=sys.stderr,
        )
        return 1
    rows = []
    bad = schemaless = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            bad += 1
            continue
        if not isinstance(record, dict):
            print(
                f"warning: {path} is not a benchmark record "
                f"(top-level {type(record).__name__}, expected an "
                "object); skipping",
                file=sys.stderr,
            )
            schemaless += 1
            continue
        missing = [
            key for key in ("name", "metric", "value")
            if key not in record
        ]
        if missing:
            print(
                f"warning: {path} is missing schema keys "
                f"{', '.join(missing)}; rendering placeholders",
                file=sys.stderr,
            )
            schemaless += 1
        value = record.get("value")
        if isinstance(value, float):
            value = f"{value:g}"
        seed = record.get("seed")
        rows.append([
            record.get("name", os.path.basename(path)),
            record.get("metric", "?"),
            value,
            record.get("units", ""),
            seed if seed is not None else "-",
        ])
    title = f"Benchmark summary ({len(rows)} records from {directory}"
    if bad or schemaless:
        title += f"; {bad} unreadable, {schemaless} schema-less"
    title += ")"
    print(render_table(
        ["benchmark", "metric", "value", "units", "seed"],
        rows,
        title=title,
    ))
    if bad or schemaless:
        print(
            f"bench-report: {bad} unreadable and {schemaless} "
            "schema-less artifacts (see warnings above)",
            file=sys.stderr,
        )
    return 1 if bad else 0


def _render_topo_view(view) -> str:
    """A human summary of one TopologyView (deterministic text)."""
    d = view.data
    health = view.health()
    lines = [
        f"topology @ t={view.time:g}  "
        f"(overall health {health['overall']:g})",
        "",
    ]
    lines.append("nodes:")
    for name in sorted(d["nodes"]):
        lines.append(f"  {name:10s} {d['nodes'][name]}")
    lines.append("links:")
    for key in sorted(d["links"]):
        a, b = key.split("|")
        busy = max(
            d["utilization"].get(f"{a}>{b}", 0.0),
            d["utilization"].get(f"{b}>{a}", 0.0),
        )
        util = f"  util {busy * 100:.0f}%" if busy else ""
        lines.append(f"  {a} -- {b}: {d['links'][key]}{util}")
    ups = sum(1 for s in d["adjacencies"].values() if s == "up")
    if d["adjacencies"]:
        lines.append(
            f"ldp adjacencies: {ups}/{len(d['adjacencies'])} up"
        )
    if d["fecs"]:
        lines.append("fecs:")
        for fec_id in sorted(d["fecs"]):
            lines.append(
                f"  {fec_id}: bindings at "
                f"{len(d['fecs'][fec_id])} routers"
            )
    if d["lsps"]:
        lines.append("lsps:")
        for name in sorted(d["lsps"]):
            entry = d["lsps"][name]
            active = d["frr"].get(name)
            frr = f"  (frr: {active})" if active else ""
            lines.append(
                f"  {name}: {entry['state']}  route "
                f"{entry['route'] or '-'}{frr}"
            )
    if d["faults"]:
        lines.append("active faults:")
        for key in sorted(d["faults"]):
            lines.append(f"  {key}  since t={d['faults'][key]:g}")
    if d["attacks"]:
        lines.append("attacks:")
        for key in sorted(d["attacks"]):
            lines.append(f"  {key}: {d['attacks'][key]}")
    return "\n".join(lines)


#: ``repro topo`` query -> how many times it takes
TOPO_TIMES = {"show": 0, "at": 1, "diff": 2, "health": 0}


def cmd_topo(
    scenario: str,
    action: str = "show",
    times: Optional[List[float]] = None,
    seed: int = 0,
    batching: Optional[str] = None,
    export: Optional[str] = None,
    dot: Optional[str] = None,
) -> int:
    """Run a scenario with the topology observer armed and query the
    resulting link-state database.

    ``show`` renders the end-of-run view; ``at <t>`` reconstructs the
    view at time ``t`` from snapshot + deltas (byte-identical to the
    live view the observer held); ``diff <t1> <t2>`` lists the leaf
    changes between two instants; ``health`` prints the derived
    per-object scores.  ``--export`` writes the queried view as JSON
    and ``--dot`` as Graphviz -- both byte-stable for a seeded run
    (the CI views-smoke job compares two runs with ``cmp``).
    """
    # main has checked the time count against TOPO_TIMES
    times = times or []
    # the observer is the point of this command: force it on even when
    # the scenario file has no 'topo' key
    ran = _run(scenario, {"topo": {}}, seed=seed,
               batching=(batching == "on"))
    if ran is None:
        return 1
    _, report = ran
    # the run's telemetry is on, so the row always arms the observer
    observer = report.topo

    if action == "at":
        view = observer.at(times[0])
        sys.stdout.write(view.to_json())
    elif action == "diff":
        before, after = observer.at(times[0]), observer.at(times[1])
        changes = before.diff(after)
        for change in changes:
            print(
                f"{change['path']}: {change['before']!r} -> "
                f"{change['after']!r}"
            )
        print(
            f"topo: {len(changes)} changes between t={times[0]:g} "
            f"and t={times[1]:g}",
            file=sys.stderr,
        )
        view = after
    elif action == "health":
        import json

        view = observer.live_view()
        print(json.dumps(view.health(), sort_keys=True, indent=2))
    else:  # show
        view = observer.live_view()
        print(_render_topo_view(view))
    if export and not _write_output(
        export, lambda handle: handle.write(view.to_json()),
        f"topo: view -> {export}",
    ):
        return 1
    if dot and not _write_output(
        dot, lambda handle: handle.write(view.to_dot()),
        f"topo: DOT graph -> {dot}",
    ):
        return 1
    mismatches = observer.mismatches
    if mismatches:
        print(
            f"topo: differential verification FAILED "
            f"({len(mismatches)} mismatches)",
            file=sys.stderr,
        )
        for problem in mismatches[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_all() -> int:
    """Every paper row of :data:`COMMANDS` in sequence; the exit code
    is the worst of theirs."""
    worst = 0
    for command in COMMANDS:
        if command.paper:
            print(f"\n===== {command.name} =====")
            worst = max(worst, command.handler())
    return worst


# -- the command table -------------------------------------------------------

def arg(*names: str, **kwargs: Any) -> Tuple[Tuple[str, ...], Dict[str, Any]]:
    """One ``add_argument`` call of a :class:`Command` row."""
    return names, kwargs


@dataclass(frozen=True)
class Command:
    """One ``repro`` command: ``main`` builds its subparser from
    ``args`` and calls ``handler`` with the parsed values by name."""

    name: str
    handler: Callable[..., int]
    help: str
    args: Tuple[Tuple[Tuple[str, ...], Dict[str, Any]], ...] = ()
    #: a paper-result regenerator: ``all`` runs it
    paper: bool = False


#: in a row's ``args``, the subsystem rows' ``--<flag>`` overrides:
#: ``main`` builds them, so importing the CLI loads no ``repro.faults``
OVERRIDES = arg()
QUICKSTART_OR_FILE = arg(
    "scenario", nargs="?",
    help="a JSON scenario file (default: the quickstart scenario)",
)
SEED = arg("--seed", type=int, default=0,
           help="seed for the randomized fault schedule (default 0)")
BATCHING = arg("--batching", choices=["on", "off"],
               help="run the data plane on the batched fast path; the "
               "output is byte-identical to the scalar run (default: off)")
FLOW = arg("--flow", metavar="ID", type=int, action="append", dest="flows",
           help="restrict to this flow id (repeatable)")

COMMANDS: Tuple[Command, ...] = (
    Command("table6", cmd_table6,
            "measure Table 6 on the cycle-accurate RTL", paper=True),
    Command("worst-case", cmd_worst_case,
            "the Section 4 composite (analytic + RTL)", paper=True),
    Command("figures", cmd_figures,
            "replay the Figure 14/15/16 simulations", paper=True),
    Command("hw-vs-sw", cmd_hw_vs_sw,
            "the hardware/software partition comparison", paper=True),
    Command("throughput", cmd_throughput,
            "label-switching throughput vs table size", paper=True),
    Command("device", cmd_device,
            "the FPGA device model and memory budget", paper=True),
    Command("all", cmd_all, "every paper command above in sequence"),
    Command("stats", cmd_stats,
            "a scenario's metrics snapshot and Table 6 under the cycle "
            "profiler", (QUICKSTART_OR_FILE,)),
    Command("trace", cmd_trace, "a scenario's event stream as JSON Lines", (
        QUICKSTART_OR_FILE,
        arg("-o", "--output", metavar="FILE",
            help="write the event stream to FILE instead of stdout"),
        FLOW,
        arg("--node", metavar="NAME", action="append", dest="nodes",
            help="restrict to events at this node (repeatable)"),
    )),
    Command("chaos", cmd_chaos, "run a fault scenario; print its report", (
        arg("scenario", nargs="?", help="a JSON fault scenario file"),
        SEED,
        arg("-o", "--output", metavar="FILE",
            help="write the JSON report to FILE instead of stdout"),
        OVERRIDES,
        BATCHING,
        arg("--list-faults", action="store_true",
            help="list the fault kinds, their targets and params, then exit"),
    )),
    Command("spans", cmd_spans, "trace a scenario at span granularity", (
        QUICKSTART_OR_FILE,
        SEED,
        arg("--sample-rate", metavar="RATE", type=float, default=1.0,
            help="head-based sampling rate in [0, 1] (default 1.0)"),
        arg("--export", metavar="FILE",
            help="write the traces as Chrome trace-event JSON (Perfetto)"),
        FLOW,
        arg("--fec", metavar="PREFIX", action="append", dest="fecs",
            help="restrict to traces of this FEC (repeatable)"),
        arg("--slowest", metavar="N", type=int, default=5,
            help="list the N slowest traces (default 5)"),
    )),
    Command("flows", cmd_flows, "flow records, traffic matrix and alerts", (
        arg("scenario", help="a JSON scenario file (examples/chaos_*.json)"),
        SEED,
        arg("--top", metavar="N", type=int, default=10,
            help="list the N heaviest talkers (default 10)"),
        arg("--export", metavar="FILE",
            help="write the flow records, matrix snapshots and alert "
            "transitions as JSON Lines"),
        arg("--matrix", metavar="FILE",
            help="write the traffic-matrix snapshots as one JSON document"),
        arg("--prom", metavar="FILE",
            help="write the run's final Prometheus exposition"),
    )),
    Command("topo", cmd_topo, "query a scenario's topology observatory", (
        arg("scenario", help="a JSON scenario file (its 'topo' key is "
            "forced on)"),
        arg("action", nargs="?", default="show",
            choices=["show", "at", "diff", "health"],
            help="the end-of-run view (default), the view 'at' a time, "
            "the 'diff' of two instants, or the 'health' scores"),
        arg("times", nargs="*", type=float,
            help="timestamps for 'at' (one) and 'diff' (two)"),
        SEED,
        BATCHING,
        arg("--export", metavar="FILE",
            help="write the queried view as JSON (byte-stable)"),
        arg("--dot", metavar="FILE",
            help="write the queried view as a Graphviz graph"),
    )),
    Command("bench-report", cmd_bench_report,
            "merge the BENCH_*.json benchmark artifacts into one table", (
        arg("results_dir", nargs="?", metavar="DIR",
            help="the results directory (default benchmarks/results)"),
    )),
)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.faults.subsystems import FLAGS

    overrides = [
        arg(f"--{flag.name}", choices=["on", "off"], help=flag.help)
        if flag.switch
        else arg(f"--{flag.name}", metavar=flag.field.upper(), type=float,
                 help=flag.help)
        for flag in (sub.flag for sub in FLAGS.values())
    ]
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="Regenerate the paper's results."
    )
    commands = parser.add_subparsers(metavar="command", required=True)
    for command in COMMANDS:
        sub = commands.add_parser(
            command.name, help=command.help, description=command.help
        )
        sub.set_defaults(handler=command.handler)
        for spec in command.args:
            for names, kwargs in overrides if spec is OVERRIDES else [spec]:
                sub.add_argument(*names, **kwargs)
    parsed = vars(parser.parse_args(argv))
    handler = parsed.pop("handler")
    # refused before any scenario is built: a rate outside [0, 1] (NaN
    # fails both bounds) is a traceback from the recorder, a negative N
    # a slice bound ("all but the last"), not a count, a time that is
    # not finite a view no run ever held, and a topo query given more
    # or fewer times than it reads a run for nothing
    problem = None
    if not 0.0 <= (rate := parsed.get("sample_rate", 1.0)) <= 1.0:
        problem = f"--sample-rate must be in [0, 1], got {rate}"
    for when in parsed.get("times") or ():
        if not math.isfinite(when):
            problem = f"a time must be finite, got {when}"
    if handler is cmd_topo:
        action, count = parsed["action"], len(parsed["times"])
        wanted = TOPO_TIMES[action]
        if count != wanted:
            takes = ("no time", "one time", "two times")[wanted]
            problem = f"'{action}' takes {takes}, got {count}"
    for name in ("slowest", "top"):
        if parsed.get(name, 0) < 0:
            problem = f"--{name} must be >= 0, got {parsed[name]}"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return handler(**parsed)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
