#!/usr/bin/env python3
"""Reach census: which functions in ``src/repro`` no workload calls, and
which defaulted parameters no workload moves off their default.

Runs every leg below in a fresh interpreter on a scratch copy of the
tree (the benchmark legs rewrite ``benchmarks/results``), with this
directory first on ``PYTHONPATH`` so that ``sitecustomize.py`` records
every function each interpreter starts and each defaulted parameter a
call binds to something other than its default.  Then matches the
recorded ``(file, first line)`` pairs against an ``ast`` walk of every
``def`` in ``src/repro`` (a decorated function's code starts at its
first decorator) and prints, sorted, one ``path:Qualname  owner`` line
for each unreached function and one ``path:Qualname(param)  owner``
line for each defaulted parameter of a reached function that no leg
moved.  The owner comes from the committed list, ``reach_census.txt``;
a line the list does not name prints as ``UNOWNED``.

    python tools/reach_census.py                # print the census
    python tools/reach_census.py --check tools/reach_census.txt

``--check`` exits 1 when the census and the list name different
functions or parameters, in either direction.  The legs run two at a
time and take a few minutes on a two-core machine.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIST = os.path.join(HERE, "reach_census.txt")
SOURCE = os.path.join("src", "repro")

#: why a function no workload reaches is kept (``reach_census.txt``)
OWNERS = {
    "item-2": "the one-LDP fold (ROADMAP item 2)",
    "item-4": "a failure path or toggle product no workload drives yet "
              "(ROADMAP item 4)",
    "item-5": "the recorded-run reader (ROADMAP item 5)",
    "item-6/15": "paper hardware no workload drives yet "
                 "(ROADMAP items 6 and 15)",
    "item-10": "tunnel hierarchy depth (ROADMAP item 10)",
    "item-12": "the FSM dispatch oracle (ROADMAP item 12)",
    "bench": "a parameter the frozen benchmark (benchmarks/perf) passes",
    "entry": "a path or argv a user supplies",
    "oracle": "read by a test as its oracle (a differential suite's "
              "equality, a reference's default, a test-only accessor)",
    "text": "formats an object in an error message or printed output",
}

#: CI's determinism-smoke matrix: (example, flag)
CASES = (
    ("chaos_smoke", ""), ("chaos_smoke", "--audit 0.05"),
    ("chaos_frr", ""), ("chaos_graceful_restart", ""),
    ("chaos_hw_scrub", ""), ("chaos_ldp_sessions", ""),
    ("chaos_signaling_storm", ""),
    ("chaos_signaling_storm", "--overload off"),
    ("chaos_security", ""), ("chaos_security", "--mitigation off"),
    ("chaos_spans", ""), ("chaos_flow_alerts", ""), ("chaos_topo", ""),
    ("chaos_controller", ""), ("chaos_controller", "--controller off"),
)
#: the two examples that are hardware already: CI makes no copy of them
HARDWARE_EXAMPLES = ("chaos_hw_scrub", "chaos_spans")
WORKLOADS = ("rtl_worstcase", "fwd_scalar", "fwd_batched", "ctrl_churn",
             "chaos_obs")


def legs(tree: str) -> Iterator[Tuple[str, List[str]]]:
    """``(name, python argv)`` for every leg, paths relative to ``tree``
    (each leg runs with ``tree`` as its working directory)."""
    repro = ["-m", "repro"]
    for case, flag in CASES:
        for batching in ("off", "on"):
            tail = ["--seed", "7", *flag.split(), "--batching", batching,
                    "-o", os.devnull]
            yield (f"chaos {case} {flag} {batching}",
                   [*repro, "chaos", f"examples/{case}.json", *tail])
            if case not in HARDWARE_EXAMPLES:
                yield (f"chaos {case} {flag} hardware {batching}",
                       [*repro, "chaos", f"hw/{case}.json", *tail])
    yield "chaos --list-faults", [*repro, "chaos", "--list-faults"]
    for name in sorted(os.listdir(os.path.join(tree, "examples"))):
        if name.endswith(".py"):
            yield f"example {name}", [f"examples/{name}"]
    yield ("example hardware_simulation.py --vcd",
           ["examples/hardware_simulation.py", "--vcd", "out/run.vcd"])
    for command in ("all", "stats", "trace", "spans", "bench-report"):
        yield f"repro {command}", [*repro, command]
    smoke = "examples/chaos_smoke.json"
    yield "repro stats FILE", [*repro, "stats", smoke]
    yield "repro trace flags", [
        *repro, "trace", smoke, "--flow", "1", "--node", "lsr-1",
        "-o", "out/trace.jsonl"]
    yield "repro spans flags", [
        *repro, "spans", smoke, "--seed", "7", "--sample-rate", "0.25",
        "--flow", "1", "--fec", "10.2.0.0/16", "--slowest", "3",
        "--export", "out/spans-flags.json"]
    # CI's views-smoke span exports
    for name, rate in (("chaos_spans", "1.0"), ("chaos_hw_scrub", "1.0"),
                       ("chaos_smoke", "0.25")):
        yield f"repro spans {name} --export", [
            *repro, "spans", f"examples/{name}.json", "--seed", "7",
            "--sample-rate", rate, "--export", f"out/{name}.perfetto.json"]
    yield "repro spans --export", [
        *repro, "spans", "--seed", "7", "--export", "out/quickstart.json"]
    yield "repro flows flags", [
        *repro, "flows", "examples/chaos_flow_alerts.json", "--seed", "7",
        "--top", "3", "--export", "out/flows.jsonl", "--matrix",
        "out/matrix.json", "--prom", "out/flows.prom"]
    topo = [*repro, "topo", "examples/chaos_topo.json"]
    tail = ["--seed", "7", "--batching", "on"]
    yield "repro topo show", [*topo, *tail, "--export", "out/topo.json",
                              "--dot", "out/topo.dot"]
    yield "repro topo at", [*topo, "at", "0.5", *tail]
    yield "repro topo diff", [*topo, "diff", "0.1", "0.9", *tail]
    yield "repro topo health", [*topo, "health", *tail]
    for workload in WORKLOADS:
        for seed in ("7", "11"):
            yield f"perf {workload} {seed}", [
                "benchmarks/perf", "--workload", workload, "--seed", seed,
                "--trace", "0", "--scale", "0.2", "--seconds", "1"]
    yield "perf probes", ["-c", (
        "import os, sys; sys.path[:0] = ['.', 'src']; "
        "from benchmarks.perf import probes; "
        "probes.run_all(0.05, os.getcwd(), 'out/probes')")]
    for name in sorted(os.listdir(os.path.join(tree, "benchmarks"))):
        if name.startswith("test_bench_") and name.endswith(".py"):
            yield f"bench {name}", [
                "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--benchmark-disable", f"benchmarks/{name}"]


def copy_tree(tree: str) -> None:
    """The files the legs read, with the hardware copies of CI's
    determinism-smoke scenarios beside them."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "tools", "examples", "benchmarks"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name),
                        ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    os.makedirs(os.path.join(tree, "hw"))
    os.makedirs(os.path.join(tree, "out"))
    for case in {case for case, _ in CASES} - set(HARDWARE_EXAMPLES):
        with open(os.path.join(tree, "examples", f"{case}.json")) as handle:
            scenario = json.load(handle)
        scenario["hardware"] = True
        with open(os.path.join(tree, "hw", f"{case}.json"), "w") as handle:
            json.dump(scenario, handle)


def run_leg(tree: str, records: str, name: str,
            argv: Sequence[str]) -> Tuple[str, Set[str], Set[str], str]:
    """Run one leg; its reached ``path:line`` set, its moved
    ``path:line param`` set (a bare ``path:line`` when the hook could not
    read a function's defaults) and an error, if any."""
    out = tempfile.mkdtemp(dir=records)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(tree, "tools"), os.path.join(tree, "src")])
    env["REACH_CENSUS_DIR"] = out
    done = subprocess.run(
        [sys.executable, *argv], cwd=tree, env=env, timeout=1800,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    reached: Set[str] = set()
    moved: Set[str] = set()
    error = ""
    if done.returncode:
        error = f"exit {done.returncode}: {done.stderr.strip()[-400:]}"
    files = os.listdir(out)
    if not files:
        error = error or "no interpreter wrote a record"
    prefix = tree + os.sep
    for record in files:
        with open(os.path.join(out, record)) as handle:
            for line in handle:
                kind, _, where = line.rstrip("\n").rpartition(" ")
                if where == "lost":
                    error = error or "the trace hook was replaced"
                elif kind.startswith("moved "):
                    moved.add(f"{kind[6 + len(prefix):]} {where}")
                elif kind == "unresolved":
                    moved.add(where[len(prefix):])
                else:
                    reached.add(where[len(prefix):])
    return name, reached, moved, error


def defs(root: str = ROOT) -> Dict[str, Tuple[str, List[str]]]:
    """``path:first_line -> (path:Qualname, defaulted parameters)`` for
    every ``def`` under ``src/repro``; the first line is the first
    decorator's, as in the function's code object."""
    found: Dict[str, Tuple[str, List[str]]] = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    decorator.lineno for decorator in child.decorator_list])
                qualname = prefix + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = [arg.arg for arg in
                             positional[len(positional) - len(args.defaults):]]
                defaulted += [arg.arg for arg, default in
                              zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                found[f"{path}:{first}"] = (f"{path}:{qualname}", defaulted)
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for folder, _, names in os.walk(os.path.join(root, SOURCE)):
        for name in sorted(names):
            if name.endswith(".py"):
                full = os.path.join(folder, name)
                with open(full) as handle:
                    module = ast.parse(handle.read(), full)
                walk(module, os.path.relpath(full, root), "")
    return found


def read_list(path: str) -> Dict[str, str]:
    """``path:Qualname`` or ``path:Qualname(param)`` -> owner, from a
    committed census list."""
    owners: Dict[str, str] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                name, owner = line.split()
                owners[name] = owner
    return owners


def census() -> Tuple[List[str], List[str]]:
    """The sorted list of unreached ``path:Qualname`` and unmoved
    ``path:Qualname(param)`` names, and the legs that failed (a failed
    leg's record is not trusted)."""
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tree:
        records = os.path.join(tree, "records")
        os.makedirs(records)
        copy_tree(tree)
        reached: Set[str] = set()
        moved: Set[str] = set()
        failures: List[str] = []
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(run_leg, tree, records, name, argv)
                       for name, argv in legs(tree)]
            for future in concurrent.futures.as_completed(futures):
                name, seen, leg_moved, error = future.result()
                reached |= seen
                moved |= leg_moved
                print(f"leg {name}: {len(seen)} functions, "
                      f"{len(leg_moved)} parameters moved"
                      + (f" FAILED ({error})" if error else ""),
                      file=sys.stderr)
                if error:
                    failures.append(name)
        names: List[str] = []
        for line, (name, defaulted) in defs(tree).items():
            if line not in reached:
                names.append(name)
            elif line not in moved:
                names += [f"{name}({param})" for param in defaulted
                          if f"{line} {param}" not in moved]
    return sorted(names), failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="LIST",
                        help="exit 1 unless the census names exactly the "
                        "functions and parameters LIST names")
    args = parser.parse_args(argv)
    measured, failures = census()
    if failures:
        print(f"error: {len(failures)} leg(s) failed: "
              + ", ".join(sorted(failures)), file=sys.stderr)
        return 1
    path = args.check or LIST
    owners = read_list(path) if os.path.exists(path) else {}
    if args.check is None:
        for name in measured:
            print(f"{name}  {owners.get(name, 'UNOWNED')}")
        return 0
    listed = sorted(owners)
    if listed == measured:
        kept = sum(name.endswith(")") for name in measured)
        print(f"reach census: {len(measured) - kept} unreached functions, "
              f"{kept} unmoved parameters, all listed")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [name + "\n" for name in listed],
        [name + "\n" for name in measured],
        args.check, "measured"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
