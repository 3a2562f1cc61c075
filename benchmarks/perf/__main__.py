"""Entry point: ``python3 benchmarks/perf`` or ``python -m benchmarks.perf``.

With ``--workload`` this is the contract the driver runs: one workload in
this (fresh) interpreter, one JSON object as the last line of standard
output.  Without it, the whole suite runs -- every workload untraced and
traced, each in its own interpreter -- and lands in one result file that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _bootstrap() -> None:
    """Make ``benchmarks.perf`` and ``repro`` importable from a checkout.

    Run as a path, ``sys.path[0]`` is this directory, whose module names
    (``tracing``, ``probes``) must not shadow anything: replace it with
    the repository root.
    """
    if os.path.abspath(sys.path[0]) == HERE:
        sys.path[0] = ROOT
    elif ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    source = os.path.join(ROOT, "src")
    if source not in sys.path:
        sys.path.insert(1, source)


def _require_program() -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(
            "error: src/repro not found -- the benchmark measures the "
            "repository it is checked out in\n"
        )
        raise SystemExit(2)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Wall-clock benchmark of the simulator (host time; "
        "every simulated statistic is checked to repeat exactly).",
    )
    parser.add_argument("--workload", help="run this one workload and "
                        "print one JSON result line (the driver contract)")
    parser.add_argument("--seed", type=int, default=7,
                        help="the only source of randomness in the inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics only")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink inputs and probe loops (smoke test)")
    parser.add_argument("--detail", metavar="FILE",
                        help="with --workload: also write the full record "
                        "(raw samples, quartiles, failures) to FILE")
    parser.add_argument("--out", metavar="FILE",
                        help="suite: result file (default "
                        ".bench_out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two suite result files; exits 1 on "
                        "any regress")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite expected.json from seeds 7 and 11 at "
                        "--scale")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _bootstrap()
    _require_program()
    if args.compare:
        from benchmarks.perf import compare

        return compare.main(args.compare[0], args.compare[1])
    from benchmarks.perf import harness, suite
    from benchmarks.perf.workloads import WORKLOADS

    spec = harness.load_spec()
    seconds = (
        args.seconds if args.seconds is not None else spec["run_seconds"]
    )
    if args.rebaseline:
        return suite.rebaseline(args.scale)
    if args.workload is None:
        return suite.run(spec, args.seed, seconds, args.scale, args.out)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(
            f"error: unknown workload {args.workload!r} "
            f"(have: {', '.join(WORKLOADS)})\n"
        )
        return 2
    if args.trace:
        record = harness.trace(workload, args.seed, args.scale)
        declared = spec["per_layer"]
        for name in sorted(record["metrics"]):
            print(f"  {name:34s} {record['metrics'][name]:.6g}")
        print(f"  spans written to {record['trace_file']}")
    else:
        record = harness.measure(workload, args.seed, seconds, args.scale)
        declared = spec["end_to_end"]
        print("\n".join(harness.describe(record)))
    for failure in record["failures"]:
        sys.stderr.write(f"check failed: {failure}\n")
    if args.detail:
        suite.write_json(args.detail, record)
    print(harness.result_line(record, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
