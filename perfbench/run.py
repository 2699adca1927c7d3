"""Run one ProbLP benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lone_eval --seed 1 --seconds 10 --trace 0

Workloads: ``lone_eval``, ``open_mix`` and ``theta_tiles`` drive a
``problp serve --shards 1 --replicas 1`` subprocess built from the
checkout's ``src``; ``design_flow`` runs the designer path in process.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
traced layer breakdown. Every answer is checked against a direct engine
call. The report goes to standard output; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Fixed workload parameters live in ``perfbench/plan.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lone_eval", "open_mix", "theta_tiles", "design_flow")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            f"run from the root of a ProbLP checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    plan = json.loads((HERE / "plan.json").read_text())

    # Everything the run writes stays under the checkout: native builds,
    # the C compiler's temporaries and the server logs.
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    bench_cache = workdir / "bench-native"
    bench_cache.mkdir()
    os.environ["PROBLP_NATIVE_CACHE"] = str(bench_cache)
    os.environ.pop("PROBLP_BACKEND", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from problp_bench import report, workloads

    ctx = workloads.Context(ROOT, workdir, plan, args.seed, args.seconds)
    try:
        if args.workload == "design_flow":
            outcome = workloads.run_design(ctx, bool(args.trace))
        else:
            outcome = workloads.run_served(ctx, args.workload, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(f"# provenance {json.dumps(outcome.provenance, sort_keys=True)}")
    print(
        f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}: {plan['workloads'][args.workload]['why']}"
    )
    kind = "per-layer" if args.trace else "end-to-end"
    report.print_metrics(f"{args.workload} {kind} metrics", outcome.metrics,
                         outcome.notes)
    for title, rows in outcome.tables:
        report.print_layer_table(title, rows, plan["layers"])
    tally = outcome.tally
    verdict = "correct" if outcome.correct else "INCORRECT"
    print(
        f"== verdict: {verdict}; {tally.attempted} attempted, {tally.failed} "
        f"failed, fail_ratio {tally.fail_ratio:.6f} {dict(tally.reasons)}"
    )
    if outcome.invalid:
        print(f"== INVALID RUN: {outcome.invalid}")
    sys.stdout.flush()
    print(
        report.result_line(
            outcome.correct, tally.attempted, tally.failed, outcome.metrics
        )
    )
    return 0 if outcome.correct and not outcome.invalid else 1


if __name__ == "__main__":
    sys.exit(main())
