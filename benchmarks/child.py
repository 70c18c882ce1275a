"""One workload process: set-up, a warm-up, then timed executions until the
run length is spent.  Started by run.py; prints one JSON line.

With ``--setup-only`` it stops once the inputs are ready and reports only
the set-up time, which run.py samples in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# importing weibsup and its CLI entry point is part of set-up
import weibsup
import weibsup.cli  # noqa: F401

import environment
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


@dataclass
class Execution:
    traced: bool
    wall_s: float
    code: int
    text: str
    tracer: tracing.Tracer | None


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def measure(workload, seconds: float, trace: bool) -> list[Execution]:
    """Execute while the next execution, as long as the last one, still ends
    within ``seconds``; with ``trace``, alternate untraced and traced
    executions, at least one of each."""
    runs: list[Execution] = []
    start = time.monotonic()
    traced = False
    while True:
        tracer = tracing.Tracer() if traced else None
        t = time.perf_counter()
        if tracer is not None:
            with tracer.installed():
                code, text = workload.execute()
        else:
            code, text = workload.execute()
        wall = time.perf_counter() - t
        runs.append(Execution(traced, wall, code, text, tracer))
        kinds = {run.traced for run in runs}
        if time.monotonic() - start + wall > seconds and len(kinds) == (2 if trace else 1):
            return runs
        if trace:
            traced = not traced


def main(argv: list[str]) -> int:
    args = parse(argv)
    src = (ROOT / "src").resolve()
    if Path(weibsup.__file__).resolve().parent.parent != src:
        print(f"error: weibsup imported from {weibsup.__file__}, not from {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.make(args.workload, args.size, args.seed, args.workers, workdir)
        workload.setup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        env = environment.record(args.workers, args.seed, ROOT)
        if env["blas"]["threads"] not in (None, 1):
            print(f"error: BLAS runs {env['blas']['threads']} threads, expected 1", file=sys.stderr)
            return 2
        warm = workloads.make(args.workload, "tiny", args.seed, args.workers, workdir / "warm")
        warm.setup()
        warm.execute()

        runs = measure(workload, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = failed = 0
        problems: list[str] = []
        for i, run in enumerate(runs):
            units, found = workload.check(run.code, run.text)
            attempted += units
            if run.text != runs[0].text:
                failed += units
                problems.append(f"execution {i} (traced={run.traced}) differs from execution 0")
            else:
                failed += min(units, len(found.by_unit))
                problems += [f"{unit}: {msg}" for unit, msgs in found.by_unit.items() for msg in msgs]

        untraced = [run.wall_s for run in runs if not run.traced]
        traced = [run for run in runs if run.traced]
        per_layer = None
        if traced:
            instances = workloads.instances(traced[0].text)
            rows = [tracing.layer_metrics(run.tracer.spans, instances) for run in traced]
            per_layer = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
            per_layer["trace.overhead_s"] = (
                statistics.median(run.wall_s for run in traced) - statistics.median(untraced)
            )
            spans = [
                {"execution": i, "spans": [asdict(span) for span in run.tracer.spans]}
                for i, run in enumerate(traced)
            ]
            (OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.json").write_text(json.dumps(spans))
        report = OUT / f"report-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(runs[-1].text)

        print(json.dumps({
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced),
            "walls_s": untraced,
            "traced_walls_s": [run.wall_s for run in traced],
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "per_layer": per_layer,
            "env": env,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
