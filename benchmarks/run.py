"""Run one benchmark workload against the weibsup sources in ``src/``.

    python3 benchmarks/run.py --workload main_l2_m512 --seed 1 --seconds 38 --trace 0

Untraced (``--trace 0``) it prints the end-to-end metrics, traced
(``--trace 1``) the per-layer metrics; either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for the workloads and metrics.

The workload runs in one child process with BLAS pinned to one thread.
``setup_s`` is the median over that process and SETUP_PROBES further fresh
processes that stop once their inputs are ready.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

WORKLOADS = ("main_l2_m512", "r1_linf_m256", "mc_drivers")
DEFAULT_WORKERS = {"main_l2_m512": 1, "r1_linf_m256": 1, "mc_drivers": 2}
SETUP_PROBES = 3
# every run must end within this many seconds of starting
TIME_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("out of time before starting the workload process")
    cmd = [sys.executable, str(CHILD), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"workload process exceeded {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError("workload process printed no result")
    return json.loads(lines[-1])


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="run length of the timed executions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="weibsup --workers value (default: 1, or 2 for mc_drivers)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code paths on small inputs (smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must lie in [1, 120]")
    if args.workers is None:
        args.workers = DEFAULT_WORKERS[args.workload]
    if args.workers < 1:
        ap.error("--workers must be at least 1")
    return args


def main(argv: list[str]) -> int:
    started = time.monotonic()
    args = parse(argv)
    if not (ROOT / "src" / "weibsup" / "__init__.py").is_file():
        print(f"error: no weibsup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = started + TIME_LIMIT_S
    common = ["--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
              "--workers", str(args.workers)]
    try:
        probes = [] if args.trace else [
            run_child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        res = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except ChildError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    setups = probes + [res["setup_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    failed_frac = res["failed"] / res["attempted"]
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setups, "failed_frac": failed_frac,
        "metrics": metrics, **{k: v for k, v in res.items() if k != "per_layer"},
    }
    (OUT / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    env = res["env"]
    blas = env["blas"]
    print(f"workload {args.workload} ({args.size}) seed {args.seed} workers {args.workers} "
          f"blas {blas['name']} {blas['version']} threads {blas['threads']} nproc {env['nproc']}")
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"  {'setup_s':<36} {values['setup_s']:.4f} s  (median of {len(setups)} processes)")
    print(f"  {'wall_s':<36} {values['wall_s']:.4f} s  (median of {len(res['walls_s'])} executions)")
    print(f"  {'peak_rss_mb':<36} {values['peak_rss_mb']:.1f} MB")
    print(f"  {'failed_frac':<36} {failed_frac:.4f} ratio  ({res['failed']}/{res['attempted']} units)")
    if args.trace:
        print(f"  per layer, median of {len(res['traced_walls_s'])} traced executions:")
        for name, unit in tracing.PER_LAYER:
            print(f"  {name:<36} {res['per_layer'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
