"""Run every workload with several seeds and summarise each metric.

    python3 benchmarks/baseline.py --runs 10 --traced --out benchmarks/BENCH_baseline.json
    python3 benchmarks/baseline.py --runs 3 --workers 1 --workloads mc_drivers,main_l2_m512 \
        --out benchmarks/out/workers1.json

Each run is ``run.py --seed <s>`` with seeds 1..runs and the run length of
BENCHMARK.json; workloads alternate within each seed.  For every end-to-end
metric the summary gives the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_once(workload: str, seed: int, seconds: int, trace: int, workers: int | None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=240)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"result-{workload}-full-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
        "bound": bound, "spread_within_third_of_bound": None if bound is None else spread < bound / 3,
    }


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload (seed 1)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            runs[name].append(run_once(name, seed, args.seconds, 0, args.workers))
            m = runs[name][-1]["result"]["metrics"]
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v['value']:.4f}" for k, v in m.items()), flush=True)

    doc: dict = {"settings": {"runs": args.runs, "seconds": args.seconds, "workers": args.workers,
                              "seeds": list(range(1, args.runs + 1))},
                 "environment": None, "workloads": {}}
    for name in names:
        first = runs[name][0]["record"]
        doc["environment"] = {k: v for k, v in first["env"].items() if k not in ("seed", "workers")}
        results = [r["result"] for r in runs[name]]
        entry = {
            "workers": first["env"]["workers"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            entry["metrics"][metric] = {"unit": results[0]["metrics"][metric]["unit"],
                                        **summarise(values, bounds.get(metric))}
            s = entry["metrics"][metric]
            print(f"{name:<14} {metric:<12} median {s['median']:.4f} spread {s['spread']:.4f} bound {s['bound']}")
        if args.traced:
            traced = run_once(name, 1, args.seconds, 1, args.workers)
            entry["traced_seed1"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        doc["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
