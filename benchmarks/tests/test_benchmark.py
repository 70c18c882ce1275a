"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, tracing
transparency, the output check's tolerance, and a tiny smoke run of every
workload.  Run with ``python -m pytest benchmarks/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from tracing import Span, Tracer, Wrap

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent


def test_self_time_of_nested_spans_from_two_threads():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "a.child", 2.0, 3.0, 1, 1),
        # a second thread's child overlaps the first child: covered is [1, 6]
        Span(3, "b", 3.0, 6.0, 0, 2),
        # a child running past its parent's end counts only inside the parent
        Span(4, "late", 9.0, 12.0, 0, 2),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        Span(0, "mcsup.estimator", 0.0, 4.0, None, 1, {"kind": "weibull", "samples": 1000}),
        Span(1, "mcsup.coefficients", 0.5, 2.5, 0, 2),
        Span(2, "mcsup.coefficients", 1.5, 3.0, 0, 3),
        Span(3, "laws.sample", 0.5, 1.5, 1, 2, {"variates": 64}),
        Span(4, "core.pdist", 5.0, 6.0, None, 1, {"metric": "l2", "m": 4, "n": 2, "set": "x", "peak_bytes": 2**20}),
        Span(5, "core.pdist", 6.0, 6.5, None, 1, {"metric": "linf", "m": 4, "n": 2, "set": "x", "peak_bytes": 0}),
    ]
    m = tracing.layer_metrics(spans, instances=3)
    assert set(m) == {name for name, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert m["mcsup.coeff_s"] == pytest.approx(3.5)  # busy time summed over threads
    assert m["mcsup.reduce_s"] == pytest.approx(4.0 - 2.5)  # children cover [0.5, 3.0]
    assert m["mcsup.draws_per_s.weibull"] == pytest.approx(250.0)
    assert m["mcsup.draws_per_s.gaussian"] == 0.0
    assert m["laws.variates"] == 64
    assert m["core.pdist.builds_per_set"] == 2.0
    assert m["core.pdist.l2_s"] == pytest.approx(1.0)
    assert m["core.pdist.linf_s"] == pytest.approx(0.5)
    assert m["core.pdist.bytes"] == 2 * 4 * 4 * 2 * 8
    assert m["core.pdist.peak_mb"] == 1.0
    assert m["harness.instances"] == 3


def test_pool_thread_span_takes_the_owner_thread_open_span_as_parent(monkeypatch):
    module = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(module.leaf, range(n)))

    module.leaf, module.outer = leaf, outer
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()
    specs = (Wrap("fake_layer", "leaf", "leaf"), Wrap("fake_layer", "outer", "outer"))
    with tracer.installed(specs):
        assert module.outer(6) == [1, 2, 3, 4, 5, 6]
    assert module.leaf is leaf and module.outer is outer
    (root,) = [s for s in tracer.spans if s.name == "outer"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 6
    assert all(s.parent == root.id for s in leaves)
    assert all(s.thread != threading.get_ident() for s in leaves)


def _originals():
    return {(w.target, w.attr): vars(tracing.resolve(w.target))[w.attr] for w in tracing.WRAPS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrappers_are_removed_after_a_traced_run(name, tmp_path):
    before = _originals()
    wl = workloads.make(name, "tiny", workloads.DEFAULT_SEED, 1, tmp_path)
    wl.setup()
    tracer = Tracer()
    with tracer.installed():
        assert all(vars(tracing.resolve(t))[a] is not f for (t, a), f in before.items())
        wl.execute()
    assert _originals() == before
    assert all(after is before[key] for key, after in _originals().items())
    assert tracer.spans

    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("interrupted traced run")
    assert all(after is before[key] for key, after in _originals().items())


def _gram_l2(original):
    def pdist(points, metric):
        if metric.p != 2.0:
            return original(points, metric)
        pts = np.asarray(getattr(points, "points", points), dtype=np.float64)
        sq = np.einsum("ij,ij->i", pts, pts)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T), 0.0)
        _, rows = np.unique(pts, axis=0, return_inverse=True)
        rows = rows.ravel()
        d2[rows[:, None] == rows[None, :]] = 0.0
        return np.sqrt(d2)

    return pdist


@pytest.mark.parametrize("name", ["main_l2_m512", "r1_linf_m256"])
def test_reference_check_accepts_a_gram_kernel_and_rejects_a_wrong_one(name, tmp_path, monkeypatch):
    import weibsup.gamma

    original = weibsup.gamma.pairwise_distance_matrix
    wl = workloads.make(name, "full", workloads.DEFAULT_SEED, 1, tmp_path)
    wl.setup()

    monkeypatch.setattr(weibsup.gamma, "pairwise_distance_matrix", _gram_l2(original))
    units, problems = wl.check(*wl.execute())
    assert units == 4 and not problems.by_unit

    # 0.1% off: caught at DET_RTOL, but inside the tie tolerance of the hypercube
    monkeypatch.setattr(weibsup.gamma, "pairwise_distance_matrix",
                        lambda points, metric: 1.001 * original(points, metric))
    _, problems = wl.check(*wl.execute())
    untied = {u for u in wl.expected_units() if not u.startswith(workloads.TIED_FAMILIES)}
    assert untied and set(problems.by_unit) == untied


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def _run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(workloads.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_smoke_run_passes_and_tracing_leaves_the_report_unchanged(name):
    untraced = _run(name, 0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] > 0
    assert set(untraced["metrics"]) == {m for m, _ in run.END_TO_END}
    traced = _run(name, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m for m, _ in tracing.PER_LAYER}
    report = run.OUT / f"report-{name}-tiny-seed{workloads.DEFAULT_SEED}-trace{{}}.json"
    assert Path(str(report).format(0)).read_bytes() == Path(str(report).format(1)).read_bytes()


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mc_drivers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
