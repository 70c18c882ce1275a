"""The benchmark's workloads: inputs generated from a seed, one timed
execution through weibsup's public entry points, and the output check.

Each workload has a ``full`` shape, which the benchmark measures, and a
``tiny`` shape with the same code paths, used for warm-up and smoke tests.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path
from typing import Any

from weibsup import harness, mcsup
from weibsup.core import RandomStream

DEFAULT_SEED = 1
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Monte Carlo quantities agree with the reference when they differ by at most
# MC_Z combined standard errors, sqrt(se^2 + se_ref^2).
MC_Z = 4.0
# Deterministic quantities (no stderr in the report: gamma2_d2, gamma_r_dinf,
# gamma_sum, chaining_bound, epi_gamma2 and its spread under greedy_upper)
# agree within a relative tolerance set by how far a law-preserving kernel
# change can move them through tie-breaking (README.md, "Output check").
# Breaking every tie at random (1e-12 relative jitter on distances and norms,
# ten draws, default seed) moved the hypercube family's values by up to 4.1%:
# its points have exactly equal distances, so the greedy tree can change.
# Families without exact ties moved by at most 1e-12, and a Gram-form l2
# kernel moved nothing by more than 9e-16.
DET_RTOL = 1e-9
TIE_RTOL = 0.1
TIED_FAMILIES = ("hypercube_subset",)
# Ratios and sums that the report derives from its own quantities.
CONSISTENCY_RTOL = 1e-12
# Criterion 08's window for the representation ratio cond_gaussian / weibull.
REPRESENTATION_WINDOW = (1.0 / 16.0, 16.0)

VERIFY_SHAPES: dict[str, dict[str, dict[str, Any]]] = {
    "main_l2_m512": {
        "full": {
            "experiment": "main_bound",
            "families": [("gaussian_cloud", {"n": 64, "m": 512}), ("hypercube_subset", {"n": 16, "m": 512})],
            "r_values": [0.5, 1.0], "samples": 20_000, "num_perms": 4,
        },
        "tiny": {
            "experiment": "main_bound",
            "families": [("gaussian_cloud", {"n": 8, "m": 24}), ("hypercube_subset", {"n": 6, "m": 24})],
            "r_values": [0.5, 1.0], "samples": 2_000, "num_perms": 2,
        },
    },
    "r1_linf_m256": {
        "full": {
            "experiment": "r1_bound",
            "families": [("gaussian_cloud", {"n": 64, "m": 256}), ("scaled_basis", {"n": 256, "decay": "sqrt"})],
            "r_values": [1.0, 1.5], "samples": 20_000, "num_perms": 4,
        },
        "tiny": {
            "experiment": "r1_bound",
            "families": [("gaussian_cloud", {"n": 8, "m": 24}), ("scaled_basis", {"n": 24, "decay": "sqrt"})],
            "r_values": [1.0, 1.5], "samples": 2_000, "num_perms": 2,
        },
    },
}

MC_SHAPES: dict[str, dict[str, Any]] = {
    "full": {"n": 64, "m": 256, "draws": 200_000, "r": 0.5, "theta": 0.5},
    "tiny": {"n": 16, "m": 32, "draws": 10_000, "r": 0.5, "theta": 0.5},
}


def family_seed(seed: int, index: int) -> int:
    return seed * 100 + index + 1


def load_reference(workload: str) -> dict[str, Any] | None:
    """Outputs of the full-size workload at DEFAULT_SEED."""
    try:
        text = REFERENCES.read_text()
    except FileNotFoundError:
        return None
    return json.loads(text).get(workload)


def instances(text: str) -> int:
    """Harness reports in a workload's output."""
    return len(json.loads(text)["reports"])


class Problems:
    """Failed checks, keyed by the unit (instance or estimator call) they hit."""

    def __init__(self) -> None:
        self.by_unit: dict[str, list[str]] = {}

    def add(self, unit: str, message: str) -> None:
        self.by_unit.setdefault(unit, []).append(message)

    def close(self, unit: str, key: str, value: float, expected: float, rtol: float) -> None:
        if not abs(value - expected) <= rtol * abs(expected):
            self.add(unit, f"{key}={value!r} differs from {expected!r} beyond rtol {rtol:g}")

    def positive(self, unit: str, key: str, value: Any) -> None:
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
            self.add(unit, f"{key}={value!r} is not a finite positive number")


def compare_reference(
    problems: Problems, unit: str, key: str, value: float, se: float | None,
    ref_value: float, ref_se: float | None, rtol: float = DET_RTOL,
) -> None:
    if se is not None and ref_se is not None:
        tol = MC_Z * math.hypot(se, ref_se)
        if not abs(value - ref_value) <= tol:
            problems.add(unit, f"{key}={value!r} is more than {MC_Z:g} combined stderr "
                               f"from the reference {ref_value!r}")
    else:
        problems.close(unit, key, value, ref_value, rtol)


def check_report_entries(
    problems: Problems, entries: list[dict[str, Any]], reference: list[dict[str, Any]] | None
) -> None:
    """Reference comparison for BoundReport dicts: a quantity with a stderr
    is Monte Carlo, every other quantity is deterministic."""
    if reference is None:
        return
    ref_by = {(r["instance"], r["r"]): r for r in reference}
    for entry in entries:
        unit = f"{entry['instance']} r={entry['r']}"
        ref = ref_by.get((entry["instance"], entry["r"]))
        if ref is None:
            problems.add(unit, "no reference entry")
            continue
        if set(entry["quantities"]) != set(ref["quantities"]):
            problems.add(unit, "quantity names differ from the reference")
            continue
        rtol = TIE_RTOL if entry["instance"].startswith(TIED_FAMILIES) else DET_RTOL
        for key, value in entry["quantities"].items():
            compare_reference(problems, unit, key, value, entry["stderrs"].get(key),
                              ref["quantities"][key], ref["stderrs"].get(key), rtol)


class VerifyWorkload:
    """``harness.run`` on a generated main_bound or r1_bound config."""

    def __init__(self, name: str, size: str, seed: int, workers: int, workdir: Path) -> None:
        self.name, self.size, self.seed, self.workers = name, size, seed, workers
        self.shape = VERIFY_SHAPES[name][size]
        self.workdir = workdir
        self.config_path = workdir / f"{name}.config.json"
        self.report_path = workdir / f"{name}.report.json"

    def config(self) -> dict[str, Any]:
        shape = self.shape
        return {
            "name": shape["experiment"],
            "families": [
                {"kind": kind, "seed": family_seed(self.seed, i), **params}
                for i, (kind, params) in enumerate(shape["families"])
            ],
            "r_values": shape["r_values"],
            "samples": shape["samples"],
            "num_perms": shape["num_perms"],
            "gamma_method": "greedy_upper",
            "seed": self.seed,
            "out": str(self.report_path),
        }

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config(), indent=2))
        self.cfg = harness.RunConfig.from_dict(json.loads(self.config_path.read_text()))
        self.inputs = [fam.materialize() for fam in self.cfg.families]

    def execute(self) -> tuple[int, str]:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = harness.run(str(self.config_path), workers=self.workers)
        return code, self.report_path.read_text()

    def expected_units(self) -> list[str]:
        return [f"{fam.descriptor()} r={r}" for fam in self.cfg.families for r in self.cfg.r_values]

    def check(self, code: int, text: str) -> tuple[int, Problems]:
        expected = self.expected_units()
        problems = Problems()
        entries = json.loads(text)["reports"]
        seen = [f"{e['instance']} r={e['r']}" for e in entries]
        for unit in expected:
            if unit not in seen:
                problems.add(unit, "missing from the report")
        for unit in seen:
            if unit not in expected:
                problems.add(unit, "not in the generated config")
        if code != 0:
            for unit in expected:
                problems.add(unit, f"harness.run exited with {code}")
        for entry in entries:
            self._check_entry(problems, entry)
        if self.size == "full" and self.seed == DEFAULT_SEED:
            ref = load_reference(self.name)
            check_report_entries(problems, entries, ref["reports"] if ref else None)
        return len(expected), problems

    def _check_entry(self, problems: Problems, entry: dict[str, Any]) -> None:
        unit = f"{entry['instance']} r={entry['r']}"
        flags = entry["flags"]
        required_flags = ["window"] + (["chaining_dominates"] if self.shape["experiment"] == "r1_bound" else [])
        for flag in required_flags:
            if flags.get(flag) != "ok":
                problems.add(unit, f"flag {flag}={flags.get(flag)!r}")
        q, se, ratios = entry["quantities"], entry["stderrs"], entry["ratios"]
        names = ["esup_weibull", "epi_gamma2", "epi_gamma2_spread"]
        if self.shape["experiment"] == "r1_bound":
            names += ["gamma2_d2", "gamma_r_dinf", "gamma_sum", "chaining_bound"]
        for key in names:
            problems.positive(unit, key, q.get(key))
        problems.positive(unit, "stderr esup_weibull", se.get("esup_weibull"))
        if problems.by_unit.get(unit):
            return
        if q["epi_gamma2_spread"] < 1.0:
            problems.add(unit, "epi_gamma2_spread below 1")
        if self.shape["experiment"] == "main_bound":
            problems.close(unit, "esup_weibull_over_epi_gamma2", ratios["esup_weibull_over_epi_gamma2"],
                           q["esup_weibull"] / q["epi_gamma2"], CONSISTENCY_RTOL)
        else:
            problems.close(unit, "gamma_sum", q["gamma_sum"], q["gamma2_d2"] + q["gamma_r_dinf"], CONSISTENCY_RTOL)
            for ratio, num, den in (
                ("esup_weibull_over_gamma_sum", "esup_weibull", "gamma_sum"),
                ("epi_gamma2_over_gamma_sum", "epi_gamma2", "gamma_sum"),
                ("esup_weibull_over_chaining_bound", "esup_weibull", "chaining_bound"),
            ):
                problems.close(unit, ratio, ratios[ratio], q[num] / q[den], CONSISTENCY_RTOL)


class DriversWorkload:
    """``esup_mc`` under every driver and ``truncation_check`` at theta = 1/2."""

    name = "mc_drivers"

    def __init__(self, name: str, size: str, seed: int, workers: int, workdir: Path) -> None:
        self.size, self.seed, self.workers = size, seed, workers
        self.shape = MC_SHAPES[size]

    def setup(self) -> None:
        shape = self.shape
        self.family = harness.InstanceFamily(
            "gaussian_cloud", seed=family_seed(self.seed, 0), n=shape["n"], m=shape["m"]
        )
        self.inputs = self.family.materialize()
        self.drivers = [
            ("gaussian", mcsup.Driver.gaussian()),
            ("rademacher", mcsup.Driver.rademacher()),
            ("weibull", mcsup.Driver.weibull(shape["r"])),
            ("cond_gaussian", mcsup.Driver.cond_gaussian(shape["r"])),
        ]
        self.cfg = harness.RunConfig(
            name="main_bound", families=(self.family,), r_values=(shape["r"],),
            samples=shape["draws"], seed=self.seed,
        )

    def execute(self) -> tuple[int, str]:
        root = RandomStream(self.seed)
        estimates = {}
        for k, (label, driver) in enumerate(self.drivers):
            est = mcsup.esup_mc(self.inputs, driver, self.shape["draws"], root.child(k + 1), self.workers)
            estimates[label] = {"mean": est.mean, "stderr": est.stderr, "samples": est.samples}
        reports = harness.truncation_check(self.cfg, self.shape["theta"], self.workers)
        doc = {"esup_mc": estimates, "reports": [rep.to_dict() for rep in reports]}
        return 0, json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def check(self, code: int, text: str) -> tuple[int, Problems]:
        doc = json.loads(text)
        problems = Problems()
        est = doc["esup_mc"]
        labels = [label for label, _ in self.drivers]
        for label in labels:
            unit = f"esup_mc/{label}"
            if label not in est:
                problems.add(unit, "missing")
                continue
            problems.positive(unit, "mean", est[label]["mean"])
            problems.positive(unit, "stderr", est[label]["stderr"])
            if est[label]["samples"] != self.shape["draws"]:
                problems.add(unit, f"samples={est[label]['samples']}")
        if not problems.by_unit:
            g, rad = est["gaussian"], est["rademacher"]
            # contraction principle: E sup sum t eps <= sqrt(pi/2) E sup sum t g
            slack = MC_Z * math.hypot(rad["stderr"], math.sqrt(math.pi / 2.0) * g["stderr"])
            if not rad["mean"] <= math.sqrt(math.pi / 2.0) * g["mean"] + slack:
                problems.add("esup_mc/rademacher", "exceeds sqrt(pi/2) times the gaussian supremum")
            ratio = est["cond_gaussian"]["mean"] / est["weibull"]["mean"]
            lo, hi = REPRESENTATION_WINDOW
            if not lo <= ratio <= hi:
                problems.add("esup_mc/cond_gaussian", f"cond_gaussian/weibull = {ratio:g} outside [{lo:g}, {hi:g}]")
        reports = doc["reports"]
        if len(reports) != 1:
            problems.add("truncation_check", f"{len(reports)} reports, expected 1")
        for entry in reports:
            unit = f"{entry['instance']} r={entry['r']}"
            q = entry["quantities"]
            if entry["flags"].get("window") != "recorded":
                problems.add(unit, f"flag window={entry['flags'].get('window')!r}")
            for key in ("esup_full", "esup_prefix"):
                problems.positive(unit, key, q.get(key))
                problems.positive(unit, f"stderr {key}", entry["stderrs"].get(key))
            if q.get("prefix_len") != math.ceil(self.shape["theta"] * self.shape["n"]):
                problems.add(unit, f"prefix_len={q.get('prefix_len')!r}")
            if not problems.by_unit.get(unit):
                problems.close(unit, "esup_full_over_esup_prefix", entry["ratios"]["esup_full_over_esup_prefix"],
                               q["esup_full"] / q["esup_prefix"], CONSISTENCY_RTOL)
        ref = load_reference(self.name) if self.size == "full" and self.seed == DEFAULT_SEED else None
        if ref is not None:
            for label in labels:
                if label in est and label in ref["esup_mc"]:
                    compare_reference(problems, f"esup_mc/{label}", "mean", est[label]["mean"],
                                      est[label]["stderr"], ref["esup_mc"][label]["mean"],
                                      ref["esup_mc"][label]["stderr"])
            check_report_entries(problems, reports, ref["reports"])
        return len(labels) + 1, problems


def make(name: str, size: str, seed: int, workers: int, workdir: Path):
    """The workload run.py names; raises KeyError for an unknown name or size."""
    cls = DriversWorkload if name == "mc_drivers" else VerifyWorkload
    return cls(name, size, seed, workers, workdir)
