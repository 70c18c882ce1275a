"""Verification experiments: instance families, run configs, and reports.

Every experiment is a pure function of its config including the seed, and
report files exclude wall-clock timing so re-runs are byte-identical.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .core import (
    Metric,
    PointSet,
    RandomStream,
    _check_workers,
    _power,
    _unit_scaled,
    load_points_csv,
)
from .gamma import (
    build_greedy_tree,
    chaining_bound,
    gamma_from_tree,
    intersect_trees,
)
from .laws import (
    conjugate_exponent,
    sup_norm_moment_bound,
    exact_abs_moment,
    lp_norm_moment_bound,
)
from .mcsup import (
    Driver,
    SupEstimate,
    _mc_mean,
    esup_mc,
    esup_permuted_prefixes,
)
# nothing here calls it, but benchmarks/tracing.py wraps this binding and fails on a
# name the module does not define
from .mcsup import esup_permuted_weighted  # noqa: F401
from .transforms import _EPI_METHODS, EpiGamma2, epi_gamma2, weights

__all__ = [
    "ConfigError",
    "InstanceFamily",
    "RunConfig",
    "BoundReport",
    "standard_suite",
    "verify_main_bound",
    "verify_r1_bound",
    "counterexample_run",
    "truncation_check",
    "moment_check",
    "run",
    "write_reports_json",
    "write_reports_csv",
    "reports_json_text",
]

DEFAULT_WINDOW = (1.0 / 64.0, 64.0)
DEFAULT_SAMPLES = 20_000
DEFAULT_NUM_PERMS = 20

# the parameters of each family kind, in the order of its compact spec
_FAMILY_KINDS = {
    "hypercube_subset": ("n", "m"),
    "gaussian_cloud": ("n", "m", "scale"),
    "scaled_basis": ("n", "decay"),
    "csv_file": ("path",),
}
# the type of every family key but kind: a compact spec's text is converted to it,
# and a config value must be of it (an int will do for a float) or, but for seed, null
_FAMILY_KEYS = {"seed": int, "n": int, "m": int, "scale": float, "decay": str, "path": str}
# the coordinates of each scaled_basis decay, as a function of the array k = 1..n
_DECAYS = {"harmonic": lambda k: 1.0 / k, "sqrt": lambda k: 1.0 / np.sqrt(k), "none": np.ones_like}
# r range of each experiment, as (lo, hi, closed): the range its bound is stated on
_R_RANGES = {
    "main_bound": (0.0, 2.0, False),
    "r1_bound": (1.0, 2.0, True),
    "counterexample": (0.0, 1.0, False),
}
_EXPERIMENTS = tuple(_R_RANGES)


class ConfigError(ValueError):
    """A run configuration is malformed."""


def _check_r(experiment: str, r: float) -> None:
    lo, hi, closed = _R_RANGES[experiment]
    if not (lo <= r <= hi if closed else lo < r < hi):
        interval = f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})"
        raise ConfigError(f"{experiment} needs r in {interval}, got {r}")


def _typed(data: dict[str, Any], key: str, kinds: tuple[type, ...], default: Any = None) -> Any:
    """data[key], or ``default`` when absent; a present value must be one of ``kinds``.

    JSON booleans are not numbers here, although Python's bool is an int.
    """
    if key not in data:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise ConfigError(f"{key} must be of type {names}, got {value!r}")
    return value


def _numbers(data: dict[str, Any], key: str, default: Any = None) -> tuple[float, ...]:
    values = _typed(data, key, (list,), default)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(float(x) for x in values)


@dataclass(frozen=True)
class InstanceFamily:
    """Deterministic generator of one point set from (kind, parameters, seed)."""

    kind: str
    seed: int = 0
    n: int | None = None
    m: int | None = None
    scale: float | None = None
    decay: str | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _FAMILY_KINDS:
            raise ConfigError(f"unknown family kind {self.kind!r}")
        # every kind takes a seed, and scaled_basis may restate its m = n points
        takes = {"seed", *_FAMILY_KINDS[self.kind]}
        if self.kind == "scaled_basis":
            takes.add("m")
        stray = [key for key in _FAMILY_KEYS if key not in takes and getattr(self, key) is not None]
        if stray:
            raise ConfigError(f"{self.kind} takes no {', '.join(stray)}")
        if self.kind == "hypercube_subset":
            if self.n is None or self.n < 1:
                raise ConfigError("hypercube_subset needs n >= 1")
            if self.m is None or not 1 <= self.m <= 2**min(self.n, 62):
                raise ConfigError("hypercube_subset needs 1 <= m <= 2^n")
        elif self.kind == "gaussian_cloud":
            if self.n is None or self.n < 1 or self.m is None or self.m < 1:
                raise ConfigError("gaussian_cloud needs n >= 1 and m >= 1")
            if self.scale is None:
                object.__setattr__(self, "scale", 1.0)
            if not 0.0 < self.scale < math.inf:
                raise ConfigError(f"gaussian_cloud needs a finite scale > 0, got {self.scale}")
        elif self.kind == "scaled_basis":
            if self.n is None or self.n < 1:
                raise ConfigError("scaled_basis needs n >= 1")
            if self.decay is None:
                object.__setattr__(self, "decay", "harmonic")
            if not isinstance(self.decay, str) or self.decay not in _DECAYS:
                raise ConfigError(f"scaled_basis decay must be one of {tuple(_DECAYS)}")
            if self.m is not None and self.m != self.n:
                raise ConfigError("scaled_basis has m = n points")
        elif self.kind == "csv_file":
            if not self.path:
                raise ConfigError("csv_file needs a path")

    def descriptor(self) -> str:
        """``kind(key=value,...)#seed=N``, the kind's keys in spec order and a float as
        ``:g``; a csv_file is ``csv_file(path)#seed=N``."""
        if self.kind == "csv_file":
            return f"csv_file({self.path})#seed={self.seed}"
        spec = ",".join(
            f"{key}={format(getattr(self, key), 'g' if _FAMILY_KEYS[key] is float else '')}"
            for key in _FAMILY_KINDS[self.kind]
        )
        return f"{self.kind}({spec})#seed={self.seed}"

    def materialize(self) -> PointSet:
        if self.kind == "csv_file":
            return load_points_csv(self.path)
        rng = RandomStream(self.seed).generator()
        if self.kind == "hypercube_subset":
            if self.n > 24:
                raise ConfigError("hypercube_subset materialization is limited to n <= 24")
            codes = rng.choice(2**self.n, size=self.m, replace=False)
            bits = (codes[:, None] >> np.arange(self.n)[None, :]) & 1
            pts = bits.astype(np.float64) * 2.0 - 1.0
        elif self.kind == "gaussian_cloud":
            with np.errstate(over="ignore"):  # an overflow leaves inf, checked below
                pts = rng.standard_normal((self.m, self.n)) * self.scale
            if not np.isfinite(pts).all():
                raise ConfigError(
                    f"gaussian_cloud coordinates at scale {self.scale} overflow float64"
                )
        else:
            pts = np.diag(_DECAYS[self.decay](np.arange(1.0, self.n + 1.0)))
        return PointSet(pts, label=self.descriptor())

    @classmethod
    def from_dict(cls, data: dict[str, Any], default_seed: int = 0) -> "InstanceFamily":
        if not isinstance(data, dict):
            raise ConfigError(f"family entries must be objects, got {type(data).__name__}")
        unknown = set(data) - {"kind", *_FAMILY_KEYS}
        if unknown:
            raise ConfigError(f"unknown family keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("family entry is missing 'kind'")
        values = {}
        for key, typ in _FAMILY_KEYS.items():  # all but seed may be null
            kinds = ((int, float) if typ is float else (typ,)) + (type(None),) * (key != "seed")
            values[key] = _typed(data, key, kinds, default_seed if key == "seed" else None)
        return cls(kind=data["kind"], **values)

    @classmethod
    def from_spec(cls, text: str, seed: int = 0) -> "InstanceFamily":
        """Parse the compact CLI form ``kind(args)``, each arg positional or ``name=value``."""
        text = text.strip()
        if "(" not in text or not text.endswith(")"):
            raise ConfigError(f"bad family spec {text!r}; expected kind(args)")
        kind, arg_text = (part.strip() for part in text[:-1].split("(", 1))
        args = [a.strip() for a in arg_text.split(",")] if arg_text else []
        if kind not in _FAMILY_KINDS:
            raise ConfigError(f"unknown family kind {kind!r}")
        if len(args) > len(_FAMILY_KINDS[kind]):
            raise ConfigError(f"too many arguments for {kind}")
        data: dict[str, Any] = {}
        for name, raw in zip(_FAMILY_KINDS[kind], args):
            if "=" in raw:
                name, raw = (part.strip() for part in raw.split("=", 1))
                if name in ("kind", "seed"):
                    raise ConfigError(f"{name} cannot be set inside a family spec")
            if name in data:
                raise ConfigError(f"{name} is given twice in family spec {text!r}")
            typ = _FAMILY_KEYS.get(name, str)  # from_dict rejects an unknown name
            try:
                data[name] = typ(raw)
            except ValueError:
                raise ConfigError(f"{name} must be of type {typ.__name__}, got {raw!r}") from None
        return cls.from_dict(data | {"kind": kind}, default_seed=seed)


@dataclass(frozen=True)
class RunConfig:
    """One experiment over a grid of instance families and r values."""

    name: str
    families: tuple[InstanceFamily, ...]
    r_values: tuple[float, ...]
    samples: int = DEFAULT_SAMPLES
    num_perms: int = DEFAULT_NUM_PERMS
    gamma_method: str = "greedy_upper"
    window: tuple[float, float] = DEFAULT_WINDOW
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment name {self.name!r}; expected one of {_EXPERIMENTS}"
            )
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if self.num_perms < 1:
            raise ConfigError("num_perms must be at least 1")
        lo, hi = self.window
        if not (0.0 < lo < hi):
            raise ConfigError("window must be (lo, hi) with 0 < lo < hi")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in (f.name for f in fields(cls) if f.default is MISSING):
            if key not in data:
                raise ConfigError(f"config is missing required key {key!r}")
        seed = _typed(data, "seed", (int,), 0)
        families = tuple(
            InstanceFamily.from_dict(entry, default_seed=seed + i)
            for i, entry in enumerate(_typed(data, "families", (list,)))
        )
        window = _numbers(data, "window", DEFAULT_WINDOW)
        if len(window) != 2:
            raise ConfigError("window must have exactly two entries")
        gamma_method = data.get("gamma_method", "greedy_upper")
        if gamma_method not in _EPI_METHODS:
            raise ConfigError(
                f"unknown gamma_method {gamma_method!r}; expected one of {_EPI_METHODS}"
            )
        cfg = cls(
            name=data["name"],
            families=families,
            r_values=_numbers(data, "r_values"),
            samples=_typed(data, "samples", (int,), DEFAULT_SAMPLES),
            num_perms=_typed(data, "num_perms", (int,), DEFAULT_NUM_PERMS),
            gamma_method=gamma_method,
            window=window,  # type: ignore[arg-type]
            seed=seed,
            out=_typed(data, "out", (str, type(None))),
        )
        for r in cfg.r_values:
            _check_r(cfg.name, r)
        return cfg


@dataclass
class BoundReport:
    """All computed quantities for one verification instance.

    Ratio keys name their numerator and denominator explicitly, e.g.
    ``esup_weibull_over_epi_gamma2``.  ``wall_clock`` is excluded from
    canonical serialization so re-runs produce identical files.
    """

    instance: str
    r: float | None
    quantities: dict[str, float] = field(default_factory=dict)
    stderrs: dict[str, float] = field(default_factory=dict)
    ratios: dict[str, float | None] = field(default_factory=dict)
    flags: dict[str, str] = field(default_factory=dict)
    window: tuple[float, float] | None = None
    seed: int | None = None
    wall_clock: float | None = None

    def to_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        del doc["wall_clock"]
        return doc | {"window": list(self.window) if self.window else None}

    def violated(self) -> bool:
        return any(v in ("violation", "error") for v in self.flags.values())


def standard_suite(
    count: int = 20, n: int = 8, m: int = 32, scale: float = 1.0, base_seed: int = 1811
) -> list[PointSet]:
    """The fixed seeded suite used by cross-method consistency checks."""
    return [
        InstanceFamily("gaussian_cloud", seed=base_seed + i, n=n, m=m, scale=scale).materialize()
        for i in range(count)
    ]


def _window_flag(ratio: float | None, window: tuple[float, float]) -> str:
    if ratio is None:
        return "neutral"
    return "ok" if window[0] <= ratio <= window[1] else "violation"


def _ratio(numerator: float, denominator: float, noise: float = 0.0) -> float | None:
    """Quotient with an undefined-by-zero escape.

    A zero denominator with a numerator inside its own noise band (|num| <=
    3 * noise) is reported as None, to be flagged neutral rather than as a
    window violation; degenerate sets hit this on both sides.
    """
    if denominator == 0.0:
        if abs(numerator) <= 3.0 * noise:
            return None
        return math.copysign(math.inf, numerator)
    return numerator / denominator


class _Instance(NamedTuple):
    """One (family, r) cell of a config's grid, with its own random stream."""

    fam: InstanceFamily
    pset: PointSet
    r: float
    stream: RandomStream


_InstanceFn = Callable[[_Instance, RunConfig, int], BoundReport]


def _instance_grid(cfg: RunConfig) -> list[_Instance]:
    """Every instance of a config, in report order; every family is materialized
    once, and checked against the gamma method's size limit."""
    psets = [fam.materialize() for fam in cfg.families]
    for fam, pset in zip(cfg.families, psets):
        if cfg.gamma_method == "exact_small" and pset.m > 8:
            raise ConfigError(
                f"gamma_method exact_small is limited to m <= 8 points, {fam.descriptor()} "
                f"has m = {pset.m}"
            )
    root = RandomStream(cfg.seed)
    return [
        _Instance(fam, pset, r, root.child(i).child(j))
        for i, (fam, pset) in enumerate(zip(cfg.families, psets))
        for j, r in enumerate(cfg.r_values)
    ]


def _grid_reports(
    grid: list[_Instance], instance_fn: _InstanceFn, cfg: RunConfig, workers: int
) -> list[BoundReport]:
    """One report per instance, in grid order: the loop every config experiment runs."""
    return [instance_fn(inst, cfg, workers) for inst in grid]


def _recording(instance_fn: _InstanceFn) -> _InstanceFn:
    """``instance_fn``, with a failing instance recorded as an error report (and
    one stderr line) instead of raised, so that the instances after it still run."""

    def recorded(inst: _Instance, cfg: RunConfig, workers: int) -> BoundReport:
        try:
            return instance_fn(inst, cfg, workers)
        except Exception as exc:  # persist partial results with a marker
            print(f"error: instance {inst.fam.descriptor()} r={inst.r}: {exc}", file=sys.stderr)
            flags = {"run": "error", "error_message": f"{type(exc).__name__}: {exc}"}
            return BoundReport(inst.fam.descriptor(), inst.r, flags=flags, seed=cfg.seed)

    return recorded


def _bound_head(
    experiment: str, inst: _Instance, cfg: RunConfig, workers: int
) -> tuple[SupEstimate, EpiGamma2, BoundReport]:
    """What every bound instance computes: the Weibull esup on stream.child(0),
    then E_pi gamma_2(T_pi) on stream.child(1).  The report holds both; further
    quantities, ratios and flags are left to the caller."""
    pset, r, stream = inst.pset, inst.r, inst.stream
    _check_r(experiment, r)
    est = esup_mc(pset, Driver.weibull(r), cfg.samples, stream.child(0), workers)
    with warnings.catch_warnings():
        # at r = 2 (s = inf) the report flags the limiting 0/1 weights instead
        warnings.filterwarnings("ignore", "infinite weight exponent", UserWarning)
        epi = epi_gamma2(
            pset, conjugate_exponent(r), cfg.num_perms, cfg.gamma_method, stream.child(1),
            samples=cfg.samples, workers=workers,
        )
    report = BoundReport(
        instance=inst.fam.descriptor(),
        r=r,
        quantities={
            "esup_weibull": est.mean,
            "epi_gamma2": epi.mean,
            "epi_gamma2_spread": epi.spread,
        },
        stderrs={"esup_weibull": est.stderr},
        window=cfg.window,
        seed=cfg.seed,
    )
    return est, epi, report


def _main_bound_instance(inst: _Instance, cfg: RunConfig, workers: int) -> BoundReport:
    est, epi, report = _bound_head("main_bound", inst, cfg, workers)
    ratio = _ratio(est.mean, epi.mean, noise=est.stderr)
    report.ratios = {"esup_weibull_over_epi_gamma2": ratio}
    report.flags = {"window": _window_flag(ratio, cfg.window)}
    return report


def verify_main_bound(cfg: RunConfig, workers: int = 1) -> list[BoundReport]:
    """Ratio esup / E_pi gamma_2(T_pi) per instance, flagged against the window."""
    return _grid_reports(_instance_grid(cfg), _main_bound_instance, cfg, workers)


def _r1_set_quantities(
    pset: PointSet, r_values: Sequence[float]
) -> dict[float, tuple[float, float, float] | Exception]:
    """gamma_2(T, d_2), gamma_r(T, d_inf) and ``chaining_bound`` of the set for
    every r, or the exception that computing them raised for that r (kept
    without its traceback, which would keep this call's frames alive).  Both
    greedy trees, their intersection and the set's l2 and linf matrices are
    built on a private copy of the set and freed on return."""
    own = PointSet(pset.points, label=pset.label)
    try:
        tree_l2 = build_greedy_tree(own, Metric.l2())
        tree_linf = build_greedy_tree(own, Metric.linf())
        g2 = gamma_from_tree(tree_l2, 2.0, Metric.l2()).value
        both = intersect_trees(tree_l2, tree_linf)
    except Exception as exc:
        return dict.fromkeys(r_values, exc.with_traceback(None))
    by_r: dict[float, tuple[float, float, float] | Exception] = {}
    for r in r_values:
        try:
            gr = gamma_from_tree(tree_linf, r, Metric.linf()).value
            by_r[r] = g2, gr, chaining_bound(own, r, both)
        except Exception as exc:
            by_r[r] = exc.with_traceback(None)
    return by_r


def _r1_bound_instance(
    inst: _Instance, cfg: RunConfig, workers: int,
    by_set: dict[PointSet, dict[float, tuple[float, float, float] | Exception]],
) -> BoundReport:
    """One r1_bound report.  The gamma terms and the chaining bound depend on
    the set and r only: the first instance of a point set computes them for
    every r of the config into ``by_set``, keyed by the set, and the later ones
    read them there.  ``by_set`` keeps these numbers (or an r's exception, which
    only that r's instance raises), never a tree or a distance matrix, so a
    set's matrices are freed before the next instance's Monte Carlo passes."""
    pset, r = inst.pset, inst.r
    est, epi, report = _bound_head("r1_bound", inst, cfg, workers)
    if pset not in by_set:
        by_set[pset] = _r1_set_quantities(pset, cfg.r_values)
    terms = by_set[pset][r]
    if isinstance(terms, Exception):
        raise terms.with_traceback(None)
    g2, gr, chain = terms
    gamma_sum = g2 + gr
    report.quantities.update(
        gamma2_d2=g2, gamma_r_dinf=gr, gamma_sum=gamma_sum, chaining_bound=chain
    )
    ratio = _ratio(est.mean, gamma_sum, noise=est.stderr)
    dominated = est.mean <= chain + 3.0 * est.stderr
    report.ratios = {
        "esup_weibull_over_gamma_sum": ratio,
        "epi_gamma2_over_gamma_sum": _ratio(epi.mean, gamma_sum),
        "esup_weibull_over_chaining_bound": _ratio(est.mean, chain, noise=est.stderr),
    }
    report.flags = {
        "window": _window_flag(ratio, cfg.window),
        "chaining_dominates": "ok" if dominated else "violation",
    }
    if r == 2.0:  # s = inf
        report.flags["epi_weights"] = "limiting_0_1"
    return report


def verify_r1_bound(cfg: RunConfig, workers: int = 1) -> list[BoundReport]:
    """Compare esup to gamma_2(T,d_2) + gamma_r(T,d_inf) and to E_pi gamma_2(T_pi)."""
    instance_fn = functools.partial(_r1_bound_instance, by_set={})
    return _grid_reports(_instance_grid(cfg), instance_fn, cfg, workers)


def counterexample_run(r: float, n_list: Sequence[int]) -> list[BoundReport]:
    """Closed-form divergence of gamma_r(T, d_inf) / E sup on full hypercubes.

    For T = {-1,1}^n the expected supremum is exactly n * Gamma(1 + 1/r),
    while at level k = floor((r+1)/2 * log2 n) some cell still holds two
    points, forcing gamma_r(T, d_inf) > 2 * 2^(k/r) > 2^(1-1/r) n^((r+1)/(2r)).
    The simplified ratio grows like n^((r+1)/(2r) - 1), strictly in n.
    """
    _check_r("counterexample", r)
    reports: list[BoundReport] = []
    previous: float | None = None
    for n in n_list:
        n = int(n)
        if n < 16 or n & (n - 1):
            raise ValueError(f"counter-example sizes must be powers of 2 >= 16, got {n}")
        log2n = math.log2(n)
        k = math.floor((r + 1.0) / 2.0 * log2n)
        at = f"at r={r}, n={n}"
        esup_closed = n * exact_abs_moment(r, 1.0)
        gamma_r_lower = 2.0 * _power(2.0, k / r, f"2^(k/r) {at}")
        simplified_lower = 2.0 ** (1.0 - 1.0 / r) * _power(
            n, (r + 1.0) / (2.0 * r), f"n^((r+1)/(2r)) {at}"
        )
        # a finite power can still overflow once multiplied
        for name, value in (("esup_closed", esup_closed), ("gamma_r_lower", gamma_r_lower)):
            if value == math.inf:
                raise ValueError(f"{name} {at} overflows float64")
        ratio_simplified = simplified_lower / esup_closed
        ratio_floor = gamma_r_lower / esup_closed
        monotone = previous is None or ratio_simplified > previous
        reports.append(
            BoundReport(
                instance=f"hypercube(n={n})",
                r=r,
                quantities={
                    "esup_closed": esup_closed,
                    "k_level": float(k),
                    "gamma_r_lower": gamma_r_lower,
                    "simplified_lower": simplified_lower,
                },
                ratios={
                    "gamma_r_lower_over_esup": ratio_floor,
                    "simplified_lower_over_esup": ratio_simplified,
                },
                flags={
                    "ratio_strictly_increasing": "ok" if monotone else "violation",
                    "k_below_log2_n": "ok" if k < log2n else "violation",
                },
            )
        )
        previous = ratio_simplified
    return reports


def truncation_check(cfg: RunConfig, theta: float, workers: int = 1) -> list[BoundReport]:
    """Compare the full permuted-weight supremum against its theta-prefix.

    One draw of (g, pi) per sample serves both prefixes, so theta = 1
    reproduces the full estimator bit for bit and the ratio is exactly 1.
    The recorded ratio is the empirical truncation constant; nothing is
    asserted against it.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")

    def truncation_instance(inst: _Instance, cfg: RunConfig, workers: int) -> BoundReport:
        pset, r, stream = inst.pset, inst.r, inst.stream
        n = pset.dim
        if n < 2.0 / theta:
            raise ValueError(f"truncation needs n >= 2/theta = {2.0 / theta:g}, got n={n}")
        prefix = math.ceil(theta * n)
        a = weights(n, conjugate_exponent(r)).w
        full, part = esup_permuted_prefixes(pset, a, (n, prefix), cfg.samples, stream, workers)
        ratio = _ratio(full.mean, part.mean, noise=full.stderr)
        return BoundReport(
            instance=inst.fam.descriptor(),
            r=r,
            quantities={
                "esup_full": full.mean,
                "esup_prefix": part.mean,
                "theta": theta,
                "prefix_len": float(prefix),
            },
            stderrs={"esup_full": full.stderr, "esup_prefix": part.stderr},
            ratios={"esup_full_over_esup_prefix": ratio},
            flags={"window": "neutral" if ratio is None else "recorded"},
            seed=cfg.seed,
        )

    return _grid_reports(_instance_grid(cfg), truncation_instance, cfg, workers)


def _scaled_back(value: float, exp: int, name: str) -> float:
    """value times 2^exp; a ValueError naming ``name`` where that overflows float64."""
    try:
        return math.ldexp(value, exp)
    except OverflowError:
        raise ValueError(f"{name} overflows float64") from None


def moment_check(
    t: Sequence[float],
    r: float,
    p_list: Sequence[float],
    samples: int,
    stream: RandomStream,
    workers: int = 1,
) -> list[BoundReport]:
    """Monte Carlo p-norms of sum_k t_k X_k against both moment functionals.

    The recorded ratios are one-sided constants (MC over bound); they are
    reported, not asserted.
    """
    tv = np.asarray(t, dtype=np.float64)
    if tv.ndim != 1 or tv.size == 0:
        raise ValueError("t must be a nonempty vector")
    if not np.isfinite(tv).all():
        raise ValueError(f"t entries must be finite, got {tv[~np.isfinite(tv)][0]}")
    for p in p_list:
        if not 2.0 <= p < math.inf:
            raise ValueError(f"moment orders must be finite and >= 2, got {p}")
    # the p-norm and both bounds are homogeneous in t: they are taken at t times the
    # 2^-e that puts its largest |t_k| in [1/2, 1), where no p-th power of a draw
    # underflows or overflows, and scaled back
    tu, exp = _unit_scaled(tv)
    exp = exp.item()
    reports: list[BoundReport] = []
    for idx, p in enumerate(p_list):

        def block_powers(rng: np.random.Generator, rows: int) -> np.ndarray:
            x = Driver.weibull(r).coefficients(rng, rows, tu.size)
            return np.abs(x @ tu) ** p

        mean_pow, se_pow = _mc_mean(block_powers, samples, stream.child(idx), workers, tu.size)
        norm = mean_pow ** (1.0 / p)
        cor = sup_norm_moment_bound(tu, p, r).value
        lp_bound = lp_norm_moment_bound(tu, p, r).value
        # the stderr's ratio to the norm is in range wherever the two are
        mc_se = norm * (se_pow / mean_pow) / p if mean_pow else 0.0
        reports.append(
            BoundReport(
                instance=f"vector(dim={tv.size})",
                r=r,
                quantities={
                    "p": float(p),
                    "mc_norm": _scaled_back(norm, exp, f"mc_norm at p={p}"),
                    "sup_norm_bound": _scaled_back(cor, exp, f"sup_norm_bound at p={p}"),
                    "lp_norm_bound": _scaled_back(lp_bound, exp, f"lp_norm_bound at p={p}"),
                },
                stderrs={"mc_norm": _scaled_back(mc_se, exp, f"the mc_norm stderr at p={p}")},
                ratios={
                    "mc_norm_over_sup_norm_bound": _ratio(norm, cor),
                    "mc_norm_over_lp_norm_bound": _ratio(norm, lp_bound),
                },
                flags={"window": "recorded"},
                seed=stream.seed,
            )
        )
    return reports


def _config_echo(cfg: RunConfig) -> dict[str, Any]:
    """The config as its report repeats it: all but out, each family by its descriptor."""
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "out"}
    return echo | {"families": [fam.descriptor() for fam in cfg.families]}


def _json_text(doc: Any) -> str:
    """The canonical JSON text of every report and CLI document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reports_json_text(reports: Sequence[BoundReport], config: dict[str, Any] | None = None) -> str:
    return _json_text({"config": config, "reports": [rep.to_dict() for rep in reports]})


def write_reports_json(
    reports: Sequence[BoundReport], path: str, config: dict[str, Any] | None = None
) -> None:
    with open(path, "w") as fh:
        fh.write(reports_json_text(reports, config))


def write_reports_csv(reports: Sequence[BoundReport], path: str) -> None:
    """Flatten reports to one row per (instance, r); columns are the sorted
    union of quantity, stderr, ratio and flag names."""
    import csv as _csv

    parts = {"quantities": "", "stderrs": "stderr_", "ratios": "ratio_", "flags": "flag_"}
    keys = {part: sorted({k for rep in reports for k in getattr(rep, part)}) for part in parts}
    header = [pre + k for part, pre in parts.items() for k in keys[part]]
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["instance", "r", *header])
        for rep in reports:
            cells = [getattr(rep, part).get(k, "") for part in parts for k in keys[part]]
            writer.writerow([rep.instance, rep.r, *cells])


def _counterexample_from_config(cfg: RunConfig) -> list[BoundReport]:
    if any(fam.kind != "hypercube_subset" for fam in cfg.families):
        raise ConfigError("counterexample configs use hypercube_subset families as size carriers")
    n_list = [fam.n for fam in cfg.families]
    return [rep for r in cfg.r_values for rep in counterexample_run(r, n_list)]


def _report_temp(out_path: str) -> tuple[TextIO, str]:
    """A new file beside ``out_path`` and its name, to be moved onto ``out_path``
    once the report in it is whole.  An OSError names ``out_path``, as opening
    that path for writing would."""
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    head, tail = os.path.split(out_path)
    tmp_path = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        return open(tmp_path, "x"), tmp_path
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out_path) from None


def run(config_path: str, workers: int = 1, overrides: dict[str, Any] | None = None) -> int:
    """Execute every configured experiment instance; nonzero on any violation.

    Everything that can fail before an instance runs is checked first:
    reading and parsing the config, ``overrides`` (top-level values such as
    samples, num_perms, seed or out, applied before validation), validation,
    the worker count, materializing every family and creating the report's
    temporary file beside it.  Any of these failures prints one
    ``error: <config>: <reason>`` line and yields exit status 2 with no report
    written.  Instance failures are recorded with an error marker and the
    partial report is still persisted (exit status 1).  The report replaces the
    file at its path only once it is whole: an interrupt leaves that file as it
    was, removes the temporary one, prints ``error: <config>: interrupted`` and
    yields exit status 130.
    """
    try:
        with open(config_path) as fh:
            data = json.load(fh)
        if overrides and isinstance(data, dict):  # any other root is rejected below
            data = data | {k: v for k, v in overrides.items() if v is not None}
        cfg = RunConfig.from_dict(data)
        _check_workers(workers)
        if cfg.name == "counterexample":
            reports, grid = _counterexample_from_config(cfg), []
        else:
            reports, grid = [], _instance_grid(cfg)
        out_path = cfg.out or f"{cfg.name}_report.json"
        report_file, tmp_path = _report_temp(out_path)
    except (OSError, ValueError) as exc:  # JSONDecodeError and ConfigError are ValueErrors
        print(f"error: {config_path}: {exc}", file=sys.stderr)
        return 2

    if cfg.name == "main_bound":
        instance_fn = _main_bound_instance
    else:
        instance_fn = functools.partial(_r1_bound_instance, by_set={})
    try:
        with report_file:
            reports += _grid_reports(grid, _recording(instance_fn), cfg, workers)
            report_file.write(reports_json_text(reports, _config_echo(cfg)))
        os.replace(tmp_path, out_path)
    except KeyboardInterrupt:
        print(f"error: {config_path}: interrupted", file=sys.stderr)
        return 130
    finally:
        with contextlib.suppress(FileNotFoundError):  # gone once replaced
            os.remove(tmp_path)
    failed = any(rep.flags.get("run") == "error" for rep in reports)
    violations = sum(rep.violated() for rep in reports)
    for rep in reports:
        status = "FAIL" if rep.violated() else "ok"
        print(f"[{status}] {rep.instance} r={rep.r} {rep.ratios}")
    print(f"wrote {out_path} ({len(reports)} instances, {violations} flagged)")
    return 1 if failed or violations else 0
