"""Verification experiments: instance families, run configs, and reports.

Every experiment is a pure function of its config including the seed, and
report files exclude wall-clock timing so re-runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from .core import Metric, PointSet, RandomStream, load_points_csv
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
from .mcsup import Driver, _mc_mean, esup_mc, esup_permuted_weighted
from .transforms import _EPI_METHODS, epi_gamma2, weights

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
_DECAYS = ("harmonic", "sqrt", "none")
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
        if self.kind not in _FAMILY_KINDS:
            raise ConfigError(f"unknown family kind {self.kind!r}")
        # scaled_basis may restate its m = n points
        stray = [
            key for key in ("n", "m", "scale", "decay", "path")
            if getattr(self, key) is not None and key not in _FAMILY_KINDS[self.kind]
            and (key, self.kind) != ("m", "scaled_basis")
        ]
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
            if not self.scale > 0.0:
                raise ConfigError("gaussian_cloud needs scale > 0")
        elif self.kind == "scaled_basis":
            if self.n is None or self.n < 1:
                raise ConfigError("scaled_basis needs n >= 1")
            if self.decay is None:
                object.__setattr__(self, "decay", "harmonic")
            if self.decay not in _DECAYS:
                raise ConfigError(f"scaled_basis decay must be one of {_DECAYS}")
            if self.m is not None and self.m != self.n:
                raise ConfigError("scaled_basis has m = n points")
        elif self.kind == "csv_file":
            if not self.path:
                raise ConfigError("csv_file needs a path")

    def descriptor(self) -> str:
        if self.kind == "hypercube_subset":
            core = f"hypercube_subset(n={self.n},m={self.m})"
        elif self.kind == "gaussian_cloud":
            core = f"gaussian_cloud(n={self.n},m={self.m},scale={self.scale:g})"
        elif self.kind == "scaled_basis":
            core = f"scaled_basis(n={self.n},decay={self.decay})"
        else:
            core = f"csv_file({self.path})"
        return f"{core}#seed={self.seed}"

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
            pts = rng.standard_normal((self.m, self.n)) * self.scale
        else:
            k = np.arange(1.0, self.n + 1.0)
            if self.decay == "harmonic":
                c = 1.0 / k
            elif self.decay == "sqrt":
                c = 1.0 / np.sqrt(k)
            else:
                c = np.ones_like(k)
            pts = np.diag(c)
        return PointSet(pts, label=self.descriptor())

    @classmethod
    def from_dict(cls, data: dict[str, Any], default_seed: int = 0) -> "InstanceFamily":
        if not isinstance(data, dict):
            raise ConfigError(f"family entries must be objects, got {type(data).__name__}")
        allowed = {"kind", "seed", "n", "m", "scale", "decay", "path"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown family keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("family entry is missing 'kind'")
        optional_int = (int, type(None))
        return cls(
            kind=data["kind"],
            seed=_typed(data, "seed", (int,), default_seed),
            n=_typed(data, "n", optional_int),
            m=_typed(data, "m", optional_int),
            scale=_typed(data, "scale", (int, float, type(None))),
            decay=data.get("decay"),
            path=_typed(data, "path", (str, type(None))),
        )

    @classmethod
    def from_spec(cls, text: str, seed: int = 0) -> "InstanceFamily":
        """Parse the compact CLI form, e.g. ``gaussian_cloud(16,64,1.5)``."""
        text = text.strip()
        if "(" not in text or not text.endswith(")"):
            raise ConfigError(f"bad family spec {text!r}; expected kind(args)")
        kind, _, arg_text = text[:-1].partition("(")
        kind = kind.strip()
        args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
        kwargs: dict[str, Any] = {"kind": kind, "seed": seed}
        positional = _FAMILY_KINDS.get(kind)
        if positional is None:
            raise ConfigError(f"unknown family kind {kind!r}")
        if len(args) > len(positional):
            raise ConfigError(f"too many arguments for {kind}")
        for name, raw in zip(positional, args):
            if "=" in raw:
                name, raw = (part.strip() for part in raw.split("=", 1))
            if name in ("n", "m"):
                kwargs[name] = int(raw)
            elif name == "scale":
                kwargs[name] = float(raw)
            else:
                kwargs[name] = raw
        return cls(**kwargs)


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
        allowed = {
            "name", "families", "r_values", "samples", "num_perms",
            "gamma_method", "window", "seed", "out",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("name", "families", "r_values"):
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
        return {
            "instance": self.instance,
            "r": self.r,
            "quantities": dict(self.quantities),
            "stderrs": dict(self.stderrs),
            "ratios": dict(self.ratios),
            "flags": dict(self.flags),
            "window": list(self.window) if self.window else None,
            "seed": self.seed,
        }

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


def _instance_grid(
    cfg: RunConfig,
) -> Iterator[tuple[InstanceFamily, PointSet, float, RandomStream]]:
    """(family, set, r, stream) for every instance of a config, in report order; every
    family is materialized once, and checked against the gamma method's size limit,
    before the first instance is yielded."""
    psets = [fam.materialize() for fam in cfg.families]
    for fam, pset in zip(cfg.families, psets):
        if cfg.gamma_method == "exact_small" and pset.m > 8:
            raise ConfigError(
                f"gamma_method exact_small is limited to m <= 8 points, {fam.descriptor()} "
                f"has m = {pset.m}"
            )
    root = RandomStream(cfg.seed)
    for i, (fam, pset) in enumerate(zip(cfg.families, psets)):
        for j, r in enumerate(cfg.r_values):
            yield fam, pset, r, root.child(i).child(j)


def _main_bound_instance(
    fam: InstanceFamily,
    pset: PointSet,
    r: float,
    cfg: RunConfig,
    stream: RandomStream,
    workers: int = 1,
) -> BoundReport:
    _check_r("main_bound", r)
    est = esup_mc(pset, Driver.weibull(r), cfg.samples, stream.child(0), workers)
    s = conjugate_exponent(r)
    epi = epi_gamma2(
        pset, s, cfg.num_perms, cfg.gamma_method, stream.child(1),
        samples=cfg.samples, workers=workers,
    )
    ratio = _ratio(est.mean, epi.mean, noise=est.stderr)
    return BoundReport(
        instance=fam.descriptor(),
        r=r,
        quantities={
            "esup_weibull": est.mean,
            "epi_gamma2": epi.mean,
            "epi_gamma2_spread": epi.spread,
        },
        stderrs={"esup_weibull": est.stderr},
        ratios={"esup_weibull_over_epi_gamma2": ratio},
        flags={"window": _window_flag(ratio, cfg.window)},
        window=cfg.window,
        seed=cfg.seed,
    )


def verify_main_bound(cfg: RunConfig, workers: int = 1) -> list[BoundReport]:
    """Ratio esup / E_pi gamma_2(T_pi) per instance, flagged against the window."""
    return [
        _main_bound_instance(fam, pset, r, cfg, stream, workers)
        for fam, pset, r, stream in _instance_grid(cfg)
    ]


def _r1_bound_instance(
    fam: InstanceFamily,
    pset: PointSet,
    r: float,
    cfg: RunConfig,
    stream: RandomStream,
    workers: int = 1,
) -> BoundReport:
    _check_r("r1_bound", r)
    est = esup_mc(pset, Driver.weibull(r), cfg.samples, stream.child(0), workers)
    tree_l2 = build_greedy_tree(pset, Metric.l2())
    tree_linf = build_greedy_tree(pset, Metric.linf())
    g2 = gamma_from_tree(tree_l2, 2.0, Metric.l2()).value
    gr = gamma_from_tree(tree_linf, r, Metric.linf()).value
    gamma_sum = g2 + gr
    chain = chaining_bound(pset, r, intersect_trees(tree_l2, tree_linf))
    s = conjugate_exponent(r)
    with warnings.catch_warnings():
        # at r = 2 (s = inf) the report flags the limiting 0/1 weights instead
        warnings.filterwarnings("ignore", "infinite weight exponent", UserWarning)
        epi = epi_gamma2(
            pset, s, cfg.num_perms, cfg.gamma_method, stream.child(1),
            samples=cfg.samples, workers=workers,
        )
    ratio = _ratio(est.mean, gamma_sum, noise=est.stderr)
    dominated = est.mean <= chain + 3.0 * est.stderr
    flags = {
        "window": _window_flag(ratio, cfg.window),
        "chaining_dominates": "ok" if dominated else "violation",
    }
    if math.isinf(s):
        flags["epi_weights"] = "limiting_0_1"
    return BoundReport(
        instance=fam.descriptor(),
        r=r,
        quantities={
            "esup_weibull": est.mean,
            "gamma2_d2": g2,
            "gamma_r_dinf": gr,
            "gamma_sum": gamma_sum,
            "chaining_bound": chain,
            "epi_gamma2": epi.mean,
            "epi_gamma2_spread": epi.spread,
        },
        stderrs={"esup_weibull": est.stderr},
        ratios={
            "esup_weibull_over_gamma_sum": ratio,
            "epi_gamma2_over_gamma_sum": _ratio(epi.mean, gamma_sum),
            "esup_weibull_over_chaining_bound": _ratio(est.mean, chain, noise=est.stderr),
        },
        flags=flags,
        window=cfg.window,
        seed=cfg.seed,
    )


def verify_r1_bound(cfg: RunConfig, workers: int = 1) -> list[BoundReport]:
    """Compare esup to gamma_2(T,d_2) + gamma_r(T,d_inf) and to E_pi gamma_2(T_pi)."""
    return [
        _r1_bound_instance(fam, pset, r, cfg, stream, workers)
        for fam, pset, r, stream in _instance_grid(cfg)
    ]


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
        esup_closed = n * exact_abs_moment(r, 1.0)
        gamma_r_lower = 2.0 * 2.0 ** (k / r)
        simplified_lower = 2.0 ** (1.0 - 1.0 / r) * n ** ((r + 1.0) / (2.0 * r))
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

    Both estimates share one stream, so theta = 1 reproduces the full
    estimator bit for bit and the ratio is exactly 1.  The recorded ratio
    is the empirical truncation constant; nothing is asserted against it.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    reports: list[BoundReport] = []
    for fam, pset, r, stream in _instance_grid(cfg):
        n = pset.dim
        if n < 2.0 / theta:
            raise ValueError(f"truncation needs n >= 2/theta = {2.0 / theta:g}, got n={n}")
        prefix = math.ceil(theta * n)
        a = weights(n, conjugate_exponent(r)).w
        full = esup_permuted_weighted(pset, a, n, cfg.samples, stream, workers)
        part = esup_permuted_weighted(pset, a, prefix, cfg.samples, stream, workers)
        ratio = _ratio(full.mean, part.mean, noise=full.stderr)
        reports.append(
            BoundReport(
                instance=fam.descriptor(),
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
        )
    return reports


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
    for p in p_list:
        if p < 2.0:
            raise ValueError(f"moment orders must be >= 2, got {p}")
    reports: list[BoundReport] = []
    for idx, p in enumerate(p_list):

        def values(rng: np.random.Generator, count: int) -> np.ndarray:
            x = Driver.weibull(r).coefficients(rng, count, tv.size)
            return np.abs(x @ tv) ** p

        mean_pow, se_pow = _mc_mean(values, samples, stream.child(idx), workers)
        if mean_pow == 0.0:
            mc_norm, mc_se = 0.0, 0.0
        else:
            mc_norm = mean_pow ** (1.0 / p)
            mc_se = se_pow * mc_norm / (p * mean_pow)
        cor = sup_norm_moment_bound(tv, p, r).value
        lp_bound = lp_norm_moment_bound(tv, p, r).value
        reports.append(
            BoundReport(
                instance=f"vector(dim={tv.size})",
                r=r,
                quantities={
                    "p": float(p),
                    "mc_norm": mc_norm,
                    "sup_norm_bound": cor,
                    "lp_norm_bound": lp_bound,
                },
                stderrs={"mc_norm": mc_se},
                ratios={
                    "mc_norm_over_sup_norm_bound": _ratio(mc_norm, cor),
                    "mc_norm_over_lp_norm_bound": _ratio(mc_norm, lp_bound),
                },
                flags={"window": "recorded"},
                seed=stream.seed,
            )
        )
    return reports


def _config_echo(cfg: RunConfig) -> dict[str, Any]:
    return {
        "name": cfg.name,
        "families": [fam.descriptor() for fam in cfg.families],
        "r_values": list(cfg.r_values),
        "samples": cfg.samples,
        "num_perms": cfg.num_perms,
        "gamma_method": cfg.gamma_method,
        "window": list(cfg.window),
        "seed": cfg.seed,
    }


def reports_json_text(reports: Sequence[BoundReport], config: dict[str, Any] | None = None) -> str:
    doc = {
        "config": config,
        "reports": [rep.to_dict() for rep in reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_reports_json(
    reports: Sequence[BoundReport], path: str, config: dict[str, Any] | None = None
) -> None:
    with open(path, "w") as fh:
        fh.write(reports_json_text(reports, config))


def write_reports_csv(reports: Sequence[BoundReport], path: str) -> None:
    """Flatten reports to one row per (instance, r); columns are the sorted
    union of quantity, stderr, and ratio names."""
    import csv as _csv

    q_keys = sorted({k for rep in reports for k in rep.quantities})
    s_keys = sorted({k for rep in reports for k in rep.stderrs})
    r_keys = sorted({k for rep in reports for k in rep.ratios})
    f_keys = sorted({k for rep in reports for k in rep.flags})
    header = (
        ["instance", "r"]
        + q_keys
        + [f"stderr_{k}" for k in s_keys]
        + [f"ratio_{k}" for k in r_keys]
        + [f"flag_{k}" for k in f_keys]
    )
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        for rep in reports:
            row: list[Any] = [rep.instance, rep.r]
            row += [rep.quantities.get(k, "") for k in q_keys]
            row += [rep.stderrs.get(k, "") for k in s_keys]
            row += [rep.ratios.get(k, "") for k in r_keys]
            row += [rep.flags.get(k, "") for k in f_keys]
            writer.writerow(row)


def _counterexample_from_config(cfg: RunConfig) -> list[BoundReport]:
    n_list = []
    for fam in cfg.families:
        if fam.kind != "hypercube_subset":
            raise ConfigError(
                "counterexample configs use hypercube_subset families as size carriers"
            )
        n_list.append(fam.n)
    reports: list[BoundReport] = []
    for r in cfg.r_values:
        reports.extend(counterexample_run(r, n_list))
    return reports


def run(config_path: str, workers: int = 1, overrides: dict[str, Any] | None = None) -> int:
    """Execute every configured experiment instance; nonzero on any violation.

    Everything that can fail before an instance runs is checked first:
    reading and parsing the config, ``overrides`` (top-level values such as
    samples, num_perms, seed or out, applied before validation), validation,
    materializing every family and opening the report file.  Any of these
    failures prints one ``error: <config>: <reason>`` line and yields exit
    status 2 with no report written.  Instance failures are recorded with an
    error marker and the partial report is still persisted (exit status 1).
    """
    try:
        with open(config_path) as fh:
            data = json.load(fh)
        if overrides and isinstance(data, dict):  # any other root is rejected below
            data = data | {k: v for k, v in overrides.items() if v is not None}
        cfg = RunConfig.from_dict(data)
        if cfg.name == "counterexample":
            reports, grid = _counterexample_from_config(cfg), []
        else:
            reports, grid = [], list(_instance_grid(cfg))
        out_path = cfg.out or f"{cfg.name}_report.json"
        report_file = open(out_path, "w")
    except (OSError, ValueError) as exc:  # JSONDecodeError and ConfigError are ValueErrors
        print(f"error: {config_path}: {exc}", file=sys.stderr)
        return 2

    failed = False
    instance_fn = _main_bound_instance if cfg.name == "main_bound" else _r1_bound_instance
    with report_file:
        for fam, pset, r, stream in grid:
            try:
                reports.append(instance_fn(fam, pset, r, cfg, stream, workers))
            except Exception as exc:  # persist partial results with a marker
                failed = True
                reports.append(
                    BoundReport(
                        instance=fam.descriptor(),
                        r=r,
                        flags={"run": "error", "error_message": f"{type(exc).__name__}: {exc}"},
                        seed=cfg.seed,
                    )
                )
                print(f"error: instance {fam.descriptor()} r={r}: {exc}", file=sys.stderr)
        report_file.write(reports_json_text(reports, _config_echo(cfg)))
    violations = sum(rep.violated() for rep in reports)
    for rep in reports:
        status = "FAIL" if rep.violated() else "ok"
        print(f"[{status}] {rep.instance} r={rep.r} {rep.ratios}")
    print(f"wrote {out_path} ({len(reports)} instances, {violations} flagged)")
    return 1 if failed or violations else 0
