"""Coordinate weights (log(n/k))^(1/s) and the permuted-weight transforms."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Metric, PointSet, RandomStream, _ordered_map
from .gamma import build_greedy_tree, gamma_exact_small, gamma_from_tree, gaussian_gamma2_proxy

__all__ = [
    "WeightVector",
    "weights",
    "apply_permuted_weights",
    "ts_transform",
    "EpiGamma2",
    "epi_gamma2",
]

_EPI_METHODS = ("greedy_upper", "gaussian_proxy", "exact_small")


@dataclass(frozen=True, eq=False)
class WeightVector:
    """w_k = (log(n/k))^(1/s) for k = 1..n; non-increasing with w_n = 0."""

    n: int
    s: float
    w: np.ndarray


def weights(n: int, s: float) -> WeightVector:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not s > 0.0:
        raise ValueError(f"weight exponent must be positive, got {s}")
    logs = np.log(n / np.arange(1.0, n + 1.0))
    if math.isinf(s):
        # limiting weights at r = 2: 1 below the last coordinate, 0 at it
        warnings.warn(
            "infinite weight exponent (r = 2): using the limiting 0/1 weights; "
            "the permuted two-sided bound is stated for r < 2",
            stacklevel=2,
        )
        w = (logs > 0.0).astype(np.float64)
    else:
        w = logs ** (1.0 / s)
    w.flags.writeable = False
    return WeightVector(n=n, s=s, w=w)


def apply_permuted_weights(pset: PointSet, perm: Sequence[int], s: float) -> PointSet:
    """Points u with u_k = t_{perm(k)} * w_k; same cardinality and dimension."""
    n = pset.dim
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise ValueError(f"perm must be a permutation of range({n})")
    wv = weights(n, s)
    with np.errstate(over="ignore"):  # PointSet rejects a coordinate that overflowed
        return PointSet(pset.points[:, p] * wv.w[None, :], label=pset.label)


def ts_transform(pset: PointSet, s: float) -> PointSet:
    """Identity-permutation weighting: u_k = t_k * (log(n/k))^(1/s)."""
    return apply_permuted_weights(pset, np.arange(pset.dim), s)


class EpiGamma2(NamedTuple):
    mean: float
    spread: float


def epi_gamma2(
    pset: PointSet,
    s: float,
    num_perms: int,
    gamma_method: str,
    stream: RandomStream,
    samples: int = 4000,
    workers: int = 1,
) -> EpiGamma2:
    """Average of gamma_2 estimates of T_pi over uniform permutations.

    Permutations come from the stream's root generator (Fisher-Yates);
    estimator substreams are per-permutation.  Returns the mean and the
    max/min spread across permutations (1 when all values are zero).
    """
    if num_perms < 1:
        raise ValueError(f"need num_perms >= 1, got {num_perms}")
    if gamma_method not in _EPI_METHODS:
        raise ValueError(f"unknown gamma method {gamma_method!r}")
    rng = stream.generator()
    perms = [rng.permutation(pset.dim) for _ in range(num_perms)]
    l2 = Metric.l2()

    def evaluate(i: int) -> float:
        transformed = apply_permuted_weights(pset, perms[i], s)
        if gamma_method == "greedy_upper":
            tree = build_greedy_tree(transformed, l2)
            return gamma_from_tree(tree, 2.0, l2).value
        if gamma_method == "exact_small":
            return gamma_exact_small(transformed, l2, 2.0).value
        return gaussian_gamma2_proxy(transformed, samples, stream.child(i)).value

    values = _ordered_map(evaluate, range(num_perms), workers)
    mean = math.fsum(values) / num_perms
    vmax, vmin = max(values), min(values)
    if vmax == 0.0:
        spread = 1.0
    elif vmin == 0.0:
        spread = math.inf
    else:
        spread = vmax / vmin
    return EpiGamma2(mean=mean, spread=spread)
