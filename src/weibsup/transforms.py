"""Coordinate weights (log(n/k))^(1/s) and the permuted-weight transforms."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Metric,
    PointSet,
    RandomStream,
    _axis_form,
    _unit_scaled,
    _weighted_l2_matrices,
)
from .gamma import (
    _center_norms,
    _distance_matrix,
    _greedy_gammas,
    build_greedy_tree,
    exact_small_tree,
    gamma_from_tree,
    gaussian_gamma2_proxy,
)

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
        with np.errstate(over="ignore"):  # an overflow leaves inf, checked below
            w = logs ** (1.0 / s)
        if np.isinf(w).any():
            raise ValueError(f"weight (log(n/k))^(1/s) at s={s:g} overflows float64")
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


def _greedy_forest(
    points: np.ndarray, perms: list[np.ndarray], w: np.ndarray, matrices: np.ndarray
) -> list[float]:
    """gamma_2 of each T_pi's greedy tree, all built and read as one forest on
    the shared pass's (K, m, m) ``matrices``.  T_pi's points are formed one
    T_pi at a time, for their center norms and duplicate groups only."""
    m, norms, groups = len(points), [], []
    for k, perm in enumerate(perms):
        with np.errstate(over="ignore"):  # rejected below, as PointSet rejects it
            t_pi = np.ascontiguousarray(points[:, perm] * w[None, :])  # PointSet's layout
        if not np.isfinite(t_pi).all():
            if k:  # the earlier T_pi are read first, and a level sum of theirs may overflow
                _greedy_gammas(matrices[:k], np.concatenate(norms), np.concatenate(groups))
            raise ValueError("all coordinates must be finite")
        norms.append(_center_norms(t_pi, Metric.l2()))
        # rows equal as points (adding 0.0 turns -0.0 into +0.0) get one id
        rows = (t_pi + 0.0).view(np.dtype((np.void, t_pi.itemsize * t_pi.shape[1])))
        groups.append(k * m + np.unique(rows.ravel(), return_inverse=True)[1].reshape(m, 1))
    return _greedy_gammas(matrices, np.concatenate(norms), np.concatenate(groups))


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

    On a dense set the tree methods read every T_pi's l2 matrix from one pass
    over the squared coordinate differences of ``pset``: |u - v|^2 of T_pi is
    sum_c a_c (t_c - t'_c)^2 with a_{pi(k)} = w_k^2.  These matrices (all
    alive at once, num_perms * m^2 * 8 bytes) may differ from the ones
    computed from T_pi's own points in the last bits.  Under ``greedy_upper``
    the pass's stack goes whole to one forest of every T_pi's greedy tree,
    built and read as label arrays (``gamma._greedy_labels``); each value has
    the bits of that T_pi's own ``build_greedy_tree`` on its matrix, and no
    T_pi ``PointSet`` is made.  Every T_pi of an axis set (see
    ``core._axis_form``) is an axis set, point i being v_i * w_k on axis k
    where pi(k) = axis_i, so each T_pi builds its own closed-form matrix with
    its tree, O(m^2), and only that one is alive.  Permutations run on the
    calling thread; ``workers`` threads only the proxy's Monte Carlo chunks.
    """
    if num_perms < 1:
        raise ValueError(f"need num_perms >= 1, got {num_perms}")
    if gamma_method not in _EPI_METHODS:
        raise ValueError(f"unknown gamma method {gamma_method!r}")
    rng = stream.generator()
    perms = [rng.permutation(pset.dim) for _ in range(num_perms)]
    l2 = Metric.l2()
    matrices = None
    # the proxy reads no distance matrix, and an axis set's T_pi build their own
    if gamma_method != "gaussian_proxy" and _axis_form(pset.points) is None:
        w = weights(pset.dim, s).w
        sq_weights = np.empty((num_perms, pset.dim))
        for a, perm in zip(sq_weights, perms):
            a[perm] = w * w
        matrices = _weighted_l2_matrices(pset.points, sq_weights)
    if matrices is not None and gamma_method == "greedy_upper":
        values = _greedy_forest(pset.points, perms, w, matrices)
    else:
        builder = build_greedy_tree if gamma_method == "greedy_upper" else exact_small_tree
        values = []
        for i, perm in enumerate(perms):
            t_pi = apply_permuted_weights(pset, perm, s)
            if gamma_method == "gaussian_proxy":
                values.append(gaussian_gamma2_proxy(t_pi, samples, stream.child(i), workers).value)
            else:
                if matrices is not None:
                    _distance_matrix(t_pi, l2, matrices[i])
                values.append(gamma_from_tree(builder(t_pi, l2), 2.0, l2).value)
    # the mean of the values times the 2^-e that puts the largest in [1/2, 1), whose
    # sum cannot overflow where theirs can, scaled back
    scaled, exp = _unit_scaled(values)
    mean = math.ldexp(math.fsum(scaled) / num_perms, exp.item())
    vmax, vmin = max(values), min(values)
    if vmax == 0.0:
        spread = 1.0
    elif vmin == 0.0:
        spread = math.inf
    else:
        spread = vmax / vmin
    return EpiGamma2(mean=mean, spread=spread)
