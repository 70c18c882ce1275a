"""Coordinate weights (log(n/k))^(1/s) and the permuted-weight transforms."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    Metric,
    PointSet,
    RandomStream,
    _axis_distance_matrix,
    _axis_form,
    _row_keys,
    _unit_scaled,
    _weighted_l2_matrices,
)
from .gamma import (
    _center_norms,
    _check_exact_size,
    _check_labels,
    _exact_small_labels,
    _greedy_labels,
    _level_gammas,
    gaussian_gamma2_proxy,
)
# nothing here calls them, but benchmarks/tracing.py wraps these bindings and fails
# on a name the module does not define
from .gamma import build_greedy_tree, gamma_from_tree  # noqa: F401

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


def _t_pi_batches(
    pset: PointSet, perms: list[np.ndarray], w: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The T_pi of ``perms`` in batches of K trees of m points: their (K, m, m)
    l2 stack, K * m center norms, and K * m rows equal exactly where the points
    are, point P = k * m + i being point i of tree k.  A dense set is one batch
    on the shared pass, its T_pi formed one at a time for their norms and
    duplicate groups only.  An axis set (see ``core._axis_form``) is one T_pi
    per batch, from its axis form: point i is v_i * w_k on axis k =
    pi^-1(axis_i), or the zero point (axis 0, value +0) where that is 0.  A T_pi
    with a coordinate that overflows raises, as its PointSet would, once the
    T_pi before it are yielded."""
    l2, axis_form = Metric.l2(), _axis_form(pset.points)
    if axis_form is None:
        sq_weights = np.stack([(w * w)[np.argsort(perm)] for perm in perms])  # a_{pi(k)} = w_k^2
        matrices, norms, groups = _weighted_l2_matrices(pset.points, sq_weights), [], []
        for k, perm in enumerate(perms):
            with np.errstate(over="ignore"):  # rejected below, as PointSet rejects it
                t_pi = np.ascontiguousarray(pset.points[:, perm] * w[None, :])  # PointSet's layout
            if not np.isfinite(t_pi).all():
                if k:
                    yield matrices[:k], np.concatenate(norms), np.concatenate(groups)
                raise ValueError("all coordinates must be finite")
            norms.append(_center_norms(t_pi, l2))
            # rows equal as points get one id
            groups.append(k * pset.m + np.unique(_row_keys(t_pi), return_inverse=True)[1][:, None])
        yield matrices, np.concatenate(norms), np.concatenate(groups)
        return
    axes, v = axis_form
    for perm in perms:
        t_axes = np.argsort(perm)[axes]
        with np.errstate(over="ignore"):  # rejected below, as PointSet rejects it
            t_v = v * w[t_axes]
        if not np.isfinite(t_v).all():
            raise ValueError("all coordinates must be finite")
        zero = t_v == 0.0
        t_axes[zero], t_v[zero] = 0, 0.0
        yield (_axis_distance_matrix(t_axes, t_v, l2)[None], _center_norms(t_v[:, None], l2),
               np.column_stack([t_axes, t_v]))


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

    The tree methods build, check and read every T_pi tree on label arrays,
    one forest per batch of ``_t_pi_batches``, each value with the bits of its
    T_pi's own tree on its matrix; no T_pi ``PointSet`` is made.  A dense set's
    matrices, all alive at once, come from one pass over the squared coordinate
    differences of ``pset`` (|u - v|^2 of T_pi is sum_c a_c (t_c - t'_c)^2)
    and may differ from T_pi's own in the last bits.  Permutations run on the
    calling thread; ``workers`` threads only the proxy's Monte Carlo chunks.
    """
    if num_perms < 1:
        raise ValueError(f"need num_perms >= 1, got {num_perms}")
    if gamma_method not in _EPI_METHODS:
        raise ValueError(f"unknown gamma method {gamma_method!r}")
    if gamma_method == "exact_small":
        _check_exact_size(pset.m)
    rng = stream.generator()
    perms = [rng.permutation(pset.dim) for _ in range(num_perms)]
    if gamma_method == "gaussian_proxy":
        values = [gaussian_gamma2_proxy(apply_permuted_weights(pset, perm, s), samples,
                                        stream.child(i), workers).value
                  for i, perm in enumerate(perms)]
    else:
        values = []
        for dist, norms, rows in _t_pi_batches(pset, perms, weights(pset.dim, s).w):
            labels, depths = (_greedy_labels(dist, norms, rows) if gamma_method == "greedy_upper"
                              else (_exact_small_labels(dist), None))
            _check_labels(rows, labels, len(dist))
            values += _level_gammas(labels, dist, 2.0, depths).tolist()
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
