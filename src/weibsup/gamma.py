"""Admissible partition trees and the gamma_alpha chaining functionals.

A tree is admissible when level 0 is the whole set, levels are nested, and
level n holds at most 2^(2^n) cells.  The value of a tree at alpha is
sup over points t of sum_n 2^(n/alpha) * diam(A_n(t)); any admissible tree
therefore yields an upper bound for gamma_alpha, and the explicit small-set
enumeration recovers the infimum.

Cells of zero diameter count as terminal: the weight transforms can collapse
distinct points onto each other, and such cells contribute nothing to any
level sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Metric, PointSet, RandomStream, pairwise_distance_matrix, point_norms
from .mcsup import Driver, esup_mc

__all__ = [
    "NotAdmissibleError",
    "PartitionTree",
    "GammaValue",
    "validate_admissible",
    "build_greedy_tree",
    "gamma_from_tree",
    "gamma_exact_small",
    "exact_small_tree",
    "dudley_bound",
    "sudakov_lower",
    "gaussian_gamma2_proxy",
    "intersect_trees",
    "chaining_bound",
    "tree_to_jsonable",
]

_GAMMA_METHODS = ("exact_small", "greedy_upper", "dudley", "sudakov_lower", "gaussian_proxy")
_MAX_LEVELS = 64


class NotAdmissibleError(ValueError):
    """A partition sequence violates one of the admissibility invariants."""


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """Nested partitions of a point set, as tuples of sorted index tuples."""

    pointset: PointSet
    levels: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class GammaValue:
    alpha: float
    value: float
    method: str
    stderr: float | None = None

    def __post_init__(self) -> None:
        if self.method not in _GAMMA_METHODS:
            raise ValueError(f"unknown gamma method {self.method!r}")
        if not self.value >= 0.0:
            raise ValueError(f"gamma value must be nonnegative, got {self.value}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 4.0:
        raise ValueError(f"alpha must lie in (0, 4], got {alpha}")


def _level_budget(n: int) -> int | None:
    """2^(2^n), or None once it exceeds any realistic cardinality."""
    return None if 2**n >= 64 else 2 ** (2**n)


def _distance_matrix(pset: PointSet, metric: Metric) -> np.ndarray:
    """The set's read-only distance matrix, built once per metric and kept on the set."""
    dist = pset._distances.get(metric)
    if dist is None:
        dist = pairwise_distance_matrix(pset.points, metric)
        dist.flags.writeable = False
        pset._distances[metric] = dist
    return dist


def _labels(level: Sequence[Sequence[int]], m: int) -> tuple[np.ndarray, ...]:
    """Each point's cell number at one level (-1 where no cell holds it), the
    level's cells concatenated, and which of those entries lie in range(m); the
    only place labels are built from cells."""
    flat = np.fromiter(itertools.chain.from_iterable(level), dtype=np.int64)
    cell = np.repeat(np.arange(len(level)), [len(c) for c in level])
    inside = (flat >= 0) & (flat < m)
    labels = np.full(m, -1, dtype=np.int64)
    labels[flat[inside]] = cell[inside]
    return labels, flat, inside


def _cells(labels: np.ndarray) -> list[np.ndarray]:
    """The points of each cell of one level, in cell order, each ascending."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [order[start:end] for start, end in zip([0] + ends, ends)]


def _tree(pset: PointSet, rows: Sequence[np.ndarray]) -> PartitionTree:
    """The tree whose level n groups the points by the labels rows[n]."""
    return PartitionTree(pset, tuple(tuple(tuple(c.tolist()) for c in _cells(r)) for r in rows))


def _point_cells(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per cell of one level: do all of its points coincide (zero diameter)?"""
    last = np.zeros(labels.max() + 1, dtype=np.int64)
    last[labels] = np.arange(labels.size)
    moved = (points != points[last[labels]]).any(axis=1)
    return np.bincount(labels[moved], minlength=last.size) == 0


def validate_admissible(tree: PartitionTree) -> np.ndarray:
    """Raise NotAdmissibleError naming the first violated invariant.

    Returns the (levels, m) labels: row n holds each point's cell number at
    level n.
    """
    m = tree.pointset.m
    levels = tree.levels
    if not levels:
        raise NotAdmissibleError("tree has no levels")
    if len(levels[0]) != 1 or tuple(levels[0][0]) != tuple(range(m)):
        raise NotAdmissibleError("level 0 must be the single cell containing every point")
    labels = np.empty((len(levels), m), dtype=np.int64)
    for n, level in enumerate(levels):
        budget = _level_budget(n)
        if budget is not None and len(level) > budget:
            raise NotAdmissibleError(
                f"level {n} has {len(level)} cells, over the budget 2^(2^{n}) = {budget}"
            )
        labels[n], flat, inside = _labels(level, m)
        counts = np.bincount(flat[inside], minlength=m)
        if not inside.all() or counts.max() > 1:
            # the first point, in cell order, that is out of range or already placed
            first = np.zeros(flat.size, dtype=bool)
            first[np.unique(flat, return_index=True)[1]] = True
            p = int(np.argmax(~inside | ~first))
            if not inside[p]:
                raise NotAdmissibleError(f"level {n} references point index {flat[p]}")
            raise NotAdmissibleError(f"level {n} cells overlap at point {flat[p]}")
        if flat.size < m:
            raise NotAdmissibleError(f"level {n} does not cover point {np.argmin(counts)}")
        if n:
            # a cell is nested when its points' parent labels agree (empty cells never do)
            lo, hi = np.full(len(level), m), np.full(len(level), -1)
            np.minimum.at(lo, labels[n], labels[n - 1])
            np.maximum.at(hi, labels[n], labels[n - 1])
            if (lo != hi).any():
                cell = level[int(np.argmax(lo != hi))]
                raise NotAdmissibleError(
                    f"level {n} cell {tuple(cell)} is not nested in a single parent"
                )
    spread = ~_point_cells(tree.pointset.points, labels[-1])
    if spread.any():
        raise NotAdmissibleError(
            f"final level cell {tuple(levels[-1][int(np.argmax(spread))])} is neither a "
            "singleton nor a zero-diameter duplicate group"
        )
    return labels


def _farthest_points(
    dist: np.ndarray, norms: np.ndarray, idx: np.ndarray, k: int
) -> tuple[list[int], list[float]]:
    """Gonzalez's greedy k-center on the points idx (ascending): up to k centers
    and the covering radius after each.

    The first center is the max-norm point, each next one the point farthest
    from the centers so far; ties break to the lowest index (argmax returns
    the first maximizer).  Selection stops early once the radius is 0.  Only
    the centers' rows are read, restricted to idx.
    """
    centers = [int(idx[np.argmax(norms[idx])])]
    min_dist = dist[centers[0], idx]
    far = int(np.argmax(min_dist))
    radii = [float(min_dist[far])]
    while len(centers) < k and radii[-1] > 0.0:
        centers.append(int(idx[far]))
        np.minimum(min_dist, dist[centers[-1], idx], out=min_dist)
        far = int(np.argmax(min_dist))
        radii.append(float(min_dist[far]))
    return centers, radii


def build_greedy_tree(pset: PointSet, metric: Metric) -> PartitionTree:
    """Admissible tree by recursive greedy farthest-point k-center splits.

    At level n each surviving cell receives an equal share of the level
    budget 2^(2^n), rounded up and capped by cell size; share left unused by
    small cells is redistributed to cells still short of splitting, and if
    ceil rounding overshoots the hard cardinality cap the largest allocations
    are trimmed.  Construction stops at the first level where every cell has
    zero diameter.
    """
    m = pset.m
    dist = _distance_matrix(pset, metric)
    norms = point_norms(pset.points, metric)
    rows = [np.zeros(m, dtype=np.int64)]
    for n in range(1, _MAX_LEVELS):
        cells = _cells(rows[-1])
        is_point = _point_cells(pset.points, rows[-1])
        if is_point.all():
            break
        hard = _level_budget(n)
        target = m if hard is None else -(-hard // len(cells))
        # a zero-diameter cell cannot split; it takes exactly one slot
        sizes = [1 if point else len(cell) for cell, point in zip(cells, is_point)]
        allocs = [min(size, target) for size in sizes]
        total = sum(allocs)
        if hard is not None and total > hard:
            # ceil rounding overshot the cardinality cap; trim largest shares
            while total > hard:
                worst = max(range(len(allocs)), key=lambda i: (allocs[i], i))
                allocs[worst] -= 1
                total -= 1
        else:
            # redistribute unused share to the cells still short of splitting
            cap = m if hard is None else min(hard, m)
            while total < cap:
                deficits = [size - alloc for size, alloc in zip(sizes, allocs)]
                best = max(range(len(allocs)), key=lambda i: (deficits[i], -i))
                if deficits[best] <= 0:
                    break
                allocs[best] += 1
                total += 1
        row, label = np.empty(m, dtype=np.int64), 0
        for idx, alloc, point in zip(cells, allocs, is_point):
            keep = alloc <= 1 or point
            centers = [idx[0]] if keep else _farthest_points(dist, norms, idx, alloc)[0]
            # each point joins its nearest center, ties to the earliest
            row[idx] = label + np.argmin(dist[np.ix_(centers, idx)], axis=0)
            label += len(centers)
        rows.append(row)
    return _tree(pset, rows)


def _sup_level_sum(labels: np.ndarray, cell_value: Callable[[int, tuple], float]) -> float:
    """sup over t of sum_n cell_value(n, np.ix_ of A_n(t)), the cells read from the
    (levels, m) labels; cells valued <= 0 add nothing."""
    acc = np.zeros(labels.shape[1])
    for n, row in enumerate(labels):
        for idx in _cells(row):
            if idx.size > 1:
                value = cell_value(n, np.ix_(idx, idx))
                if value > 0.0:
                    acc[idx] += value
    return float(acc.max())


def gamma_from_tree(tree: PartitionTree, alpha: float, metric: Metric) -> GammaValue:
    """sup over points of sum_n 2^(n/alpha) * diam(A_n(t)) for this tree."""
    _check_alpha(alpha)
    labels = validate_admissible(tree)
    dist = _distance_matrix(tree.pointset, metric)
    weights = [2.0 ** (n / alpha) for n in range(len(tree.levels))]
    value = _sup_level_sum(labels, lambda n, ix: weights[n] * float(dist[ix].max()))
    return GammaValue(alpha=alpha, value=value, method="greedy_upper")


def _best_partition_max_diam(dist: np.ndarray, max_blocks: int) -> tuple[float, list[int]]:
    """Min over partitions into at most max_blocks blocks of the max cell diameter.

    Exhaustive search in restricted-growth order with branch-and-bound on the
    running maximum; feasible because m <= 8.
    """
    m = dist.shape[0]
    best_val = math.inf
    best_assign: list[int] = []
    assign = [0] * m

    def recurse(i: int, used: int, current: float) -> None:
        nonlocal best_val, best_assign
        if current >= best_val:
            return
        if i == m:
            best_val = current
            best_assign = assign[:i]
            return
        for b in range(min(used + 1, max_blocks)):
            grown = current
            ok = True
            for j in range(i):
                if assign[j] == b:
                    d = dist[i, j]
                    if d > grown:
                        grown = d
                    if grown >= best_val:
                        ok = False
                        break
            if ok:
                assign[i] = b
                recurse(i + 1, max(used, b + 1), grown)
        assign[i] = 0

    recurse(0, 0, 0.0)
    return best_val, best_assign


def gamma_exact_small(pset: PointSet, metric: Metric, alpha: float) -> GammaValue:
    """Exact gamma_alpha for m <= 8: the value of the optimal tree ``exact_small_tree``.

    With m <= 8 < 16 every admissible tree can reach singletons by level 2,
    so the infimum is diam(T) + 2^(1/alpha) * min over level-1 partitions
    (at most 4 blocks) of the max cell diameter, which that tree attains.
    """
    value = gamma_from_tree(exact_small_tree(pset, metric), alpha, metric).value
    return GammaValue(alpha=alpha, value=value, method="exact_small")


def exact_small_tree(pset: PointSet, metric: Metric) -> PartitionTree:
    """An optimal admissible tree realizing gamma_exact_small."""
    if pset.m > 8:
        raise ValueError(f"exact enumeration is limited to m <= 8 points, got {pset.m}")
    m = pset.m
    whole = (tuple(range(m)),)
    singletons = tuple((i,) for i in range(m))
    if m == 1:
        return PartitionTree(pset, (whole,))
    if m <= 4:
        return PartitionTree(pset, (whole, singletons))
    dist = _distance_matrix(pset, metric)
    _, assign = _best_partition_max_diam(dist, 4)
    blocks: dict[int, list[int]] = {}
    for i, b in enumerate(assign):
        blocks.setdefault(b, []).append(i)
    level1 = tuple(tuple(blocks[b]) for b in sorted(blocks))
    if all(len(cell) == 1 for cell in level1):
        return PartitionTree(pset, (whole, level1))
    return PartitionTree(pset, (whole, level1, singletons))


def dudley_bound(pset: PointSet, metric: Metric) -> GammaValue:
    """Entropy-sum upper companion: sum_n 2^(n/2) e_n with e_n the covering
    radius from greedy farthest-point selection of N_n centers, N_0 = 1 and
    N_n = min(m, 2^(2^n))."""
    m = pset.m
    _, radii = _farthest_points(
        _distance_matrix(pset, metric), point_norms(pset.points, metric), np.arange(m), m
    )
    total = 0.0
    n = 0
    while n < _MAX_LEVELS:
        budget = _level_budget(n)
        centers = 1 if n == 0 else (m if budget is None else min(m, budget))
        e_n = radii[centers - 1] if centers <= len(radii) else 0.0
        total += 2.0 ** (n / 2.0) * e_n
        if e_n == 0.0:
            break
        n += 1
    return GammaValue(alpha=2.0, value=total, method="dudley")


def sudakov_lower(pset: PointSet, metric: Metric) -> GammaValue:
    """Packing-number lower companion: max over a geometric grid of
    eps * sqrt(log P(eps)), with P the greedy packing count at separation eps."""
    if pset.m < 2:
        return GammaValue(alpha=2.0, value=0.0, method="sudakov_lower")
    dist = _distance_matrix(pset, metric)
    diam = float(dist.max())
    if diam == 0.0:
        return GammaValue(alpha=2.0, value=0.0, method="sudakov_lower")
    best = 0.0
    eps = diam
    shrink = 2.0 ** -0.25
    for _ in range(48):
        # point 0 is kept, then each point at least eps from all kept before it
        nearest = dist[:, 0].copy()
        count = 1
        for i in range(1, pset.m):
            if nearest[i] >= eps:
                count += 1
                np.minimum(nearest, dist[:, i], out=nearest)
        if count >= 2:
            best = max(best, eps * math.sqrt(math.log(count)))
        eps *= shrink
    return GammaValue(alpha=2.0, value=best, method="sudakov_lower")


def gaussian_gamma2_proxy(
    pset: PointSet, samples: int, stream: RandomStream, workers: int = 1
) -> GammaValue:
    """Gaussian expected supremum as a gamma_2 estimate, accurate up to the
    universal majorizing-measure constants.

    A zero-diameter set has no supremum fluctuation: the value is exactly 0,
    so no sampling happens there.
    """
    if (pset.points == pset.points[0]).all():
        return GammaValue(alpha=2.0, value=0.0, method="gaussian_proxy", stderr=0.0)
    est = esup_mc(pset, Driver.gaussian(), samples, stream, workers)
    return GammaValue(
        alpha=2.0, value=max(est.mean, 0.0), method="gaussian_proxy", stderr=est.stderr
    )


def intersect_trees(a: PartitionTree, b: PartitionTree) -> PartitionTree:
    """Level n of the result = nonempty intersections of both trees' level n-1.

    The cardinality budget transfers because |A_{n-1}| * |B_{n-1}| <=
    (2^(2^(n-1)))^2 = 2^(2^n).  Levels past a tree's depth reuse its final
    partition.
    """
    if a.pointset is not b.pointset and not np.array_equal(
        a.pointset.points, b.pointset.points
    ):
        raise ValueError("trees must partition the same point set")
    pset = a.pointset
    m = pset.m
    la = [_labels(level, m)[0] for level in a.levels]
    lb = [_labels(level, m)[0] for level in b.levels]
    rows = [np.zeros(m, dtype=np.int64)]
    for n in range(1, max(len(la), len(lb)) + 1):
        if _point_cells(pset.points, rows[-1]).all():
            break
        # one key per point, ordered as (cell in A, cell in B)
        key = la[min(n - 1, len(la) - 1)] * m + lb[min(n - 1, len(lb) - 1)]
        rows.append(np.unique(key, return_inverse=True)[1])
    return _tree(pset, rows)


def chaining_bound(pset: PointSet, r: float, tree: PartitionTree) -> float:
    """sup over points of sum_k Delta_k(A_k(t)) with the two-norm level term
    Delta_k(A) = sup_{s,u in A} [2^(k/2) |s-u|_2 + 2^(k/r) |s-u|_inf]."""
    if not 0.0 < r <= 2.0:
        raise ValueError(f"r must lie in (0, 2], got {r}")
    if tree.pointset is not pset and not np.array_equal(tree.pointset.points, pset.points):
        raise ValueError("tree does not partition the given point set")
    labels = validate_admissible(tree)
    d2 = _distance_matrix(pset, Metric.l2())
    dinf = _distance_matrix(pset, Metric.linf())
    return _sup_level_sum(
        labels, lambda k, ix: float((2.0 ** (k / 2.0) * d2[ix] + 2.0 ** (k / r) * dinf[ix]).max())
    )


def tree_to_jsonable(tree: PartitionTree) -> list[list[list[int]]]:
    """Nested lists (level -> cells -> point indices) for report archival."""
    return [[list(cell) for cell in level] for level in tree.levels]
