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
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .core import (
    Metric,
    PointSet,
    RandomStream,
    _power,
    _row_norms,
    _unit_scaled,
    pairwise_distance_matrix,
)
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
# a level is read in blocks of at most this many matrix entries, unless one row
# of a whole-set band or one point's in-cell pairs hold more; a block bounds
# every temporary of the read
_GATHER_ENTRIES = 2**14


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
    """The set's read-only distance matrix, kept on the set: built once per metric."""
    dist = pset._distances.get(metric)
    if dist is None:
        dist = pairwise_distance_matrix(pset.points, metric)
        dist.flags.writeable = False
        pset._distances[metric] = dist
    return dist


def _segments(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points grouped by cell (ascending inside each cell), and where each
    cell starts in that order and how many points it has.  Labels number
    nonempty cells, so below 2^16 points they fit 16 bits, which numpy sorts
    stably by radix; the stable order is unique, so it is the same."""
    order = np.argsort(labels.astype(np.uint16) if labels.size <= 2**16 else labels, kind="stable")
    sizes = np.bincount(labels)
    return order, np.cumsum(sizes) - sizes, sizes


def _tree(pset: PointSet, rows: Sequence[np.ndarray]) -> PartitionTree:
    """The tree whose level n groups the points by the labels rows[n], which
    number the cells 0, 1, ... with none empty."""
    levels = []
    for row in rows:
        order, starts, sizes = _segments(row)
        flat = order.tolist()
        levels.append(tuple(tuple(flat[a:a + k]) for a, k in zip(starts.tolist(), sizes.tolist())))
    return PartitionTree(pset, tuple(levels))


def _point_cells(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per cell of one level: do all of its points coincide (zero diameter)?
    ``points`` may be any rows that are equal exactly where the points are."""
    last = np.zeros(labels.max() + 1, dtype=np.int64)
    last[labels] = np.arange(labels.size)
    moved = (points != points[last[labels]]).any(axis=1)
    return np.bincount(labels[moved], minlength=last.size) == 0


def _nested_labels(tree: PartitionTree) -> np.ndarray:
    """The (levels, m) labels of a tree whose levels are nested partitions of
    its points under the level budgets: row n holds each point's cell number at
    level n.  Raise NotAdmissibleError naming the first violated invariant
    (level 0, budget, range, overlap, cover, nesting); the only place labels
    are read from cells."""
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
        flat = np.fromiter(itertools.chain.from_iterable(level), dtype=np.int64)
        cell = np.repeat(np.arange(len(level)), [len(c) for c in level])
        inside = (flat >= 0) & (flat < m)
        labels[n, flat[inside]] = cell[inside]
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
            unnested = _unnested(labels[n], labels[n - 1], len(level))
            if unnested.any():
                cell = level[int(np.argmax(unnested))]
                raise NotAdmissibleError(
                    f"level {n} cell {tuple(cell)} is not nested in a single parent"
                )
    return labels


def _unnested(row: np.ndarray, parent: np.ndarray, cells: int) -> np.ndarray:
    """Per cell of the level ``row``: do its points' ``parent`` labels disagree
    (an empty cell's always do)?"""
    lo, hi = np.full(cells, parent.size), np.full(cells, -1)
    np.minimum.at(lo, row, parent)
    np.maximum.at(hi, row, parent)
    return lo != hi


def _check_labels(points: np.ndarray, labels: np.ndarray, trees: int) -> None:
    """Raise NotAdmissibleError naming the first violated invariant of the
    (levels, K * m) labels of a forest of K = ``trees`` trees, tree k holding
    points k * m to k * m + m - 1: level 0 is one cell per tree; each later
    level numbers its cells 0..c-1 with none empty, nests each in one parent
    and gives no tree more cells than the level's budget; every final cell is
    a singleton or a group of equal rows of ``points``."""
    tree = np.arange(labels.shape[1]) // (labels.shape[1] // trees)
    if not np.array_equal(labels[0], tree):
        raise NotAdmissibleError("level 0 must be one cell per tree")
    for n in range(1, len(labels)):
        row, cells = labels[n], int(labels[n].max()) + 1
        if row.min() < 0 or np.bincount(row).min() == 0:
            raise NotAdmissibleError(f"level {n} does not number its cells 0..{cells - 1}")
        unnested = _unnested(row, labels[n - 1], cells)
        if unnested.any():
            raise NotAdmissibleError(
                f"level {n} cell {np.argmax(unnested)} is not nested in a single parent"
            )
        cell_tree = np.empty(cells, dtype=np.int64)
        cell_tree[row] = tree
        per_tree, budget = np.bincount(cell_tree, minlength=trees), _level_budget(n)
        if budget is not None and per_tree.max() > budget:
            k = int(np.argmax(per_tree))
            raise NotAdmissibleError(
                f"level {n} has {per_tree[k]} cells in tree {k}, over the budget "
                f"2^(2^{n}) = {budget}"
            )
    spread = ~_point_cells(points, labels[-1])
    if spread.any():
        raise NotAdmissibleError(
            f"final level cell {np.argmax(spread)} is neither a singleton nor a "
            "zero-diameter duplicate group"
        )


def validate_admissible(tree: PartitionTree) -> np.ndarray:
    """Raise NotAdmissibleError naming the first violated invariant.

    Returns the (levels, m) labels: row n holds each point's cell number at
    level n.
    """
    labels = _nested_labels(tree)
    spread = ~_point_cells(tree.pointset.points, labels[-1])
    if spread.any():
        raise NotAdmissibleError(
            f"final level cell {tuple(tree.levels[-1][int(np.argmax(spread))])} is neither a "
            "singleton nor a zero-diameter duplicate group"
        )
    return labels


def _center_norms(points: np.ndarray, metric: Metric) -> np.ndarray:
    """The norms that pick the first center: those of the unit-scaled points,
    which cannot overflow.  Under l2 and linf they are the unscaled norms times
    one power of two wherever those are finite, so the order is the same."""
    return _row_norms(_unit_scaled(points)[0], metric)


def _first_max(values: np.ndarray, starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Per segment of ``values``, the position of its first largest entry.  The
    segments are nonempty and contiguous, begin at ``starts``, and ``seg``
    numbers the segment of each entry."""
    if starts.size == 1:
        return values.argmax(keepdims=True)
    top = np.maximum.reduceat(values, starts)
    hits = np.flatnonzero(values == top[seg])
    return hits[np.searchsorted(hits, starts)]


def _farthest_points(
    dist: np.ndarray, norms: np.ndarray, labels: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Gonzalez's greedy k-center, run in every cell of one level at once: cell c,
    the points labelled c, takes up to ks[c] centers.  The points form trees of
    m = dist.shape[1] points each, point P = k * m + i being point i of tree k,
    and dist[P, j] is its distance to point j of its tree; a cell lies in one tree.

    A cell's first center is its max-norm point, each next one its point
    farthest from its centers so far; ties break to the lowest index.  A cell
    stops early once its covering radius is 0.  Each step gives every cell
    still short of its centers one more, and reads each of its points' distance
    to the new center with one gather from the centers' rows.  A point moves
    only to a strictly nearer center, so it joins the earliest nearest one.

    Returns each point's nearest-center rank within its cell, each cell's
    center count, and per step the covering radius of each cell that took a
    center in it (step 0: every cell's radius around its first center).
    """
    order, starts, sizes = _segments(labels)
    seg, cols = labels[order], order % dist.shape[1]
    rank = np.zeros(labels.size, dtype=np.int64)
    counts = np.empty(len(ks), dtype=np.int64)
    center = order[_first_max(norms[order], starts, seg)]
    # distance to, and rank of, each point's nearest center, the points in the order of ``order``
    near = dist[center[seg], cols]
    nearest = np.zeros(order.size, dtype=np.int64)
    far = _first_max(near, starts, seg)
    radii = [near[far]]
    cells, limit = np.arange(len(ks)), np.asarray(ks)  # the cells still taking centers
    step = 0
    while True:
        # each cell still taking centers holds ``step`` of them; the next has rank ``step``
        step += 1
        more = (limit > step) & (radii[-1] > 0.0)
        center = order[far]
        if not more.all():
            keep = more[seg]
            rank[order[~keep]] = nearest[~keep]
            counts[cells[~more]] = step
            order, cols, near, nearest = order[keep], cols[keep], near[keep], nearest[keep]
            cells, limit, center, sizes = cells[more], limit[more], center[more], sizes[more]
            if not cells.size:
                return rank, counts, radii
            seg = (np.cumsum(more) - 1)[seg[keep]]
            starts = np.cumsum(sizes) - sizes
        moved = dist[center[seg], cols]
        np.putmask(nearest, moved < near, step)
        np.minimum(near, moved, out=near)
        far = _first_max(near, starts, seg)
        radii.append(near[far])


def _take_from_largest(values: np.ndarray, count: int, last: bool) -> np.ndarray:
    """How many units each entry gives when ``count`` units are taken one at a
    time, each from a currently largest entry, ties to the lowest index (the
    highest when ``last``).  ``count`` is at most the sum of the entries."""
    taken = np.zeros_like(values)
    if count <= 0:
        return taken
    # the lowest level t with sum(max(values - t, 0)) <= count
    lo, hi = 0, int(values.max())
    while lo < hi:
        mid = (lo + hi) // 2
        if np.maximum(values - mid, 0).sum() <= count:
            hi = mid
        else:
            lo = mid + 1
    taken = np.maximum(values - lo, 0)
    # the units left each come from one more entry standing at level lo
    at = np.flatnonzero(values >= lo)
    left = count - int(taken.sum())
    taken[at[at.size - left:] if last else at[:left]] += 1
    return taken


def _allocations(sizes: np.ndarray, hard: int | None, m: int) -> np.ndarray:
    """Each cell's number of centers at a level with cardinality cap ``hard``."""
    target = m if hard is None else -(-hard // sizes.size)
    allocs = np.minimum(sizes, target)
    total = int(allocs.sum())
    if hard is not None and total > hard:
        # ceil rounding overshot the cardinality cap; trim largest shares
        return allocs - _take_from_largest(allocs, total - hard, last=True)
    # redistribute unused share to the cells still short of splitting
    deficits = sizes - allocs
    cap = m if hard is None else min(hard, m)
    return allocs + _take_from_largest(deficits, min(cap - total, int(deficits.sum())), last=False)


def _greedy_labels(
    dist: np.ndarray, norms: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy trees of K sets of m points, built as one forest: their
    (levels, K * m) labels, point P = k * m + i being point i of tree k, and
    each tree's depth, its own number of levels.  ``dist`` is the (K, m, m)
    stack of the sets' distance matrices, and ``norms`` and the rows of
    ``points`` are the K * m points' center norms and coordinates (or any rows
    equal exactly where the points are).

    Level 0 is one cell per tree, and each later level splits every cell of
    every tree in one farthest-point pass, each tree under its own budget.
    Levels past a tree's depth repeat its last labels.
    """
    trees, m = dist.shape[:2]
    tree = np.arange(trees * m) // m
    rows, depths = [tree], np.full(trees, _MAX_LEVELS)
    for n in range(1, _MAX_LEVELS):
        row = rows[-1]
        is_point = _point_cells(points, row)
        cell_tree = np.empty(is_point.size, dtype=np.int64)
        cell_tree[row] = tree  # trees number their cells in turn
        done = np.bincount(cell_tree, ~is_point, trees) == 0
        depths[done] = np.minimum(depths[done], n)
        if done.all():
            break
        sizes = np.bincount(row)
        # a zero-diameter cell cannot split; it takes exactly one slot
        allocs = np.where(is_point, 1, sizes)
        bounds = np.searchsorted(cell_tree, np.arange(trees + 1))
        for k in np.flatnonzero(~done):
            cells = slice(bounds[k], bounds[k + 1])
            allocs[cells] = _allocations(allocs[cells], _level_budget(n), m)
        split = (allocs > 1) & ~is_point
        rank, counts, _ = _farthest_points(
            dist.reshape(trees * m, m), norms, row, np.where(split, allocs, 1)
        )
        stuck = split & (counts == 1) & (allocs == sizes)
        if stuck.any():
            order, starts, _ = _segments(row)
            within = np.empty(row.size, dtype=np.int64)
            within[order] = np.arange(row.size) - starts[row[order]]
            rank = np.where(stuck[row], within, rank)
            counts = np.where(stuck, sizes, counts)
        rows.append((np.cumsum(counts) - counts)[row] + rank)
    return np.array(rows), depths


def build_greedy_tree(pset: PointSet, metric: Metric) -> PartitionTree:
    """Admissible tree by recursive greedy farthest-point k-center splits.

    At level n each surviving cell receives an equal share of the level
    budget 2^(2^n), rounded up and capped by cell size; share left unused by
    small cells is redistributed to cells still short of splitting, and if
    ceil rounding overshoots the hard cardinality cap the largest allocations
    are trimmed.  Every cell of a level is split in one farthest-point pass.
    Construction stops at the first level where every cell has zero diameter.
    The tree is the one-tree forest of ``_greedy_labels``, the builder that
    ``epi_gamma2`` runs over every T_pi at once.

    Distinct points whose distances all underflow to 0 cannot be told apart
    by distance: a cell of them keeps one center until its share covers its
    size, and then splits into singletons.
    """
    dist = _distance_matrix(pset, metric)
    labels = _greedy_labels(dist[None], _center_norms(pset.points, metric), pset.points)[0]
    return _tree(pset, labels)


def _sup_level_sum(
    labels: np.ndarray,
    mats: Sequence[np.ndarray],
    coeffs: Sequence[Sequence[float]],
    depths: np.ndarray | None = None,
) -> np.ndarray:
    """Per tree of a forest of K trees of m points (see ``_greedy_labels``),
    sup over its points t of sum_n of level n's value on A_n(t), the cells read
    from the (levels, K * m) labels: the max over the cell's point pairs i <= j
    of sum_k coeffs[n][k] * mats[k][tree, i, j], for (K, m, m) stacks of
    symmetric mats and coeffs > 0.  A tree adds nothing from the levels at and
    past its entry of ``depths``.

    A level of one cell per tree is read in bands of rows of each tree's mats
    themselves (views).  Any other level is one list of its in-cell pairs, each
    point with itself and the later points of its cell, gathered by flat index
    in blocks of whole points' pairs.  A block holds at most _GATHER_ENTRIES
    pairs, or one point's where those are more, and so bounds every temporary
    of the read.  A sum that overflows float64 raises ValueError.
    """
    trees, m = mats[0].shape[:2]
    band = max(1, _GATHER_ENTRIES // m)
    acc = np.zeros((trees, m))
    with np.errstate(over="ignore"):  # an overflow leaves inf, checked once below
        for n, row in enumerate(labels):
            if row.max() + 1 == trees:  # one cell per tree, of all of its points
                gain = np.empty((trees, 1))
                for k in range(trees):
                    views = ((mat[k, i:i + band, i:] for mat in mats) for i in range(0, m, band))
                    gain[k] = max(
                        reduce(np.add, map(np.multiply, coeffs[n], parts)).max() for parts in views
                    )
            else:
                order, starts, sizes = _segments(row)
                cols = order % m  # each point's column in its tree's mats
                # position p, in cell order, pairs with itself and the later positions of its cell
                counts = np.repeat(starts + sizes, sizes) - np.arange(row.size)
                last = np.cumsum(counts)
                point_max, p = np.empty(row.size), 0
                while p < row.size:
                    base = last[p] - counts[p]
                    q = max(p + 1, int(np.searchsorted(last, base + _GATHER_ENTRIES, side="right")))
                    firsts = last[p:q] - counts[p:q] - base
                    flat = np.repeat(np.arange(p, q) - firsts, counts[p:q])
                    flat += np.arange(flat.size)  # each pair's second position
                    flat = cols[flat]
                    flat += np.repeat(order[p:q] * m, counts[p:q])  # each pair's flat index
                    values = reduce(
                        np.add, map(np.multiply, coeffs[n], (mat.take(flat) for mat in mats))
                    )
                    point_max[p:q] = np.maximum.reduceat(values, firsts)
                    del flat, values  # before the next block's are built
                    p = q
                gain = np.maximum.reduceat(point_max, starts)[row].reshape(trees, m)
            if depths is not None:
                gain[depths <= n] = 0.0
            acc += gain
    values = acc.max(axis=1)
    if np.isinf(values).any():
        raise ValueError("the chaining level sum overflows float64")
    return values


def _level_gammas(
    labels: np.ndarray, dist: np.ndarray, alpha: float, depths: np.ndarray | None = None
) -> np.ndarray:
    """Each tree's sup over points of sum_n 2^(n/alpha) * diam(A_n(t)), read by
    ``_sup_level_sum`` from a forest's labels and (K, m, m) distance stack."""
    coeffs = [[_power(2.0, n / alpha, f"level weight 2^({n}/{alpha})")]
              for n in range(len(labels))]
    return _sup_level_sum(labels, [dist], coeffs, depths)


def gamma_from_tree(tree: PartitionTree, alpha: float, metric: Metric) -> GammaValue:
    """sup over points of sum_n 2^(n/alpha) * diam(A_n(t)) for this tree."""
    _check_alpha(alpha)
    labels = validate_admissible(tree)
    dist = _distance_matrix(tree.pointset, metric)
    value = float(_level_gammas(labels, dist[None], alpha)[0])
    return GammaValue(alpha=alpha, value=value, method="greedy_upper")


@lru_cache(maxsize=None)
def _partitions(m: int, max_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Every partition of m points into at most max_blocks blocks, as read-only rows
    of block numbers in restricted-growth form and lexicographic order, and a
    read-only (partitions, pairs) flag of which ``np.triu_indices(m, 1)`` pairs share
    a block."""
    rows = [(0,)]
    for _ in range(1, m):  # each row grows by every block it uses and one new block
        rows = [row + (b,) for row in rows for b in range(min(max(row) + 2, max_blocks))]
    parts = np.array(rows, dtype=np.int64)
    i, j = np.triu_indices(m, 1)
    shared = parts[:, i] == parts[:, j]
    parts.flags.writeable = shared.flags.writeable = False
    return parts, shared


def _best_partition_max_diam(dist: np.ndarray, max_blocks: int) -> tuple[float, list[int]]:
    """Min over partitions into at most max_blocks blocks of the max cell diameter,
    and the first partition in restricted-growth order that attains it, read from
    the table of ``_partitions``; feasible because m <= 8."""
    parts, shared = _partitions(dist.shape[0], max_blocks)
    diams = np.where(shared, dist[np.triu_indices(dist.shape[0], 1)], 0.0).max(axis=1, initial=0.0)
    best = int(diams.argmin())
    return float(diams[best]), parts[best].tolist()


def gamma_exact_small(pset: PointSet, metric: Metric, alpha: float) -> GammaValue:
    """Exact gamma_alpha for m <= 8: the value of the optimal tree ``exact_small_tree``.

    With m <= 8 < 16 every admissible tree can reach singletons by level 2,
    so the infimum is diam(T) + 2^(1/alpha) * min over level-1 partitions
    (at most 4 blocks) of the max cell diameter, which that tree attains.
    """
    value = gamma_from_tree(exact_small_tree(pset, metric), alpha, metric).value
    return GammaValue(alpha=alpha, value=value, method="exact_small")


def _check_exact_size(m: int) -> None:
    if m > 8:
        raise ValueError(f"exact enumeration is limited to m <= 8 points, got {m}")


def _exact_small_labels(dist: np.ndarray) -> np.ndarray:
    """The (levels, K * m) labels of a forest of optimal trees of m <= 8 points, one
    per matrix of the (K, m, m) stack ``dist`` (see ``_greedy_labels``): past 4
    points, level 1 cuts each tree into at most 4 cells of least max diameter."""
    trees, m = dist.shape[:2]
    rows = [np.arange(trees * m) // m]
    if m > 4:
        blocks = np.concatenate([_best_partition_max_diam(d, 4)[1] for d in dist])
        rows.append(np.unique(rows[0] * 4 + blocks, return_inverse=True)[1])  # tree by tree
    if m > 1:  # past 4 points, one of the at most 4 level-1 cells holds two
        rows.append(np.arange(trees * m))
    return np.array(rows)


def exact_small_tree(pset: PointSet, metric: Metric) -> PartitionTree:
    """An optimal admissible tree realizing gamma_exact_small: the one-tree forest
    of ``_exact_small_labels``, which reads a matrix only past 4 points."""
    _check_exact_size(pset.m)
    dist = _distance_matrix(pset, metric) if pset.m > 4 else np.zeros((pset.m, pset.m))
    return _tree(pset, _exact_small_labels(dist[None]))


def dudley_bound(pset: PointSet, metric: Metric) -> GammaValue:
    """Entropy-sum upper companion: sum_n 2^(n/2) e_n with e_n the covering
    radius from greedy farthest-point selection of N_n centers, N_0 = 1 and
    N_n = min(m, 2^(2^n))."""
    m = pset.m
    dist, norms = _distance_matrix(pset, metric), _center_norms(pset.points, metric)
    # one cell of every point: step j gives the radius around j + 1 centers
    steps = _farthest_points(dist, norms, np.zeros(m, dtype=np.int64), np.array([m]))[2]
    radii = np.concatenate(steps).tolist()
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
    radii = [diam]
    for _ in range(47):
        radii.append(radii[-1] * 2.0 ** -0.25)
    eps = np.array(radii)
    # at every radius at once: point 0 is kept, then each point at least eps from
    # all kept before it; nearest[k, j] is point j's distance to radius k's kept
    # points, kept up to date for the points not yet visited (row i is column i)
    nearest = np.repeat(dist[None, 0], eps.size, axis=0)
    counts = np.ones(eps.size, dtype=np.int64)
    for i in range(1, pset.m):
        keep = np.flatnonzero(nearest[:, i] >= eps)
        counts[keep] += 1
        nearest[keep, i + 1:] = np.minimum(nearest[keep, i + 1:], dist[i, i + 1:])
    best = 0.0
    for radius, count in zip(radii, counts.tolist()):
        if count >= 2:
            best = max(best, radius * math.sqrt(math.log(count)))
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
    partition, so either tree may stop short of singletons; both must
    otherwise pass validate_admissible, or NotAdmissibleError is raised.
    """
    if a.pointset is not b.pointset and not np.array_equal(
        a.pointset.points, b.pointset.points
    ):
        raise ValueError("trees must partition the same point set")
    pset = a.pointset
    m = pset.m
    la, lb = _nested_labels(a), _nested_labels(b)
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
    coeffs = [[2.0 ** (k / 2.0), _power(2.0, k / r, f"level weight 2^({k}/{r})")]
              for k in range(len(labels))]
    return float(_sup_level_sum(labels, [d2[None], dinf[None]], coeffs)[0])


def tree_to_jsonable(tree: PartitionTree) -> list[list[list[int]]]:
    """Nested lists (level -> cells -> point indices) for report archival."""
    return [[list(cell) for cell in level] for level in tree.levels]
