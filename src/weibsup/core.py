"""Finite point sets in R^n, lp metrics, and reproducible random streams."""

from __future__ import annotations

import csv
import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Metric",
    "PointSet",
    "RandomStream",
    "distance",
    "diameter",
    "pairwise_distance_matrix",
    "point_norms",
    "load_points_csv",
    "write_points_csv",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of splitmix64, the standard 64-bit finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomStream:
    """Handle for a reproducible sample sequence.

    The pair (seed, substream) fully determines the sequence; distinct
    substreams behave as statistically independent sources.  ``child``
    derives fresh substreams, so estimators can hand one substream to each
    work chunk and stay bit-reproducible for any worker count.
    """

    seed: int
    substream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(self.substream & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(key))

    def child(self, index: int) -> "RandomStream":
        if index < 0:
            raise ValueError("child index must be nonnegative")
        mixed = _splitmix64(((self.substream * 0x9E3779B97F4A7C15) + index + 1) & _MASK64)
        return RandomStream(self.seed, mixed)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _ordered_map(fn: Callable, items: Iterable, workers: int) -> list:
    """[fn(x) for x in items], on a pool of ``workers`` threads when workers > 1.

    Its one caller, ``mcsup._mc_mean``, maps Monte Carlo chunks.  Results keep
    the order of ``items``, so merging them in that order gives the same bits
    for any worker count.  The items are listed first; then at most
    2 * workers of them are queued or running, the next one queued as the
    oldest result is taken.  A count below 1 raises ValueError.  An interrupt
    or a failing item cancels every item not yet started, so only the ones
    running are waited for.
    """
    _check_workers(workers)
    if workers == 1:
        return [fn(x) for x in items]
    items, results = list(items), []
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = [pool.submit(fn, x) for x in items[: 2 * workers]]
        for x in items[2 * workers :]:
            results.append(pending.pop(0).result())
            pending.append(pool.submit(fn, x))
        return results + [future.result() for future in pending]
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class Metric:
    """Metric induced by the lp norm; ``p = inf`` is the sup norm."""

    p: float

    def __post_init__(self) -> None:
        if self.p != math.inf and not self.p >= 1.0:
            raise ValueError(f"lp metric needs p >= 1, got {self.p}")
        object.__setattr__(self, "p", float(self.p))

    @staticmethod
    def l2() -> "Metric":
        return Metric(2.0)

    @staticmethod
    def linf() -> "Metric":
        return Metric(math.inf)

    @staticmethod
    def lp(p: float) -> "Metric":
        if math.isinf(p):
            raise ValueError("lp(inf) is not representable; use Metric.linf()")
        return Metric(float(p))

    def __str__(self) -> str:
        return "linf" if math.isinf(self.p) else f"l{self.p:g}"


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered finite subset of R^n.

    Point order is stable and indices are part of the identity: transforms
    address coordinates by position.  Duplicate points are permitted (the
    weight transforms can collapse distinct points onto each other); the CSV
    loader deduplicates with a warning.
    """

    points: np.ndarray
    label: str | None = None
    # distance matrix per metric, filled on first use by weibsup.gamma; the
    # points are immutable, so a stored matrix cannot go stale
    _distances: dict[Metric, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a point set needs at least one point")
        _check_coordinates(pts)
        if not np.all(np.isfinite(pts)):
            raise ValueError("all coordinates must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


def _power(base: float, exponent: float, quantity: str) -> float:
    """base ** exponent, or ValueError naming ``quantity`` where that overflows
    float64, also where the exponent itself overflowed to inf (a ratio over a
    subnormal), for which ** returns inf without raising."""
    try:
        value = base ** exponent
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(f"{quantity} overflows float64")
    return value


def _check_coordinates(pts: np.ndarray) -> None:
    """Raise ValueError unless the points, along the last axis, have a coordinate:
    without one, no kernel here has a norm to take."""
    if pts.ndim == 0 or pts.shape[-1] < 1:
        raise ValueError("points need at least one coordinate")


def distance(a: Sequence[float], b: Sequence[float], metric: Metric) -> float:
    """Distance between two vectors under the given lp metric: the entry of their
    distance matrix, so it overflows, raising ValueError, where that does."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.ndim != 1 or bv.ndim != 1:
        raise ValueError("distance expects 1-D vectors")
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    return float(pairwise_distance_matrix(np.stack([av, bv]), metric)[0, 1])


def point_norms(points: np.ndarray, metric: Metric) -> np.ndarray:
    """Norm of each row of ``points`` under the metric's norm: the distance the
    distance matrix gives between that row and the origin.  Each l2 row is unit
    scaled on its own (``_unit_scaled`` per row), so a norm is inf only where it
    overflows float64 itself, and short of underflow it has the unscaled bits."""
    x = np.asarray(points, dtype=np.float64)
    _check_coordinates(x)
    if metric.p != 2.0:
        return _row_norms(x.copy(), metric)
    scaled, exp = _unit_scaled(x, axis=-1)
    return np.ldexp(_row_norms(scaled, metric), exp[..., 0])


def _row_norms(x: np.ndarray, metric: Metric) -> np.ndarray:
    """The unscaled norm along the last axis of the float64 array ``x``, which it
    overwrites: the kernel of every distance here."""
    if math.isinf(metric.p):
        return np.max(np.abs(x, out=x), axis=-1)
    if metric.p == 2.0:
        return np.sqrt(np.sum(np.square(x, out=x), axis=-1))
    return np.sum(np.power(np.abs(x, out=x), metric.p, out=x), axis=-1) ** (1.0 / metric.p)


def _unit_scaled(x: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """x times 2^-e, and e, which puts the largest |entry| of x, or of each slice
    along ``axis``, in [1/2, 1) (e is kept as a length-1 axis, so it broadcasts).
    No square, l2 norm or sum of the scaled entries overflows, and short of
    underflow one computed from them is the unscaled one times 2^-e exactly."""
    x = np.asarray(x, dtype=np.float64)
    exp = np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))[1]
    return np.ldexp(x, -exp), exp


def _axis_form(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(axes, values) when every point has at most one nonzero coordinate, point i
    then being values[i] on coordinate axis axes[i] (a zero point is axis 0, value
    0); None for any other set.  On such a set every dot product and every
    distance has one or two nonzero terms, which the kernels here read directly."""
    nonzero = points != 0.0
    if (np.count_nonzero(nonzero, axis=1) > 1).any():
        return None
    axes = nonzero.argmax(axis=1)
    return axes, points[np.arange(points.shape[0]), axes]


def _check_distances(out: np.ndarray, metric: Metric) -> np.ndarray:
    if not out.max(initial=0.0) < np.inf:  # also catches NaN
        raise ValueError(f"{metric} distances between these points overflow float64")
    return out


def _axis_distance_matrix(axes: np.ndarray, values: np.ndarray, metric: Metric) -> np.ndarray:
    """The l2 or linf matrix of points on coordinate axes (see ``_axis_form``), with
    the walker's bits.  From the unit-scaled values v, an entry is, under l2,
    sqrt(square(v_i) + square(v_j)) between points on two axes and
    sqrt(square(v_i - v_j)) on one; under linf, max(|v_i|, |v_j|) and |v_i - v_j|.
    Those are the walker's sums and maxima less their exact zeros.  Rows are
    written into the output in blocks of at most 2^16 entries (one row if a row
    is longer): the cross-axis value in place, then the one-axis value, from one
    reused buffer, where the axes agree.  The output is scaled back in place,
    and an overflow raises the walker's ValueError."""
    v, exp = _unit_scaled(values)
    m = v.size
    l2 = metric.p == 2.0
    term, cross = (np.square, np.add) if l2 else (np.abs, np.maximum)
    terms = term(v)
    rows = max(1, min(m, 2**16 // max(1, m)))
    out, same_buf = np.empty((m, m)), np.empty(rows * m)
    for i0 in range(0, m, rows):
        block = out[i0:i0 + rows]
        i1 = i0 + len(block)
        same = np.subtract(v[i0:i1, None], v, out=same_buf[: block.size].reshape(block.shape))
        term(same, out=same)
        cross(terms[i0:i1, None], terms, out=block)
        np.copyto(block, same, where=axes[i0:i1, None] == axes)
        if l2:
            np.sqrt(block, out=block)
    with np.errstate(over="ignore"):  # an overflow is rejected below, not warned about
        np.ldexp(out, exp, out=out)
    return _check_distances(out, metric)


def _distance_matrices(pts: np.ndarray, metric: Metric, rows: int, reduce: Callable) -> np.ndarray:
    """The distance matrices ``reduce`` gives of the points, each pair computed once.

    The upper triangle is walked in blocks of ``rows`` rows.  A block's differences
    t_i - t_j (j >= i) fill one (b, w, n) buffer, which ``reduce`` may overwrite as
    it turns them into distances, a writable (..., b, w) array.  Each block is
    mirrored into its columns: fl(t_j - t_i) = -fl(t_i - t_j) and no distance
    reads signs, so every matrix is exactly symmetric.  Under l2 and linf the
    points are unit scaled and each block scaled back in place, which changes no
    bit short of underflow, so only a distance that itself overflows float64
    raises ValueError (under other p, also one whose p-th power does)."""
    exp = 0
    if metric.p in (2.0, math.inf):
        pts, exp = _unit_scaled(pts)
    m, n = pts.shape
    diff_buf, col = np.empty(rows * m * n), pts[:, None]
    # an empty block tells how many matrices the reduction gives
    out = np.empty(reduce(diff_buf[:0].reshape(0, 0, n)).shape[:-2] + (m, m))
    mirror = np.swapaxes(out, -1, -2)
    with np.errstate(over="ignore"):  # an overflow is rejected below, not warned about
        for i0 in range(0, m, rows):
            i1 = min(i0 + rows, m)
            diff = diff_buf[: (i1 - i0) * (m - i0) * n].reshape(i1 - i0, m - i0, n)
            block = reduce(np.subtract(col[i0:i1], pts[i0:], out=diff))
            np.ldexp(block, exp, out=block)
            mirror[..., i0:i1, i0:] = block
            out[..., i0:i1, i0:] = block
            for r in range(i1 - i0 - 1):  # inside the block, the lower half mirrors the upper
                out[..., i0 + r + 1:i1, i0 + r] = block[..., r, r + 1:i1 - i0]
    return _check_distances(out, metric)


def _weighted_l2_matrices(points: np.ndarray, sq_weights: np.ndarray) -> np.ndarray:
    """Read-only (K, m, m) array: matrix k is sqrt(sum_c a_c (t_ic - t_jc)^2),
    with a = sq_weights[k], the l2 matrix of the points with coordinate c
    weighted by sqrt(a_c).  Blocks are max(1, m // n) rows high, about m^2 squared
    differences at most (m * n when n > m), and BLAS fixes the bits of a product
    by that shape.  Each block is squared once and multiplied by each weight row
    separately, so matrix k has the same bits for any K."""
    pts, a = np.asarray(points, dtype=np.float64), np.asarray(sq_weights, dtype=np.float64)
    _check_coordinates(pts)
    m, n = pts.shape
    rows = max(1, m // n)
    sums_buf = np.empty(len(a) * rows * m)

    def weighted_norms(diff: np.ndarray) -> np.ndarray:
        sq = np.square(diff, out=diff).reshape(-1, n)
        sums = sums_buf[: len(a) * len(sq)].reshape(len(a), -1)
        for a_k, s_k in zip(a, sums):
            np.matmul(sq, a_k, out=s_k)
        return np.sqrt(sums, out=sums).reshape(len(a), *diff.shape[:2])

    out = _distance_matrices(pts, Metric.l2(), rows, weighted_norms)
    out.flags.writeable = False
    return out


def pairwise_distance_matrix(points: np.ndarray | PointSet, metric: Metric) -> np.ndarray:
    """Dense m-by-m distance matrix.  Its bits do not depend on the block height, so
    a block is as many rows as fit 2^16 differences (one row if a row is larger):
    enough to spread the walk's per-block work over short rows, and too few to
    add more than 512 KB to the matrix's own O(m^2) memory.

    Under l2 and linf, a set whose points each lie on a coordinate axis is not
    walked: ``_axis_distance_matrix`` gives it the same bits in O(m^2) instead
    of O(m^2 n)."""
    pts = points.points if isinstance(points, PointSet) else np.asarray(points, float)
    _check_coordinates(pts)
    axis = _axis_form(pts) if pts.ndim == 2 and metric.p in (2.0, math.inf) else None
    if axis is not None:
        return _axis_distance_matrix(*axis, metric)
    rows = max(1, 2**16 // max(1, pts.size))
    return _distance_matrices(pts, metric, rows, functools.partial(_row_norms, metric=metric))


def diameter(pset: PointSet, subset: Sequence[int], metric: Metric) -> float:
    """Max pairwise distance over the subset; zero for singletons."""
    idx = np.asarray(subset, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("subset must be a nonempty index list")
    if idx.min() < 0 or idx.max() >= pset.m:
        raise ValueError(f"subset indices must lie in [0, {pset.m})")
    if idx.size == 1:
        return 0.0
    return float(pairwise_distance_matrix(pset.points[idx], metric).max())


def _row_keys(points: np.ndarray) -> np.ndarray:
    """One void key per row of a C-contiguous (m, d) float array, equal exactly where
    the rows are equal as points (adding 0.0 turns -0.0 into +0.0)."""
    return (points + 0.0).view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel()


def dedupe_points(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Drop rows equal as points to an earlier row, keeping first occurrences in order."""
    keep = np.sort(np.unique(_row_keys(points), return_index=True)[1])
    return points[keep], points.shape[0] - keep.size


def load_points_csv(path: str, label: str | None = None) -> PointSet:
    """Load a point set from CSV: one point per row, ``dim`` columns.

    An optional single header row starting with '#' is skipped.  Ragged
    rows are rejected; a point equal to an earlier one (-0.0 equal to 0.0) is
    dropped with a warning.
    """
    rows: list[list[float]] = []
    row_numbers: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first_content = True
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if first_content and row[0].lstrip().startswith("#"):
                first_content = False
                continue
            first_content = False
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite entry")
            row_numbers.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no points found")
    width = len(rows[0])
    for lineno, row in zip(row_numbers, rows):
        if len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: ragged row ({len(row)} columns, expected {width})"
            )
    pts = np.asarray(rows, dtype=np.float64)
    pts, dropped = dedupe_points(pts)
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} duplicate point(s)", stacklevel=2)
    return PointSet(pts, label=label if label is not None else path)


def write_points_csv(pset: PointSet, path: str, comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if comment is not None:
            writer.writerow([f"# {comment}"])
        for row in pset.points:
            writer.writerow([repr(float(x)) for x in row])
