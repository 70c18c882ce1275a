"""Finite point sets in R^n, lp metrics, and reproducible random streams."""

from __future__ import annotations

import csv
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


def _ordered_map(fn: Callable, items: Iterable, workers: int) -> list:
    """[fn(x) for x in items], on a pool of ``workers`` threads when workers > 1.

    Results keep the order of ``items``, so callers that merge them in that
    order get the same bits for any worker count.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


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
        if pts.shape[1] < 1:
            raise ValueError("points need at least one coordinate")
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


def distance(a: Sequence[float], b: Sequence[float], metric: Metric) -> float:
    """Distance between two vectors under the given lp metric."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.ndim != 1 or bv.ndim != 1:
        raise ValueError("distance expects 1-D vectors")
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    # a one-row array: numpy's scalar power can differ in the last bit from its
    # array loop, which the matrix and the norms use
    return float(point_norms((av - bv)[None, :], metric)[0])


def point_norms(points: np.ndarray, metric: Metric) -> np.ndarray:
    """Norm of each row of ``points`` under the metric's norm; every distance here is one."""
    x = np.asarray(points, dtype=np.float64)
    if math.isinf(metric.p):
        return np.max(np.abs(x), axis=1)
    if metric.p == 2.0:
        return np.sqrt(np.sum(x * x, axis=1))
    return np.sum(np.abs(x) ** metric.p, axis=1) ** (1.0 / metric.p)


def pairwise_distance_matrix(points: np.ndarray | PointSet, metric: Metric) -> np.ndarray:
    """Dense m-by-m distance matrix, built one row at a time in O(m^2) memory.

    Each unordered pair is computed once and mirrored: fl(b - a) = -fl(a - b)
    and every norm ignores signs, so the mirrored entry has the bits its own
    row would give it, and the matrix is exactly symmetric.  Finite points
    whose distances overflow float64 raise ValueError.
    """
    pts = points.points if isinstance(points, PointSet) else np.asarray(points, float)
    out = np.empty((pts.shape[0], pts.shape[0]))
    with np.errstate(over="ignore"):  # an overflow is rejected below, not warned about
        for i in range(pts.shape[0]):
            out[i, i:] = point_norms(pts[i] - pts[i:], metric)
            out[i + 1:, i] = out[i, i + 1:]
    if not np.isfinite(out).all():
        raise ValueError(f"{metric} distances between these points overflow float64")
    return out


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


def dedupe_points(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Drop exact duplicate rows, keeping first occurrences in order."""
    keep: list[int] = []
    seen: set[bytes] = set()
    for i in range(points.shape[0]):
        key = points[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return points[keep], points.shape[0] - len(keep)


def load_points_csv(path: str, label: str | None = None) -> PointSet:
    """Load a point set from CSV: one point per row, ``dim`` columns.

    An optional single header row starting with '#' is skipped.  Ragged
    rows are rejected; exact duplicate points are dropped with a warning.
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
