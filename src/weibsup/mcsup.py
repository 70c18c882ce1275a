"""Monte Carlo estimation of expected suprema over finite point sets.

Each draw samples the driving vector, evaluates the exact maximum of the
linear process over the point list, and the estimate is the sample mean.
Sampling is chunked with one substream per chunk and a fixed merge order,
so estimates are bit-identical for any worker count; ``_mc_mean`` alone
splits a chunk into row blocks, so no chunk holds all its rows' values.
A block's maxima come from its coefficient rows times the points, a dense
O(m n) product per draw, except on a set whose points each lie on a
coordinate axis: there the maximum is max_i a_i X_{axis(i)}, O(m) per draw,
with the product's bits.

Order-statistic probes evaluate P(Y*_k >= u) in closed form: the count of
magnitudes above u is Binomial(n, q) with q = exp(-u^s), so the tail is a
binomial survival function, computed as the regularized incomplete beta
I_q(k, n-k+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import PointSet, RandomStream, _axis_form, _ordered_map, _unit_scaled
from .laws import _flip_signs, abs_weibull, conjugate_exponent, symmetric_weibull

__all__ = [
    "CHUNK_SIZE",
    "NonFiniteSampleError",
    "Driver",
    "SupEstimate",
    "ProbeLevel",
    "ProbeSchedule",
    "ScheduleCheck",
    "LevelCheck",
    "esup_mc",
    "esup_rep_mc",
    "esup_permuted_weighted",
    "esup_permuted_prefixes",
    "rearrange_nonincreasing",
    "order_stat_tail",
    "build_probe_schedule",
    "probe_schedule_check",
]

CHUNK_SIZE = 4096


class NonFiniteSampleError(RuntimeError):
    """A Monte Carlo draw produced a non-finite value."""


# the first is the default of `weibsup simulate --driver`
_DRIVER_KINDS = ("gaussian", "rademacher", "weibull", "cond_gaussian")


@dataclass(frozen=True)
class Driver:
    """Law of the independent driving vector (X_1, ..., X_n).

    ``cond_gaussian`` draws g_j * Y_j with i.i.d. magnitudes Y_j of tail
    exp(-t^s) and independent Gaussians g: equal in law to the rearrangement
    representation g_j * Y*_{pi^{-1}(j)}, because i.i.d. magnitudes are
    exchangeable, so their non-increasing rearrangement moved by an
    independent uniform permutation is again i.i.d.
    """

    kind: str
    r: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _DRIVER_KINDS:
            raise ValueError(f"unknown driver kind {self.kind!r}")
        if self.kind == "weibull":
            if self.r is None or not 0.0 < self.r <= 2.0:
                raise ValueError("weibull driver needs r in (0, 2]")
        elif self.kind == "cond_gaussian":
            if self.r is None or not 0.0 < self.r < 2.0:
                raise ValueError("cond_gaussian driver needs r in (0, 2)")
        elif self.r is not None:
            raise ValueError(f"{self.kind} driver takes no r parameter")

    @staticmethod
    def gaussian() -> "Driver":
        return Driver("gaussian")

    @staticmethod
    def rademacher() -> "Driver":
        return Driver("rademacher")

    @staticmethod
    def weibull(r: float) -> "Driver":
        return Driver("weibull", r=float(r))

    @staticmethod
    def cond_gaussian(r: float) -> "Driver":
        return Driver("cond_gaussian", r=float(r))

    def coefficients(self, rng: np.random.Generator, count: int, n: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal((count, n))
        if self.kind == "rademacher":
            return _flip_signs(rng, np.ones((count, n)))
        if self.kind == "weibull":
            return symmetric_weibull(rng, self.r, (count, n))
        mags = abs_weibull(rng, conjugate_exponent(self.r), (count, n))
        mags *= rng.standard_normal((count, n))
        return mags

    def describe(self) -> str:
        return self.kind if self.r is None else f"{self.kind}(r={self.r:g})"


@dataclass(frozen=True)
class SupEstimate:
    """Monte Carlo estimate of an expected supremum."""

    mean: float
    stderr: float
    samples: int
    seed: int


def _mc_mean(
    block_values: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    stream: RandomStream,
    workers: int = 1,
    width: int = 1,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Chunked Monte Carlo mean and standard error of the mean.

    Chunk idx holds draws idx * CHUNK_SIZE onward, from substream idx, and
    stacks ``block_values(rng, rows)`` over consecutive blocks of
    max(1, 2^16 // width) of its rows, all from its one generator.  With
    ``width`` the most values a row takes at any step, a block holds at most
    2^16 of them (one row if a row has more).  Chunks, substreams and blocks
    depend only on ``samples``, ``stream`` and ``width``, and per-chunk
    (count, sum, M2) are merged in chunk order with the Chan-Golub-LeVeque
    update, so the result does not depend on ``workers`` and the variance
    does not cancel when the mean dwarfs the spread.  Each chunk column is
    unit scaled (``core._unit_scaled``) before its sum and M2 are taken, and
    the merge rescales both to one 2^top above every |draw| of the column:
    the mean is fsum of the rescaled sums over ``samples``, times 2^top.  So
    no sum or square overflows, and short of underflow no bit changes.

    Draws of shape (count, K) are K columns, merged in one array pass: the
    mean and stderr are then arrays of K entries, entry k with the bits a
    call drawing only column k would give.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    height = max(1, 2**16 // width)

    def run_chunk(idx: int) -> tuple:
        start = idx * CHUNK_SIZE
        size = min(CHUNK_SIZE, samples - start)
        rng = stream.child(idx).generator()
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite draws raise below
            vals = np.concatenate(
                [block_values(rng, min(height, size - i)) for i in range(0, size, height)],
                dtype=np.float64,
            )
        # one contiguous row per column, so each row sums as that column alone would
        cols = np.ascontiguousarray(vals.reshape(size, -1).T)
        finite = np.isfinite(cols).all(axis=0)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteSampleError(f"draw {start + bad} produced a non-finite value")
        scaled, exp = _unit_scaled(cols, axis=1)
        part = scaled.sum(axis=1)
        chunk_m2 = np.square(scaled - (part / size)[:, None]).sum(axis=1)
        return vals.shape[1:], size, exp[:, 0], part, chunk_m2

    partials = _ordered_map(run_chunk, range(-(-samples // CHUNK_SIZE)), workers)
    shape = partials[0][0]
    _, sizes, exps, parts, m2s = zip(*partials)
    top = np.max(exps, axis=0)
    # every chunk's sums and M2s times 2^-top and 2^-2top, as (chunks, K) arrays
    parts, m2s = np.ldexp(parts, exps - top), np.ldexp(m2s, 2 * (exps - top))
    count, run_mean, m2 = 0, 0.0, 0.0
    for size, part, chunk_m2 in zip(sizes, parts, m2s):
        merged = count + size
        delta = part / size - run_mean
        run_mean += delta * size / merged
        m2 += chunk_m2 + delta * delta * count * size / merged
        count = merged
    means = np.ldexp(np.array([math.fsum(col) for col in parts.T]) / samples, top)
    stderrs = np.ldexp(np.sqrt(m2 / (samples - 1) / samples), top)
    if not shape:
        return float(means[0]), float(stderrs[0])
    return means.reshape(shape), stderrs.reshape(shape)


def _row_sups(coeffs: np.ndarray, points_t: np.ndarray) -> np.ndarray:
    """Each coefficient row's maximum over the points (one ``_mc_mean`` block), plus
    0.0, so a zero maximum reads +0 where BLAS rounds an underflowing product to -0."""
    return (coeffs @ points_t).max(axis=1) + 0.0


def _axis_row_sups(coeffs: np.ndarray, axes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``_row_sups`` of points on coordinate axes (``core._axis_form``): each row's
    max over i of values[i] * coeffs[:, axes[i]], the one nonzero term of each dot
    product, plus 0.0 as there.  A row with a non-finite coefficient, where the
    product's inf * 0 gives NaN, gives NaN."""
    prods = coeffs.take(axes, axis=1)
    prods *= values
    sups = prods.max(axis=1)
    sups += 0.0
    sups[~np.isfinite(coeffs).all(axis=1)] = np.nan
    return sups


def _sups_reader(pset: PointSet) -> Callable[[np.ndarray], np.ndarray]:
    """Coefficient rows -> their maxima over the set's points: ``_axis_row_sups``,
    O(m) per row, when every point lies on a coordinate axis, else ``_row_sups``,
    O(m n) per row.  Both give the same bits on an axis set."""
    axis = _axis_form(pset.points)
    if axis is not None:
        return lambda coeffs: _axis_row_sups(coeffs, *axis)
    points_t = np.ascontiguousarray(pset.points.T)
    return lambda coeffs: _row_sups(coeffs, points_t)


def _esup(
    pset: PointSet,
    coefficient_blocks: Callable[[np.random.Generator, int, int], Iterable[np.ndarray]],
    samples: int,
    stream: RandomStream,
    workers: int,
) -> list[SupEstimate]:
    """Monte Carlo E max over the points of <coeff, t>: one estimate per block of
    coefficient rows that ``coefficient_blocks(rng, count, dim)`` yields for
    ``count`` draws, with the bits of a call yielding only that block (see
    ``_mc_mean`` on columns).

    ``_mc_mean`` hands each chunk's rows over in blocks of
    max(1, 2^16 // max(m, n)), and each yielded block is reduced before the
    next is drawn, so a chunk never holds its count x n coefficients, a
    count x m product or two coefficient blocks.  ``_sups_reader`` reduces a
    block: on points that each lie on a coordinate axis it reads one
    coefficient per point, not the whole product.  A sampler that draws
    several arrays per call, such as magnitudes and then signs, takes them
    block by block: the law of the draws is that of one whole-chunk call, but
    not their bits.
    """
    row_sups, n = _sups_reader(pset), pset.dim

    def block_sups(rng: np.random.Generator, rows: int) -> np.ndarray:
        return np.stack(list(map(row_sups, coefficient_blocks(rng, rows, n))), axis=1)

    means, stderrs = _mc_mean(block_sups, samples, stream, workers, max(pset.m, n))
    return [
        SupEstimate(mean=float(mean), stderr=float(stderr), samples=samples, seed=stream.seed)
        for mean, stderr in zip(means, stderrs)
    ]


def esup_mc(
    pset: PointSet,
    driver: Driver,
    samples: int,
    stream: RandomStream,
    workers: int = 1,
) -> SupEstimate:
    """E sup_{t in T} sum_k t_k X_k by Monte Carlo over independent draws."""
    (est,) = _esup(pset, lambda rng, rows, n: [driver.coefficients(rng, rows, n)],
                   samples, stream, workers)
    return est


def esup_rep_mc(
    pset: PointSet,
    r: float,
    samples: int,
    stream: RandomStream,
    workers: int = 1,
) -> SupEstimate:
    """Expected supremum of the rearrangement representation for this r."""
    return esup_mc(pset, Driver.cond_gaussian(r), samples, stream, workers)


def esup_permuted_weighted(
    pset: PointSet,
    weights: np.ndarray,
    prefix_len: int,
    samples: int,
    stream: RandomStream,
    workers: int = 1,
) -> SupEstimate:
    """E sup_t sum_{k <= prefix_len} t_{pi(k)} g_{pi(k)} a_k for fixed weights a.

    Draws (g, pi) identically for every prefix length, so estimates at
    different prefixes from the same stream share their randomness.  Each
    draw gives coordinate j the coefficient g_j * a_{pi(j)}, not the
    g_j * a_{pi^{-1}(j)} of the sum above: pi is uniform, so a(pi) and
    a(pi^{-1}) have the same law.
    """
    (est,) = esup_permuted_prefixes(pset, weights, (prefix_len,), samples, stream, workers)
    return est


def esup_permuted_prefixes(
    pset: PointSet,
    weights: np.ndarray,
    prefix_lens: Sequence[int],
    samples: int,
    stream: RandomStream,
    workers: int = 1,
) -> list[SupEstimate]:
    """``esup_permuted_weighted`` at each prefix length, from one draw of (g, pi)
    per sample: estimate k has the bits of ``esup_permuted_weighted`` at
    ``prefix_lens[k]`` on the same stream.

    A draw permutes the coordinate indices, idx, and not the weights: the
    generator shuffles a tiled ``arange(n)`` exactly as it shuffles the tiled
    weights, so g * masked[idx] is the coefficient row of each prefix's mask.
    A block of rows draws its g and idx and yields its prefixes' coefficients
    one at a time to ``_esup``, which reduces each before the next is formed:
    beside the block's g and idx it holds one block of coefficients and one of
    the product, never a (count, n) array or a (count, m) product.
    """
    a = np.asarray(weights, dtype=np.float64)
    n = pset.dim
    if a.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {a.shape}")
    if len(prefix_lens) == 0:
        raise ValueError("need at least one prefix length")
    for prefix_len in prefix_lens:
        if not 1 <= prefix_len <= n:
            raise ValueError(f"prefix length must lie in [1, {n}], got {prefix_len}")
    masks = [np.where(np.arange(n) < prefix_len, a, 0.0) for prefix_len in prefix_lens]

    def coefficient_blocks(rng: np.random.Generator, rows: int, n: int) -> Iterable[np.ndarray]:
        g = rng.standard_normal((rows, n))
        idx = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
        for masked in masks:
            yield g * masked[idx]

    return _esup(pset, coefficient_blocks, samples, stream, workers)


def rearrange_nonincreasing(values) -> np.ndarray:
    """Absolute values sorted non-increasingly; ties keep first-occurrence order."""
    arr = np.abs(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-D sequence")
    return -np.sort(-arr, kind="stable")


def order_stat_tail(n: int, s: float, k: int, u: float) -> float:
    """Exact P(Y*_k >= u) when the Y_i have tail exp(-t^s).

    The event is {at least k of n magnitudes exceed u}, a binomial tail
    with success probability q = exp(-u^s).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if not s > 0.0:
        raise ValueError(f"tail exponent must be positive, got {s}")
    if u < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {u}")
    from scipy.special import betainc

    q = math.exp(-(u**s))
    return float(betainc(k, n - k + 1, q))


@dataclass(frozen=True)
class ProbeLevel:
    j: int
    k: int
    theta: float | None
    u: float


@dataclass(frozen=True)
class ProbeSchedule:
    """Doubly exponential probe levels k_j = ceil(n / 2^(2^j)).

    The level count m satisfies 2^(2^m) < n <= 2^(2^(m+1)).  The lower
    flavor probes u_j = (log(theta_j n / k_j))^(1/s) with theta_j =
    2^(-2^(j-1)) for j = 0..m; the upper flavor probes u_j =
    (log(n / k_j))^(1/s) for j = 0..m+1 with k_{m+1} = 1.  k strictly
    decreases in both: n > 2^(2^m) gives k_m >= 2, and k_{j+1} <= ceil(k_j / 2).
    """

    n: int
    s: float
    flavor: str
    m: int
    levels: tuple[ProbeLevel, ...]


def _level_count(n: int) -> int:
    if n < 3:
        raise ValueError(f"schedules need n >= 3, got {n}")
    m = 0
    while n > 2 ** (2 ** (m + 1)):
        m += 1
    return m


def build_probe_schedule(n: int, s: float, flavor: str) -> ProbeSchedule:
    if flavor not in ("lower", "upper"):
        raise ValueError(f"flavor must be 'lower' or 'upper', got {flavor!r}")
    if not s > 0.0:
        raise ValueError(f"tail exponent must be positive, got {s}")
    if flavor == "lower" and n < 512:
        raise ValueError(f"lower-flavor schedules need n >= 512, got {n}")
    m = _level_count(n)
    levels: list[ProbeLevel] = []
    if flavor == "lower":
        for j in range(m + 1):
            k = -(-n // 2 ** (2**j))
            theta = 2.0 ** -(2.0 ** (j - 1))
            u = math.log(theta * n / k) ** (1.0 / s)
            levels.append(ProbeLevel(j=j, k=k, theta=theta, u=u))
    else:
        for j in range(m + 2):
            k = 1 if j == m + 1 else -(-n // 2 ** (2**j))
            u = math.log(n / k) ** (1.0 / s)
            levels.append(ProbeLevel(j=j, k=k, theta=None, u=u))
    return ProbeSchedule(n=n, s=s, flavor=flavor, m=m, levels=tuple(levels))


@dataclass(frozen=True)
class LevelCheck:
    j: int
    k: int
    u: float
    probability: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class ScheduleCheck:
    schedule: ProbeSchedule
    tau: float | None
    rows: tuple[LevelCheck, ...]
    z_sum: float | None
    ok: bool


def probe_schedule_check(n: int, s: float, flavor: str, tau: float = 2.0) -> ScheduleCheck:
    """Evaluate the exact order-statistic tails against the schedule bounds.

    Lower flavor: P(Y*_{k_j} >= u_j) >= 1 - z_j for every level, with
    z_j = 1/(sqrt(n)+1) + 2 theta_j n/(sqrt(n)+n) and sum_{j>=3} z_j < 1/2.
    Upper flavor: P(Y*_{k_j} >= tau u_j) <= (k_j/n)^(tau^s - 1) for
    tau >= 2^(1/s).
    """
    schedule = build_probe_schedule(n, s, flavor)
    rows: list[LevelCheck] = []
    if flavor == "lower":
        sqrt_n = math.sqrt(n)
        z_tail = 0.0
        for lv in schedule.levels:
            z = 1.0 / (sqrt_n + 1.0) + 2.0 * lv.theta * n / (sqrt_n + n)
            prob = order_stat_tail(n, s, lv.k, lv.u)
            rows.append(
                LevelCheck(j=lv.j, k=lv.k, u=lv.u, probability=prob, bound=1.0 - z,
                           ok=prob >= 1.0 - z)
            )
            if lv.j >= 3:
                z_tail += z
        ok = all(row.ok for row in rows) and z_tail < 0.5
        return ScheduleCheck(schedule=schedule, tau=None, rows=tuple(rows),
                             z_sum=z_tail, ok=ok)

    threshold = 2.0 ** (1.0 / s)
    if tau < threshold:
        raise ValueError(f"upper-flavor check needs tau >= 2^(1/s) = {threshold:.6g}")
    for lv in schedule.levels:
        prob = order_stat_tail(n, s, lv.k, tau * lv.u)
        bound = (lv.k / n) ** (tau**s - 1.0)
        rows.append(
            LevelCheck(j=lv.j, k=lv.k, u=lv.u, probability=prob, bound=bound,
                       ok=prob <= bound * (1.0 + 1e-12))
        )
    return ScheduleCheck(schedule=schedule, tau=tau, rows=tuple(rows), z_sum=None,
                         ok=all(row.ok for row in rows))
