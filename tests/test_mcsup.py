import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from weibsup import mcsup
from weibsup.core import PointSet, RandomStream, _axis_form
from weibsup.harness import moment_check
from weibsup.laws import conjugate_exponent
from weibsup.mcsup import (
    Driver,
    NonFiniteSampleError,
    _esup,
    _mc_mean,
    _row_sups,
    _sups_reader,
    build_probe_schedule,
    esup_mc,
    esup_permuted_prefixes,
    esup_permuted_weighted,
    esup_rep_mc,
    order_stat_tail,
    probe_schedule_check,
    rearrange_nonincreasing,
)


class TestDriver:
    def test_validation(self):
        with pytest.raises(ValueError):
            Driver("weibull")
        with pytest.raises(ValueError):
            Driver.cond_gaussian(2.0)
        with pytest.raises(ValueError):
            Driver("gaussian", r=1.0)
        with pytest.raises(ValueError):
            Driver("bogus")

    def test_rademacher_values(self):
        coeff = Driver.rademacher().coefficients(RandomStream(1).generator(), 100, 4)
        assert set(np.unique(coeff)) == {-1.0, 1.0}


class TestEsupMc:
    def test_zero_set(self):
        est = esup_mc(PointSet([[0.0, 0.0]]), Driver.gaussian(), 1000, RandomStream(0))
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_folded_gaussian(self):
        ps = PointSet([[1.0], [-1.0]])
        est = esup_mc(ps, Driver.gaussian(), 20_000, RandomStream(7))
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) < 3.0 * est.stderr

    def test_full_hypercube_weibull(self):
        codes = np.arange(2**8)
        pts = ((codes[:, None] >> np.arange(8)[None, :]) & 1) * 2.0 - 1.0
        est = esup_mc(PointSet(pts), Driver.weibull(1.0), 20_000, RandomStream(8))
        # sup over the full cube is sum_k |X_k|, so the mean is n * Gamma(2) = 8
        assert abs(est.mean - 8.0) < 3.0 * est.stderr

    def test_nonnegative_for_centered_drivers(self):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.standard_normal((10, 4)))
        for driver in (Driver.gaussian(), Driver.rademacher(), Driver.weibull(0.5)):
            est = esup_mc(ps, driver, 4000, RandomStream(11))
            assert est.mean >= -3.0 * est.stderr

    def test_bitwise_determinism_across_workers(self):
        rng = np.random.default_rng(4)
        ps = PointSet(rng.standard_normal((6, 5)))
        a = esup_mc(ps, Driver.weibull(0.75), 9000, RandomStream(42), workers=1)
        b = esup_mc(ps, Driver.weibull(0.75), 9000, RandomStream(42), workers=4)
        assert a == b

    def test_rademacher_is_plus_or_minus_one_and_fair(self):
        coeffs = Driver.rademacher().coefficients(np.random.default_rng(12), 4096, 63)
        assert coeffs.shape == (4096, 63) and coeffs.dtype == np.float64
        assert np.all(np.abs(coeffs) == 1.0)
        n = coeffs.size
        assert abs(np.sum(coeffs < 0.0) - n / 2) <= 4.0 * math.sqrt(n / 4)

    def test_cond_gaussian_is_the_same_at_workers_1_and_2(self):
        ps = PointSet(np.random.default_rng(13).standard_normal((6, 5)))
        a = esup_mc(ps, Driver.cond_gaussian(1.2), 9000, RandomStream(42), workers=1)
        b = esup_mc(ps, Driver.cond_gaussian(1.2), 9000, RandomStream(42), workers=2)
        assert a == b

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            esup_mc(PointSet([[1.0]]), Driver.gaussian(), 1, RandomStream(0))

    @pytest.mark.parametrize("offset", [1e8, 1e9])
    def test_stderr_stable_when_mean_dwarfs_spread(self, offset):
        drawn = []

        def sampler(rng, count):
            vals = offset + rng.standard_normal(count)
            drawn.append(vals)
            return vals

        _, stderr = _mc_mean(sampler, 20000, RandomStream(5))
        vals = np.concatenate(drawn)
        expected = np.std(vals, ddof=1) / math.sqrt(vals.size)
        assert stderr == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_huge_points_scale_mean_and_stderr_exactly(self, workers):
        # near 1e160 a squared deviation of the draws overflows float64; times
        # 2^531 every draw, sum and deviation scales exactly, and so must both results
        pts = np.random.default_rng(12).standard_normal((7, 5))
        small = esup_mc(PointSet(pts), Driver.gaussian(), 20_000, RandomStream(13), workers)
        big_set = PointSet(np.ldexp(pts, 531))
        big = esup_mc(big_set, Driver.gaussian(), 20_000, RandomStream(13), workers)
        assert big.mean == math.ldexp(small.mean, 531)
        assert big.stderr == math.ldexp(small.stderr, 531)

    def test_chunks_of_different_scales_merge(self):
        # the first chunk's draws are of order 1, the others near 1e160
        drawn = []

        def sampler(rng, count):
            drawn.append(rng.standard_normal(count) * (1e160 if drawn else 1.0))
            return drawn[-1]

        _, stderr = _mc_mean(sampler, 20_000, RandomStream(6))
        vals = np.concatenate(drawn) / 1e160
        expected = np.std(vals, ddof=1) / math.sqrt(vals.size)
        assert stderr / 1e160 == pytest.approx(expected, rel=1e-9)

    def test_nonfinite_draw_names_index(self):
        def sampler(rng, count):
            vals = np.ones(count)
            vals[3] = np.nan
            return vals

        with pytest.raises(NonFiniteSampleError, match="draw 3"):
            _mc_mean(sampler, 100, RandomStream(0))


def _three_columns(rng, count):
    # one column of order 1, one near 2^500 and one whose mean dwarfs its spread
    vals = rng.standard_normal((count, 3))
    vals[:, 1] = np.ldexp(vals[:, 1], 500)
    vals[:, 2] += 1e8
    return vals


class TestColumnMerge:
    SAMPLES = 3 * 4096 + 17  # three full chunks and a short last one

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_column_has_the_bits_of_a_one_column_call(self, workers):
        means, stderrs = _mc_mean(_three_columns, self.SAMPLES, RandomStream(31), workers)
        assert means.shape == stderrs.shape == (3,)
        for k in range(3):
            def column(rng, count, k=k):
                return _three_columns(rng, count)[:, k]

            mean, stderr = _mc_mean(column, self.SAMPLES, RandomStream(31), workers)
            assert (means[k], stderrs[k]) == (mean, stderr)
        expected = math.ldexp(1.0, 500) / math.sqrt(self.SAMPLES)  # sd 2^500 over sqrt(N)
        assert stderrs[1] == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("columns", [None, 32])
    @pytest.mark.parametrize("far", [False, True])
    def test_matches_a_scalar_merge_of_chunks_at_different_scales(self, columns, far):
        # chunk i is scaled by 2^(i mod 3 - 1), or with ``far`` the first by 2^-300
        # and the last by 2^300: every column's chunk exponents differ, so each
        # chunk is rescaled in the merge.  Ten chunks make the merge weights
        # k/(k+1) round, and over 32 columns of spreads 1 to 1e6 and means 0 to
        # 1e8 a change in the order of the merge's operations shows in the bits.
        drawn = []

        def sampler(rng, count):
            if columns:
                vals = rng.standard_normal((count, columns)) * np.geomspace(1.0, 1e6, columns)
                vals += np.linspace(0.0, 1e8, columns)
            else:
                vals = rng.standard_normal(count)
            i = len(drawn)
            scale = (-300 if i == 0 else 300 if count < 4096 else 0) if far else i % 3 - 1
            drawn.append(np.ldexp(vals, scale))
            return drawn[-1]

        means, stderrs = _mc_mean(sampler, 9 * 4096 + 17, RandomStream(32))
        chunks = [vals.reshape(vals.shape[0], -1) for vals in drawn]
        expected = [reference_chan_merge([c[:, k] for c in chunks]) for k in range(columns or 1)]
        if columns is None:
            assert type(means) is float and type(stderrs) is float
            assert (means, stderrs) == expected[0]
        else:
            assert list(zip(means, stderrs)) == expected

    def test_nonfinite_draw_in_one_column_names_its_index(self):
        drawn = []

        def sampler(rng, count):
            vals = np.ones((count, 3))
            start = sum(drawn)
            if start <= 5000 < start + count:
                vals[5000 - start, 2] = np.nan
            drawn.append(count)
            return vals

        with pytest.raises(NonFiniteSampleError, match="draw 5000 "):
            _mc_mean(sampler, self.SAMPLES, RandomStream(0))


def reference_chan_merge(chunks):
    """Mean and stderr of one column's chunks: per-chunk (size, sum, exponent,
    scaled sum, scaled M2), merged one scalar at a time in chunk order."""
    stats = []
    for vals in chunks:
        vals = np.ascontiguousarray(vals)
        exp = int(np.frexp(np.abs(vals).max())[1])
        scaled = np.ldexp(vals, -exp)
        part = scaled.sum()
        stats.append((vals.size, vals.sum(), exp, part, np.square(scaled - part / vals.size).sum()))
    samples = sum(size for size, *_ in stats)
    top = max(exp for _, _, exp, _, _ in stats)
    count, run_mean, m2 = 0, 0.0, 0.0
    for size, _, exp, part, chunk_m2 in stats:
        part, chunk_m2 = math.ldexp(part, exp - top), math.ldexp(chunk_m2, 2 * (exp - top))
        merged = count + size
        delta = part / size - run_mean
        run_mean += delta * size / merged
        m2 += chunk_m2 + delta * delta * count * size / merged
        count = merged
    mean = math.fsum(total for _, total, _, _, _ in stats) / samples
    return mean, math.ldexp(math.sqrt(m2 / (samples - 1) / samples), top)


def _integer_valued(rng, shape):
    # small integers: every product and sum is exact, so any BLAS gives these bits
    return rng.integers(-8, 9, size=shape).astype(np.float64)


_BLOCKED = ("gaussian", "rademacher", "weibull", "cond_gaussian", "prefixes", "moment_check")


def _blocked_estimates(kind, pset, samples, seed, workers=1):
    """The estimates of one estimator whose chunks draw in row blocks."""
    stream, n = RandomStream(seed), pset.dim
    if kind == "prefixes":
        return esup_permuted_prefixes(pset, np.linspace(2.0, 0.0, n), (n, n // 2), samples,
                                      stream, workers)
    if kind == "moment_check":
        return moment_check(pset.points[0], 0.5, (3.0,), samples, stream, workers)
    driver = Driver(kind, r=None if kind in ("gaussian", "rademacher") else 0.5)
    return [esup_mc(pset, driver, samples, stream, workers)]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowSups:
    @pytest.mark.parametrize("m", [1, 3, 256, 512])
    def test_matches_the_whole_product(self, m):
        rng = np.random.default_rng(41)
        height = max(1, 2**16 // m)
        points_t = _integer_valued(rng, (5, m))
        for count in sorted({1, height - 1, height, height + 1, 3616, 4096}):
            coeffs = _integer_valued(rng, (count, 5))
            got = _row_sups(coeffs, points_t)
            assert got.tobytes() == (coeffs @ points_t).max(axis=1).tobytes()

    def test_rows_longer_than_a_block_go_one_at_a_time(self):
        rng = np.random.default_rng(42)
        points_t = _integer_valued(rng, (1, 2**16 + 1))
        coeffs = _integer_valued(rng, (3, 1))
        assert _row_sups(coeffs, points_t).tobytes() == (coeffs @ points_t).max(axis=1).tobytes()

    def test_esup_is_the_same_at_any_worker_count(self):
        pset = PointSet(np.random.default_rng(43).standard_normal((512, 8)))
        samples = 2 * 4096 + 17
        one = esup_mc(pset, Driver.weibull(0.5), samples, RandomStream(44), workers=1)
        two = esup_mc(pset, Driver.weibull(0.5), samples, RandomStream(44), workers=2)
        assert one == two

    def test_nonfinite_rows_stay_in_their_rows(self):
        rng = np.random.default_rng(45)
        m = 256
        height = 2**16 // m
        points_t = _integer_valued(rng, (4, m))
        coeffs = _integer_valued(rng, (3 * height, 4))
        coeffs[height + 5, 2] = np.inf  # both in the second block
        coeffs[height + 9, 0] = np.nan
        with np.errstate(invalid="ignore"):  # inf * 0, which _mc_mean also silences
            got = _row_sups(coeffs, points_t)
            whole = (coeffs @ points_t).max(axis=1)
        assert np.flatnonzero(~np.isfinite(got)).tolist() == [height + 5, height + 9]
        assert np.array_equal(got, whole, equal_nan=True)
        for rows in (lambda rng, count: _row_sups(coeffs, points_t),
                     lambda rng, count: (coeffs @ points_t).max(axis=1)):
            with pytest.raises(NonFiniteSampleError, match=f"draw {height + 5} "):
                _mc_mean(rows, 3 * height, RandomStream(0))

    def test_no_chunk_holds_a_count_by_m_product(self):
        # one 4096-draw chunk at m=2048: its product alone would be 64 MB
        pset = PointSet(np.random.default_rng(46).standard_normal((2048, 4)))
        a = np.array([2.0, 1.0, 0.5, 0.25])
        limit = 8 * 2**20
        assert _peak_bytes(lambda: esup_mc(pset, Driver.gaussian(), 4096, RandomStream(47))) < limit
        assert _peak_bytes(
            lambda: esup_permuted_prefixes(pset, a, (4, 2), 4096, RandomStream(48))
        ) < limit

    @pytest.mark.parametrize("kind", _BLOCKED)
    def test_no_chunk_holds_its_count_by_n_coefficients(self, kind):
        # one 4096-draw chunk at n=8192: its coefficients alone would be 256 MiB
        pset = PointSet(np.random.default_rng(49).standard_normal((4, 8192)))
        assert _peak_bytes(lambda: _blocked_estimates(kind, pset, 4096, 50)) < 8 * 2**20

    @pytest.mark.parametrize("kind", _BLOCKED)
    def test_blocks_that_divide_no_chunk_are_the_same_at_any_worker_count(self, kind):
        # m=3, n=300: blocks of 2^16 // 300 = 218 rows divide neither 4096 nor 17
        pset = PointSet(np.random.default_rng(51).standard_normal((3, 300)))
        samples = 2 * 4096 + 17
        one = _blocked_estimates(kind, pset, samples, 52, workers=1)
        assert _blocked_estimates(kind, pset, samples, 52, workers=2) == one
        assert _blocked_estimates(kind, pset, samples, 52, workers=3) == one

    def test_mc_mean_hands_each_chunk_over_in_blocks_of_2_16_over_width_rows(self):
        samples = 2 * 4096 + 17

        def block_rows(**width):
            rows_seen = []

            def block_values(rng, rows):
                rows_seen.append(rows)
                return rng.standard_normal(rows)

            _mc_mean(block_values, samples, RandomStream(54), **width)
            return rows_seen

        # 2^16 // 300 = 218 rows, and 4096 = 18 * 218 + 172
        assert block_rows(width=300) == 2 * ([218] * 18 + [172]) + [17]
        assert block_rows() == [4096, 4096, 17]
        assert sum(block_rows(width=300)) == samples

    def test_gaussian_blocks_draw_the_bits_of_a_whole_chunk(self):
        # numpy draws normals one after another across calls, so blocks of 218 rows
        # draw a whole chunk's coefficients; one nonzero coordinate per point makes
        # every product exact, so any BLAS gives these bits
        pts = np.zeros((3, 300))
        pts[0, 7], pts[1, 150], pts[2, 299] = 1.0, -2.0, 0.5
        samples = 2 * 4096 + 17
        est = esup_mc(PointSet(pts), Driver.gaussian(), samples, RandomStream(53))
        whole = _mc_mean(lambda rng, c: (rng.standard_normal((c, 300)) @ pts.T).max(axis=1),
                         samples, RandomStream(53))
        assert (est.mean, est.stderr) == whole


def _axis_points(axes, values, n):
    pts = np.zeros((len(axes), n))
    pts[np.arange(len(axes)), axes] = values
    return pts


@st.composite
def _axis_sets(draw):
    """Points on coordinate axes: repeated axes, zero points, both signs and
    magnitudes from 1e-200 to 1e300; n = 300 gives blocks of 218 rows."""
    m, n = draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 3, 5, 300]))
    axes = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m, max_size=m))
    powers = draw(st.lists(st.floats(-200.0, 300.0), min_size=m, max_size=m))
    return _axis_points(axes, np.array(signs) * 10.0 ** np.array(powers), n)


_DRIVERS = (Driver.gaussian(), Driver.rademacher(), Driver.weibull(0.5), Driver.weibull(2.0),
            Driver.cond_gaussian(1.0))


def _permuted_coefficients(rng, rows, n):
    # one prefix's coefficient rows, as esup_permuted_prefixes forms them
    masked = np.where(np.arange(n) < max(1, n // 2), np.linspace(2.0, 0.5, n), 0.0)
    idx = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
    return rng.standard_normal((rows, n)) * masked[idx]


def _not_dense(*args):
    raise AssertionError("an axis set was read by the dense product")


class TestAxisSets:
    @settings(max_examples=100, deadline=None)
    @given(pts=_axis_sets(), seed=st.integers(0, 2**32 - 1))
    @example(pts=_axis_points([0], [1.0], 1), seed=0)
    @example(pts=_axis_points([0, 0, 1], [0.0, -1e-200, 1e300], 2), seed=1)
    def test_row_maxima_have_the_dense_products_bits(self, pts, seed):
        pset = PointSet(pts)
        assert _axis_form(pset.points) is not None
        row_sups, rng, n = _sups_reader(pset), np.random.default_rng(seed), pset.dim
        samplers = [d.coefficients for d in _DRIVERS] + [_permuted_coefficients]
        # products near 1e300 may overflow, in both forms
        with np.errstate(over="ignore"), mock.patch.object(mcsup, "_row_sups", _not_dense):
            for coefficients in samplers:
                for rows in (1, 7, 218):
                    coeffs = coefficients(rng, rows, n)
                    got = row_sups(coeffs)
                    assert got.tobytes() == (coeffs @ pts.T).max(axis=1).tobytes()

    @pytest.mark.parametrize("kind", _BLOCKED[:5])
    def test_estimates_have_the_dense_readers_bits_at_any_worker_count(self, kind):
        # n=300: blocks of 218 rows divide neither a 4096-draw chunk nor the last 17
        rng = np.random.default_rng(71)
        pts = _axis_points(rng.integers(0, 300, 40), rng.standard_normal(40), 300)
        pts[::9] = 0.0
        pset, samples = PointSet(pts), 2 * 4096 + 17
        with mock.patch.object(mcsup, "_axis_form", lambda points: None):
            dense = _blocked_estimates(kind, pset, samples, 72)
        with mock.patch.object(mcsup, "_row_sups", _not_dense):
            for workers in (1, 3):
                assert _blocked_estimates(kind, pset, samples, 72, workers) == dense

    @pytest.mark.parametrize(
        "axis, value",
        [(1, np.inf), (1, -np.inf), (0, -np.inf), (2, np.inf), (0, np.nan)],
        ids=["inf-off-the-points", "-inf-off-the-points", "-inf-under-positive",
             "inf-under-negative", "nan"],
    )
    def test_a_nonfinite_coefficient_names_the_dense_draw(self, axis, value):
        # a positive point on axis 0 and two negative ones on axis 2; axis 1 holds none,
        # so every other row's maximum is finite
        pset = PointSet(_axis_points([0, 2, 2], [1.5, -2.0, -0.5], 3))
        coeffs = np.random.default_rng(73).standard_normal((600, 3))
        coeffs[437, axis] = value
        row_sups = _sups_reader(pset)
        for rows in (lambda rng, count: row_sups(coeffs[:count]),
                     lambda rng, count: (coeffs[:count] @ pset.points.T).max(axis=1)):
            with pytest.raises(NonFiniteSampleError, match="^draw 437 produced"):
                _mc_mean(rows, 600, RandomStream(0))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.sampled_from([1, 2, 7, 64, 218]), m=st.integers(1, 40),
           n=st.sampled_from([1, 2, 3, 8, 33, 300]), seed=st.integers(0, 2**32 - 1))
    def test_readers_agree_on_products_that_underflow_to_zero(self, rows, m, n, seed):
        # values from 0 to 1e-310 on the axes and negative coefficients below 1e-15:
        # every product underflows, so every dot product and maximum is a zero,
        # which BLAS may round to -0
        rng = np.random.default_rng(seed)
        values = rng.choice([0.0, 5e-324, 1e-320, 1e-310], m)
        pts = _axis_points(rng.integers(0, n, m), values, n)
        coeffs = -rng.uniform(0.0, 1e-15, (rows, n))
        dense = _row_sups(coeffs, np.ascontiguousarray(pts.T))
        assert dense.tobytes() == _sups_reader(PointSet(pts))(coeffs).tobytes()
        assert dense.tobytes() == np.zeros(rows).tobytes()


class TestScaleEquivariance:
    """At 2^k T every draw is 2^k times the draw at T, so every mean and stderr
    is 2^k times its value at T, bit for bit, up to the float64 edge."""

    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(-1000, 1015))
    @example(k=1015)
    @example(k=-1000)
    def test_estimates_scale_with_the_set(self, k):
        pts = np.random.default_rng(81).standard_normal((5, 3))
        a = np.array([1.5, 1.0, 0.5])
        samples = 4096 + 300  # two chunks

        def estimates(points):
            pset, stream = PointSet(points), RandomStream(82)
            drivers = (Driver.gaussian(), Driver.rademacher(), Driver.weibull(1.0),
                       Driver.cond_gaussian(1.0))
            return [esup_mc(pset, d, samples, stream) for d in drivers] + esup_permuted_prefixes(
                pset, a, (3, 2), samples, stream)

        for plain, scaled in zip(estimates(pts), estimates(np.ldexp(pts, k)), strict=True):
            assert scaled.mean == math.ldexp(plain.mean, k)
            assert scaled.stderr == math.ldexp(plain.stderr, k)


class TestRearrange:
    def test_basic(self):
        assert rearrange_nonincreasing([3.0, -5.0, 2.0]).tolist() == [5.0, 3.0, 2.0]

    def test_single_zero(self):
        assert rearrange_nonincreasing([0.0]).tolist() == [0.0]

    def test_ties(self):
        assert rearrange_nonincreasing([-1.0, 1.0]).tolist() == [1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rearrange_nonincreasing([])

    @settings(max_examples=50)
    @given(vals=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20))
    def test_sorted_and_same_multiset(self, vals):
        out = rearrange_nonincreasing(vals)
        assert all(a >= b for a, b in zip(out, out[1:]))
        assert sorted(out) == sorted(abs(v) for v in vals)


class TestRepresentation:
    def test_zero_set(self):
        est = esup_rep_mc(PointSet([[0.0, 0.0]]), 1.0, 1000, RandomStream(0))
        assert est.mean == 0.0

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_two_point_closed_form(self, r):
        # sup over {e1, -e1} is |g_1| Y*_K with K uniform; exchangeability
        # gives E = sqrt(2/pi) * Gamma(1 + 1/s)
        ps = PointSet([[1.0, 0.0], [-1.0, 0.0]])
        s = conjugate_exponent(r)
        target = math.sqrt(2.0 / math.pi) * math.gamma(1.0 + 1.0 / s)
        est = esup_rep_mc(ps, r, 20_000, RandomStream(9))
        assert abs(est.mean - target) < 3.0 * est.stderr

    def test_ratio_to_driver_estimate(self):
        rng = np.random.default_rng(12)
        ps = PointSet(rng.standard_normal((16, 6)))
        for j, r in enumerate((0.5, 1.0)):
            st_ = RandomStream(77).child(j)
            a = esup_mc(ps, Driver.weibull(r), 10_000, st_.child(0))
            b = esup_rep_mc(ps, r, 10_000, st_.child(1))
            assert 1.0 / 16.0 <= b.mean / a.mean <= 16.0

    def test_exchangeability_under_fixed_permutation(self):
        # composing the uniform permutation with a fixed one is another
        # uniform permutation, so permuting T's coordinates changes nothing
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((12, 5))
        sigma = np.array([3, 0, 4, 1, 2])
        a = esup_rep_mc(PointSet(pts), 0.75, 20_000, RandomStream(14))
        b = esup_rep_mc(PointSet(pts[:, sigma]), 0.75, 20_000, RandomStream(15))
        assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)


class TestPermutedWeighted:
    def test_full_prefix_matches_itself(self):
        rng = np.random.default_rng(16)
        ps = PointSet(rng.standard_normal((8, 6)))
        a = np.linspace(2.0, 0.0, 6)
        x = esup_permuted_weighted(ps, a, 6, 4000, RandomStream(3))
        y = esup_permuted_weighted(ps, a, 6, 4000, RandomStream(3))
        assert x == y

    def test_constant_weights_basis(self):
        # with a == 1 and T the standard basis, the prefix estimator is the
        # expected positive part of the max over a random half of the g's
        n = 8
        ps = PointSet(np.eye(n))
        a = np.ones(n)
        full = esup_permuted_weighted(ps, a, n, 20_000, RandomStream(21))
        half = esup_permuted_weighted(ps, a, n // 2, 20_000, RandomStream(21))
        assert full.mean > half.mean > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prefixes_from_one_draw_match_one_call_each(self, workers):
        rng = np.random.default_rng(17)
        n = 7
        ps = PointSet(rng.standard_normal((9, n)))
        a = np.array([2.0, 1.5, 1.5, 1.0, 0.5, 0.5, 0.0])  # ties and a zero weight
        lens = (n, math.ceil(n / 2), 1)
        got = esup_permuted_prefixes(ps, a, lens, 9000, RandomStream(5), workers)
        assert got == [esup_permuted_weighted(ps, a, k, 9000, RandomStream(5), workers) for k in lens]

    def test_prefix_bounds(self):
        ps = PointSet(np.eye(4))
        with pytest.raises(ValueError):
            esup_permuted_weighted(ps, np.ones(4), 0, 100, RandomStream(0))
        with pytest.raises(ValueError):
            esup_permuted_weighted(ps, np.ones(3), 2, 100, RandomStream(0))

    def test_matches_permuting_the_weights_themselves(self):
        # the sampler as first written: it permuted each row of masked weights
        rng = np.random.default_rng(18)
        n = 6
        ps = PointSet(rng.standard_normal((5, n)))
        a = np.array([3.0, 1.0, 1.0, 0.5, 0.25, 0.0])
        for prefix_len in (n, 2):
            masked = np.where(np.arange(n) < prefix_len, a, 0.0)

            def coefficients(rng, count, n, masked=masked):
                g = rng.standard_normal((count, n))
                return g * rng.permuted(np.tile(masked, (count, 1)), axis=1)

            expected = _esup(ps, coefficients, 5000, RandomStream(6), 1)
            assert esup_permuted_weighted(ps, a, prefix_len, 5000, RandomStream(6)) == expected

    def test_prefix_list_bounds(self):
        ps = PointSet(np.eye(4))
        with pytest.raises(ValueError, match="at least one prefix"):
            esup_permuted_prefixes(ps, np.ones(4), (), 100, RandomStream(0))
        with pytest.raises(ValueError, match="got 5"):
            esup_permuted_prefixes(ps, np.ones(4), (4, 5), 100, RandomStream(0))


@st.composite
def _tail_cases(draw):
    n = draw(st.integers(1, 5000))
    k = draw(st.integers(1, n))
    return n, draw(st.floats(0.1, 8.0)), k, draw(st.floats(0.0, 10.0))


class TestOrderStatTail:
    def test_u_zero(self):
        assert order_stat_tail(5, 2.0, 3, 0.0) == 1.0

    def test_binomial_closed_form(self):
        # q = exp(-log 2) = 1/2; P(Bin(2, 1/2) >= 1) = 3/4
        assert order_stat_tail(2, 1.0, 1, math.log(2.0)) == pytest.approx(0.75)

    def test_single_sample(self):
        for u in (0.0, 0.5, 2.0):
            assert order_stat_tail(1, 1.5, 1, u) == pytest.approx(math.exp(-(u**1.5)))

    def test_monotone_in_u_and_k(self):
        us = np.linspace(0.0, 3.0, 13)
        vals_u = [order_stat_tail(20, 2.0, 5, float(u)) for u in us]
        assert all(a >= b for a, b in zip(vals_u, vals_u[1:]))
        vals_k = [order_stat_tail(20, 2.0, k, 1.0) for k in range(1, 21)]
        assert all(a >= b for a, b in zip(vals_k, vals_k[1:]))

    def test_matches_mc_frequency(self):
        n, s, draws = 32, 2.0, 30_000
        rng = RandomStream(33).generator()
        mags = (-np.log1p(-rng.random((draws, n)))) ** (1.0 / s)
        ystar = -np.sort(-mags, axis=1)
        for k, u in ((4, 1.3), (16, 0.8)):
            exact = order_stat_tail(n, s, k, u)
            freq = float((ystar[:, k - 1] >= u).mean())
            se = math.sqrt(exact * (1.0 - exact) / draws)
            assert abs(freq - exact) < 3.0 * se

    @given(_tail_cases())
    @example((1, 2.0, 1, 0.7))  # n = 1
    @example((50, 1.5, 1, 1.2))  # k = 1
    @example((50, 1.5, 50, 0.3))  # k = n
    @example((50, 2.0, 10, 0.0))  # q = 1
    @example((50, 2.0, 10, 40.0))  # q = 0
    @settings(max_examples=300, deadline=None)
    def test_matches_binomial_survival_bitwise(self, case):
        n, s, k, u = case
        reference = float(stats.binom.sf(k - 1, n, math.exp(-(u**s))))
        assert order_stat_tail(n, s, k, u) == reference

    def test_domain(self):
        with pytest.raises(ValueError):
            order_stat_tail(3, 2.0, 0, 1.0)
        with pytest.raises(ValueError):
            order_stat_tail(3, 2.0, 4, 1.0)


class TestProbeSchedules:
    def test_level_count_512(self):
        # 2^(2^3) = 256 < 512 <= 2^(2^4) = 65536
        assert build_probe_schedule(512, 2.0, "lower").m == 3

    def test_lower_needs_512(self):
        with pytest.raises(ValueError, match="512"):
            build_probe_schedule(256, 2.0, "lower")

    def test_k_strictly_decreasing(self):
        for n in (512, 1024, 4096):
            for flavor in ("lower", "upper"):
                ks = [lv.k for lv in build_probe_schedule(n, 2.0, flavor).levels]
                assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_k_strictly_decreasing_at_every_size(self):
        edges = [2 ** 2**j + d for j in range(2, 6) for d in (-1, 0, 1)]
        for n in [*range(3, 70_001), *edges]:
            for flavor in ("lower", "upper") if n >= 512 else ("upper",):
                sched = build_probe_schedule(n, 2.0, flavor)
                ks = [lv.k for lv in sched.levels]
                assert all(a > b for a, b in zip(ks, ks[1:])), (n, flavor, ks)
                assert len(ks) == sched.m + {"lower": 1, "upper": 2}[flavor]
                assert flavor == "lower" or ks[-1] == 1

    def test_theta_in_unit_interval(self):
        sched = build_probe_schedule(1024, 2.0, "lower")
        assert all(0.0 < lv.theta <= 1.0 for lv in sched.levels)

    def test_upper_ends_at_one(self):
        sched = build_probe_schedule(1024, 2.0, "upper")
        assert sched.levels[-1].k == 1

    @pytest.mark.parametrize("n", [512, 1024, 4096])
    def test_lower_check_passes(self, n):
        chk = probe_schedule_check(n, 2.0, "lower")
        assert chk.ok and chk.z_sum < 0.5

    @pytest.mark.parametrize("tau", [1.5, 2.0])
    def test_upper_markov_bound(self, tau):
        chk = probe_schedule_check(1024, 2.0, "upper", tau=tau)
        assert chk.ok
        for row in chk.rows:
            assert row.probability <= row.bound * (1.0 + 1e-12)

    def test_upper_tau_domain(self):
        with pytest.raises(ValueError, match="tau"):
            probe_schedule_check(1024, 2.0, "upper", tau=1.0)


class TestContraction:
    def test_monotone_under_coefficient_masks(self):
        rng = np.random.default_rng(90)
        base = rng.standard_normal((12, 6))
        for i in range(5):
            b = rng.uniform(0.5, 1.5, 6)
            a = b * rng.uniform(0.0, 1.0, 6)
            st_ = RandomStream(91).child(i)
            ea = esup_mc(PointSet(base * a), Driver.weibull(1.0), 8000, st_)
            eb = esup_mc(PointSet(base * b), Driver.weibull(1.0), 8000, st_)
            assert ea.mean <= eb.mean + 3.0 * math.hypot(ea.stderr, eb.stderr)


@pytest.mark.parametrize("call, message", [
    (lambda: order_stat_tail(0, 1.0, 1, 1.0), "need n >= 1, got 0"),
    (lambda: order_stat_tail(3, 0.0, 1, 1.0), "tail exponent must be positive, got 0.0"),
    (lambda: order_stat_tail(3, 1.0, 1, -1.0), "threshold must be nonnegative, got -1.0"),
    (lambda: build_probe_schedule(2, 1.0, "upper"), "schedules need n >= 3, got 2"),
    (lambda: build_probe_schedule(8, 1.0, "middle"),
     "flavor must be 'lower' or 'upper', got 'middle'"),
    (lambda: build_probe_schedule(8, 0.0, "upper"), "tail exponent must be positive, got 0.0"),
], ids=["order_stat_n", "order_stat_s", "order_stat_u", "schedule_n", "schedule_flavor",
        "schedule_s"])
def test_malformed_inputs_raise_one_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
