import functools
import math
import re
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weibsup import core
from weibsup.core import (
    Metric,
    PointSet,
    RandomStream,
    _ordered_map,
    _weighted_l2_matrices,
    diameter,
    distance,
    load_points_csv,
    pairwise_distance_matrix,
    point_norms,
    write_points_csv,
)
from weibsup.transforms import apply_permuted_weights, weights

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(finite_floats, min_size=n, max_size=n)
)


class TestMetric:
    def test_lp2_and_l2_agree(self):
        assert Metric.lp(2) == Metric.l2()
        a, b = [1.0, -2.0, 0.5], [0.0, 1.0, 1.0]
        assert distance(a, b, Metric.lp(2)) == distance(a, b, Metric.l2())

    def test_lp_inf_not_representable(self):
        with pytest.raises(ValueError):
            Metric.lp(math.inf)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            Metric(0.5)


class TestDistance:
    def test_pythagorean(self):
        assert distance([0, 0], [3, 4], Metric.l2()) == 5.0

    def test_identity_linf(self):
        assert distance([1, 1], [1, 1], Metric.linf()) == 0.0

    def test_antipodal_linf(self):
        # antipodal hypercube vertices realize the sup-norm diameter 2
        assert distance([-1, -1], [1, 1], Metric.linf()) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            distance([1, 2], [1, 2, 3], Metric.l2())

    @given(a=vectors.flatmap(lambda v: st.tuples(st.just(v), st.just(v))))
    def test_zero_iff_equal(self, a):
        v, w = a
        assert distance(v, w, Metric.l2()) == 0.0

    @settings(max_examples=50)
    @given(
        data=st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                *(st.lists(finite_floats, min_size=n, max_size=n) for _ in range(3))
            )
        ),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    )
    def test_triangle_inequality(self, data, p):
        a, b, c = data
        metric = Metric(p)
        dac = distance(a, c, metric)
        dab = distance(a, b, metric)
        dbc = distance(b, c, metric)
        assert dac <= dab + dbc + 1e-9 * (1.0 + dab + dbc)

    @settings(max_examples=50)
    @given(
        data=st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(finite_floats, min_size=n, max_size=n),
                st.lists(finite_floats, min_size=n, max_size=n),
            )
        ),
        p=st.sampled_from([1.0, 2.0, math.inf]),
    )
    def test_symmetry(self, data, p):
        a, b = data
        assert distance(a, b, Metric(p)) == distance(b, a, Metric(p))


class TestKernelAgreement:
    @settings(max_examples=50)
    @given(
        data=st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(finite_floats, min_size=n, max_size=n),
                st.lists(finite_floats, min_size=n, max_size=n),
            )
        ),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    )
    # numpy's scalar power rounds this one differently from its array loop
    @example(data=([343389.59666920826], [1.0]), p=1.5)
    def test_distance_norms_and_matrix_agree_bitwise(self, data, p):
        a, b = data
        metric = Metric(p)
        assert pairwise_distance_matrix(np.array([a, b]), metric)[0, 1] == distance(a, b, metric)
        norms = point_norms(np.array([a, b]), metric)
        zero = [0.0] * len(a)
        assert norms[0] == distance(a, zero, metric)
        assert norms[1] == distance(b, zero, metric)
        # duplicate rows are exactly zero apart, as are a point and itself
        mat = pairwise_distance_matrix(np.array([a, b, a]), metric)
        assert mat[0, 2] == 0.0 and mat[2, 0] == 0.0
        assert np.all(np.diag(mat) == 0.0)

    @pytest.mark.parametrize(
        "a, b, metric",
        [
            ([0.0], [3.849962828769751e-239], Metric.l2()),  # the square underflows
            ([1e6, 1e-310], [1e6, 0.0], Metric.linf()),  # scaling drops subnormal bits
            ([0.0], [1e300], Metric.l2()),  # the square overflows
            ([1e-200, 3e-200], [0.0, 1e-170], Metric.l2()),  # every square underflows
        ],
    )
    def test_extreme_distances_and_norms_are_matrix_entries(self, a, b, metric):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = pairwise_distance_matrix(np.array([a, b]), metric)[0, 1]
            assert 0.0 < distance(a, b, metric) == entry < math.inf
            norms = point_norms(np.array([a, b]), metric)
            zero = [0.0] * len(a)
            assert norms[0] == pairwise_distance_matrix(np.array([a, zero]), metric)[0, 1]
            assert norms[1] == pairwise_distance_matrix(np.array([b, zero]), metric)[0, 1]

    def test_overflowing_distance_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            distance([-1e308, 0.0], [1e308, 0.0], Metric.l2())


def full_row_matrix(pts: np.ndarray, metric: Metric) -> np.ndarray:
    """Reference kernel: every row in full, so each unordered pair is computed twice."""
    out = np.empty((pts.shape[0], pts.shape[0]))
    for i in range(pts.shape[0]):
        out[i] = point_norms(pts[i] - pts, metric)
    return out


def seeded_sets_with_duplicates() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    sets = []
    for m, n in [(1, 1), (1, 5), (7, 1), (40, 9), (33, 130), (17, 300)]:
        pts = rng.standard_normal((m, n)) * rng.uniform(0.1, 1e3)
        if m > 2:
            pts[m // 2] = pts[0]
            pts[-1] = pts[1]
        sets.append(pts)
    # hypercube points: exact ties and many duplicate rows
    sets.append(rng.integers(0, 2, (50, 6)) * 2.0 - 1.0)
    return sets


class TestPairwiseMatrix:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_each_pair_once_matches_full_rows_bitwise(self, p):
        metric = Metric(p)
        for pts in seeded_sets_with_duplicates():
            mat = pairwise_distance_matrix(pts, metric)
            assert mat.tobytes() == full_row_matrix(pts, metric).tobytes()
            assert np.array_equal(mat, mat.T)
            assert np.all(np.diag(mat) == 0.0)

    def test_finite_distances_of_huge_points_are_kept(self):
        # each of these l2 distances is finite, though squares of their coordinates overflow
        for pts, d in (([[1e300, 0.0], [-1e300, 0.0]], 2e300), ([[1e160], [-1e160]], 2e160)):
            for metric in (Metric.l2(), Metric.linf()):
                mat = pairwise_distance_matrix(np.array(pts), metric)
                assert mat.tolist() == [[0.0, d], [d, 0.0]]
        # other p stay unscaled: a p-th power that overflows is still rejected
        with pytest.raises(ValueError, match="l1.5 distances between these points overflow"):
            pairwise_distance_matrix(np.array([[1e300], [-1e300]]), Metric(1.5))

    @pytest.mark.parametrize("p", [2.0, math.inf], ids=["l2", "linf"])
    def test_scales_exactly_by_a_power_of_two(self, p):
        for pts in seeded_sets_with_duplicates():
            mat = pairwise_distance_matrix(pts, Metric(p))
            for k in (-400, 531):
                scaled = pairwise_distance_matrix(np.ldexp(pts, k), Metric(p))
                assert np.array_equal(scaled, np.ldexp(mat, k))

    def test_peak_memory_is_quadratic(self):
        # no m x m x n difference tensor: the m=256, n=64 one alone takes 32 MB
        m, n = 256, 64
        pts = np.random.default_rng(3).standard_normal((m, n))
        for metric in (Metric.l2(), Metric.linf(), Metric(1.5)):
            tracemalloc.start()
            try:
                pairwise_distance_matrix(pts, metric)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * m * m * 8


def permuted_sq_weights(n: int, s: float, perms: list[np.ndarray]) -> np.ndarray:
    """Row k holds a with a_{perm_k(j)} = w_j^2, the weighting that gives T_perm_k."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # s = inf warns that it uses the 0/1 weights
        w = weights(n, s).w
    sq = np.empty((len(perms), n))
    for a, perm in zip(sq, perms):
        a[perm] = w * w
    return sq


def permuted_reference(pts: np.ndarray, perm: np.ndarray, s: float) -> np.ndarray:
    """The l2 matrix of T_perm computed from its own points."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tpi = apply_permuted_weights(PointSet(pts), perm, s)
    return pairwise_distance_matrix(tpi, Metric.l2())


class TestWeightedL2Matrices:
    @pytest.mark.parametrize("s", [0.5, 2.0, math.inf])
    def test_matches_permuted_sets(self, s):
        rng = np.random.default_rng(21)
        for pts in seeded_sets_with_duplicates():
            n = pts.shape[1]
            perms = [rng.permutation(n) for _ in range(3)]
            mats = _weighted_l2_matrices(pts, permuted_sq_weights(n, s, perms))
            assert mats.shape == (3, pts.shape[0], pts.shape[0])
            for mat, perm in zip(mats, perms):
                ref = permuted_reference(pts, perm, s)
                assert np.all(np.abs(mat - ref) <= (n + 2) * np.finfo(float).eps * ref)
                assert np.array_equal(mat, mat.T)
                assert np.all(np.diag(mat) == 0.0)
            assert not mats.flags.writeable

    def test_zero_where_weighted_coordinates_agree(self):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((30, 5))
        pts[10:20, :4] = pts[:10, :4]  # rows 10-19 differ from rows 0-9 only on coordinate 4
        sq = rng.uniform(0.5, 2.0, (2, 5))
        sq[:, 4] = 0.0
        mats = _weighted_l2_matrices(pts, sq)
        for i in range(10):
            assert np.all(mats[:, i, i + 10] == 0.0) and np.all(mats[:, i + 10, i] == 0.0)
        assert np.all(mats[:, 0, 1:10] > 0.0)

    def test_bits_do_not_depend_on_the_other_weightings(self):
        rng = np.random.default_rng(23)
        for pts in seeded_sets_with_duplicates():
            n = pts.shape[1]
            sq = permuted_sq_weights(n, 1.0, [rng.permutation(n) for _ in range(8)])
            few = _weighted_l2_matrices(pts, sq[[5, 0, 7]])
            many = _weighted_l2_matrices(pts, sq)
            for k_few, k_many in [(0, 5), (1, 0), (2, 7)]:
                assert few[k_few].tobytes() == many[k_many].tobytes()

    def test_scales_exactly_by_a_power_of_two(self):
        rng = np.random.default_rng(24)
        sq = rng.uniform(0.0, 3.0, (3, 12))
        ordinary = rng.standard_normal((40, 12))
        # times 2^600 these lie near 1e154, where (t_i - t_j)^2 overflows float64
        huge = np.ldexp(ordinary * 0.5e154, -600)
        for pts in (ordinary, huge):
            scaled = np.ldexp(pts, 600)
            expected = np.ldexp(_weighted_l2_matrices(pts, sq), 600)
            assert np.array_equal(_weighted_l2_matrices(scaled, sq), expected)
        # the l2 matrix of one set is unit scaled the same way, so it does not overflow either
        assert np.array_equal(
            pairwise_distance_matrix(np.ldexp(huge, 600), Metric.l2()),
            np.ldexp(pairwise_distance_matrix(huge, Metric.l2()), 600),
        )

    def test_overflowing_distance_raises(self):
        with pytest.raises(ValueError, match="l2 distances between these points overflow float64"):
            _weighted_l2_matrices(np.array([[1e308, 1e308], [-1e308, -1e308]]), np.ones((2, 2)))
        # the largest distance here, 1.5e308, is finite
        mats = _weighted_l2_matrices(np.array([[1e308, 0.0], [-5e307, 0.0]]), np.ones((1, 2)))
        assert mats[0, 0, 1] == 1.5e308

    def test_peak_memory_is_one_matrix_per_weighting(self):
        m, n, k = 256, 64, 4
        rng = np.random.default_rng(25)
        pts, sq = rng.standard_normal((m, n)), rng.uniform(0.0, 2.0, (k, n))
        tracemalloc.start()
        try:
            _weighted_l2_matrices(pts, sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (k + 2) * m * m * 8


def reference_row_norms(x: np.ndarray, metric: Metric) -> np.ndarray:
    """The row norms the two reference kernels below were written against."""
    if math.isinf(metric.p):
        return np.max(np.abs(x), axis=1)
    if metric.p == 2.0:
        return np.sqrt(np.sum(x * x, axis=1))
    return np.sum(np.abs(x) ** metric.p, axis=1) ** (1.0 / metric.p)


def reference_unit_scaled(points: np.ndarray) -> tuple[np.ndarray, int]:
    pts = np.asarray(points, dtype=np.float64)
    exp = int(np.frexp(np.abs(pts).max())[1]) if pts.size else 0
    return np.ldexp(pts, -exp), exp


def reference_pairwise(points: np.ndarray, metric: Metric) -> np.ndarray:
    """The base-set kernel as it was written before the shared pair walk: one row
    at a time, each row mirrored into its column."""
    pts = np.asarray(points, float)
    exp = 0
    if metric.p in (2.0, math.inf):
        pts, exp = reference_unit_scaled(pts)
    out = np.empty((pts.shape[0], pts.shape[0]))
    with np.errstate(over="ignore"):
        for i in range(pts.shape[0]):
            out[i, i:] = reference_row_norms(pts[i] - pts[i:], metric)
            out[i + 1:, i] = out[i, i + 1:]
        np.ldexp(out, exp, out=out)
    if not np.isfinite(out).all():
        raise ValueError(f"{metric} distances between these points overflow float64")
    return out


def reference_weighted(points: np.ndarray, sq_weights: np.ndarray) -> np.ndarray:
    """The weighted kernel as it was written before the shared pair walk."""
    pts, exp = reference_unit_scaled(points)
    a = np.asarray(sq_weights, dtype=np.float64)
    m, n = pts.shape
    k = a.shape[0]
    out = np.empty((k, m, m))
    rows = max(1, m // n)
    diff_buf, sums_buf = np.empty(rows * m * n), np.empty(k * rows * m)
    for i0 in range(0, m, rows):
        i1 = min(i0 + rows, m)
        b = i1 - i0
        diff = diff_buf[: b * (m - i0) * n].reshape(b, m - i0, n)
        np.subtract(pts[i0:i1, None, :], pts[None, i0:, :], out=diff)
        flat = np.square(diff, out=diff).reshape(-1, n)
        sums = sums_buf[: k * flat.shape[0]].reshape(k, -1)
        for a_k, s_k in zip(a, sums):
            np.matmul(flat, a_k, out=s_k)
        sums = sums.reshape(k, b, m - i0)
        out[:, i0:i1, i0:] = sums
        out[:, i1:, i0:i1] = sums[:, :, b:].transpose(0, 2, 1)
        for r in range(b):
            out[:, i0 + r + 1:i1, i0 + r] = sums[:, r, r + 1:b]
    np.sqrt(out, out=out)
    with np.errstate(over="ignore"):
        np.ldexp(out, exp, out=out)
    if not out.max() < np.inf:
        raise ValueError(f"{Metric.l2()} distances between these points overflow float64")
    return out


def reference_sets() -> list[np.ndarray]:
    """Seeded sets with m and n from 1 to 140: m >= 2n (several rows per weighted
    block), n > m, duplicate rows, +-1 corners, and points near 1e154 and 1e-300."""
    rng = np.random.default_rng(31)
    sets = []
    for m, n in [(1, 1), (1, 7), (2, 1), (5, 2), (9, 4), (17, 3), (40, 6), (64, 8), (87, 5),
                 (140, 2), (140, 33), (3, 40), (12, 140), (70, 140), (140, 140)]:
        pts = rng.standard_normal((m, n))
        if m > 3:
            pts[m // 2] = pts[0]
            pts[-1] = pts[1]
        sets.append(pts)
    sets.append(rng.integers(0, 2, (60, 5)) * 2.0 - 1.0)
    sets.append(rng.integers(0, 2, (20, 16)) * 2.0 - 1.0)
    sets.append(rng.uniform(-1.0, 1.0, (30, 4)) * 1e154)
    sets.append(rng.uniform(-1.0, 1.0, (30, 4)) * 1e-300)
    return sets


class TestKernelsMatchTheirReferences:
    @pytest.mark.parametrize("p", [2.0, math.inf, 1.0, 1.5, 3.0])
    def test_pairwise_distance_matrix(self, p):
        metric = Metric(p)
        for pts in reference_sets():
            try:
                expected = reference_pairwise(pts, metric)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    pairwise_distance_matrix(pts, metric)
                continue
            assert np.array_equal(pairwise_distance_matrix(pts, metric), expected)

    def test_weighted_l2_matrices(self):
        rng = np.random.default_rng(32)
        for pts in reference_sets():
            n = pts.shape[1]
            sq = rng.uniform(0.0, 2.0, (3, n))
            sq[1, rng.permutation(n)[: max(1, n // 2)]] = 0.0
            mats = _weighted_l2_matrices(pts, sq)
            assert np.array_equal(mats, reference_weighted(pts, sq))
            assert not mats.flags.writeable


def axis_points(axes, values, n: int) -> np.ndarray:
    pts = np.zeros((len(axes), n))
    pts[np.arange(len(axes)), axes] = values
    return pts


@st.composite
def axis_sets(draw, max_m: int = 24, max_n: int = 6) -> np.ndarray:
    """Points on coordinate axes: repeated axes, zero points, both signs and
    magnitudes from 1e-200 to 1e300."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    axes = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m, max_size=m))
    powers = draw(st.lists(st.floats(-200.0, 300.0), min_size=m, max_size=m))
    return axis_points(axes, np.array(signs) * 10.0 ** np.array(powers), n)


def walked(pts: np.ndarray, metric: Metric) -> np.ndarray:
    """The pair walk's matrix, at the block height ``pairwise_distance_matrix`` uses."""
    rows = max(1, 2**16 // pts.size)
    return core._distance_matrices(pts, metric, rows, functools.partial(core._row_norms, metric=metric))


def not_walked(*args):
    raise AssertionError("an axis set was walked")


class TestAxisSets:
    @pytest.mark.parametrize(
        "pts, axes",
        [(np.diag([3.0, -1.0]), [0, 1]), (np.zeros((2, 3)), [0, 0]),
         (np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]), [2, 0, 0])],
    )
    def test_detector_gives_each_point_its_axis_and_value(self, pts, axes):
        got_axes, values = core._axis_form(pts)
        assert got_axes.tolist() == axes
        assert values.tolist() == pts.sum(axis=1).tolist()

    def test_detector_rejects_a_point_off_the_axes(self):
        assert core._axis_form(np.array([[1.0, 0.0], [1.0, 1.0]])) is None
        assert core._axis_form(np.ones((1, 2))) is None

    @settings(max_examples=200, deadline=None)
    @given(pts=axis_sets())
    @example(pts=axis_points([0], [1.0], 1))
    @example(pts=axis_points([0, 0, 0], [1.0, 1e-200, 2e-200], 1))
    @example(pts=axis_points([0, 2, 2, 1], [-0.0, 1e300, -1e300, 0.0], 3))
    def test_matrices_have_the_walkers_bits(self, pts):
        for metric in (Metric.l2(), Metric.linf()):
            with mock.patch.object(core, "_distance_matrices", not_walked):
                got = pairwise_distance_matrix(pts, metric)
            assert got.tobytes() == walked(pts, metric).tobytes()

    def test_uneven_row_blocks_have_the_walkers_bits(self):
        # m=300: blocks of 2^16 // 300 = 218 rows, and 300 = 218 + 82
        rng = np.random.default_rng(61)
        pts = axis_points(rng.integers(0, 40, 300), rng.standard_normal(300) * 1e3, 40)
        pts[::7] = 0.0
        for metric in (Metric.l2(), Metric.linf()):
            with mock.patch.object(core, "_distance_matrices", not_walked):
                got = pairwise_distance_matrix(pts, metric)
            assert got.tobytes() == walked(pts, metric).tobytes()

    def test_one_axis_underflow_is_the_walkers(self):
        # 1e-200 - 2e-200 squares to 0.0, so l2 reads 0.0 where linf reads 1e-200
        pts = axis_points([0, 0, 0], [1.0, 1e-200, 2e-200], 2)
        l2, linf = (pairwise_distance_matrix(pts, m) for m in (Metric.l2(), Metric.linf()))
        assert (l2[1, 2], linf[1, 2]) == (0.0, 1e-200)
        assert l2.tobytes() == walked(pts, Metric.l2()).tobytes()
        assert linf.tobytes() == walked(pts, Metric.linf()).tobytes()

    @pytest.mark.parametrize(
        "axes, values",
        [([0, 0], [1e308, -1e308]), ([0, 1], [1.5e308, 1.5e308]), ([1, 1, 0], [1e308, -1e308, 0.0])],
    )
    def test_overflow_raises_the_walkers_message(self, axes, values):
        pts = axis_points(axes, values, 2)
        for metric in (Metric.l2(), Metric.linf()):
            try:
                expected = walked(pts, metric)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    pairwise_distance_matrix(pts, metric)
            else:
                assert pairwise_distance_matrix(pts, metric).tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="^l2 distances between these points overflow"):
            pairwise_distance_matrix(pts, Metric.l2())

    def test_other_metrics_are_walked(self):
        pts = axis_points([0, 1], [1.0, 2.0], 2)
        with mock.patch.object(core, "_distance_matrices", not_walked):
            with pytest.raises(AssertionError, match="walked"):
                pairwise_distance_matrix(pts, Metric.lp(1.5))


class TestPointsWithoutCoordinates:
    @pytest.mark.parametrize("metric", [Metric.l2(), Metric.linf(), Metric.lp(1.5)], ids=str)
    def test_matrix_and_norms_raise_one_message(self, metric):
        for kernel in (pairwise_distance_matrix, point_norms):
            with pytest.raises(ValueError, match="^points need at least one coordinate$"):
                kernel(np.zeros((3, 0)), metric)

    def test_weighted_l2_matrices_raise_the_same_message(self):
        with pytest.raises(ValueError, match="^points need at least one coordinate$"):
            _weighted_l2_matrices(np.zeros((3, 0)), np.ones((2, 0)))


class TestDiameter:
    def test_singleton(self):
        ps = PointSet([[1.0, 2.0]])
        assert diameter(ps, [0], Metric.l2()) == 0.0

    def test_two_points(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        assert diameter(ps, [0, 1], Metric.l2()) == 5.0

    def test_hypercube_linf_diameter_is_two(self):
        codes = np.arange(2**5)
        pts = ((codes[:, None] >> np.arange(5)[None, :]) & 1) * 2.0 - 1.0
        ps = PointSet(pts)
        assert diameter(ps, list(range(ps.m)), Metric.linf()) == 2.0

    def test_empty_subset_rejected(self):
        ps = PointSet([[0.0], [1.0]])
        with pytest.raises(ValueError):
            diameter(ps, [], Metric.l2())

    def test_bad_index_rejected(self):
        ps = PointSet([[0.0], [1.0]])
        with pytest.raises(ValueError):
            diameter(ps, [0, 2], Metric.l2())

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(5)
        ps = PointSet(rng.standard_normal((12, 4)))
        metric = Metric.l2()
        for _ in range(25):
            size = int(rng.integers(2, 12))
            big = rng.choice(12, size=size, replace=False)
            small = big[: int(rng.integers(1, size))]
            assert diameter(ps, small, metric) <= diameter(ps, big, metric)

    def test_matches_pairwise_matrix(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((7, 3))
        ps = PointSet(pts)
        mat = pairwise_distance_matrix(pts, Metric.linf())
        assert diameter(ps, range(7), Metric.linf()) == mat.max()


class TestPointSet:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet([[1.0, math.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 3)))

    def test_points_are_frozen(self):
        ps = PointSet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0

    def test_shape_accessors(self):
        ps = PointSet([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        assert (ps.m, ps.dim) == (2, 3)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(123, 7).generator().random(64)
        b = RandomStream(123, 7).generator().random(64)
        assert np.array_equal(a, b)

    def test_distinct_substreams_differ(self):
        a = RandomStream(123, 0).generator().random(64)
        b = RandomStream(123, 1).generator().random(64)
        assert not np.array_equal(a, b)

    def test_child_deterministic_and_distinct(self):
        root = RandomStream(9)
        assert root.child(3) == root.child(3)
        assert root.child(3) != root.child(4)
        assert root.child(3).seed == root.seed

    def test_child_rejects_negative(self):
        with pytest.raises(ValueError):
            RandomStream(0).child(-1)


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        calls = []
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}$"):
            _ordered_map(calls.append, range(3), workers)
        assert calls == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_an_interrupt_cancels_the_items_not_started(self, error):
        started = []

        def items():
            yield from range(200)
            raise error  # as an interrupt while the items are being queued

        def fn(x):
            started.append(x)
            time.sleep(0.01)

        with pytest.raises(error):
            _ordered_map(fn, items(), 2)
        assert len(started) < 50

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_two_items_per_worker_are_queued(self, workers, monkeypatch):
        lock = threading.Lock()
        counts = {"submitted": 0, "finished": 0}
        backlog = []

        class CountingPool(core.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                with lock:
                    counts["submitted"] += 1
                    backlog.append(counts["submitted"] - counts["finished"])
                return super().submit(*args, **kwargs)

        def fn(x):
            time.sleep(0.001)
            with lock:
                counts["finished"] += 1
            return x

        monkeypatch.setattr(core, "ThreadPoolExecutor", CountingPool)
        assert _ordered_map(fn, range(100), workers) == list(range(100))
        assert counts["submitted"] == 100
        assert max(backlog) <= 2 * workers


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        ps = PointSet([[1.5, -2.25], [0.0, 3.125]])
        path = tmp_path / "pts.csv"
        write_points_csv(ps, str(path), comment="test set")
        loaded = load_points_csv(str(path))
        assert np.array_equal(loaded.points, ps.points)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# x,y\n1,2\n3,4\n")
        assert load_points_csv(str(path)).m == 2

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="ragged"):
            load_points_csv(str(path))

    def test_duplicates_warn_and_drop(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n1,2\n3,4\n")
        with pytest.warns(UserWarning, match="duplicate"):
            ps = load_points_csv(str(path))
        assert ps.m == 2

    def test_signed_zero_twins_drop(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,1\n-0,1\n0.0,1.0\n2,3\n")
        with pytest.warns(UserWarning, match=r"dropped 2 duplicate point\(s\)$"):
            ps = load_points_csv(str(path))
        assert ps.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\nfoo,4\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_points_csv(str(path))

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_rejected(self, tmp_path, entry):
        path = tmp_path / "f.csv"
        path.write_text(f"# x,y\n1,2\n3,{entry}\n")
        with pytest.raises(ValueError, match=r"f\.csv:3: non-finite entry$"):
            load_points_csv(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("# only a header\n")
        with pytest.raises(ValueError, match="no points"):
            load_points_csv(str(path))


@pytest.mark.parametrize("call, message", [
    (lambda: PointSet(np.zeros(3)), "points must be a 2-D array, got shape (3,)"),
    (lambda: distance([[0.0, 1.0]], [0.0, 1.0], Metric.l2()), "distance expects 1-D vectors"),
], ids=["pointset_1d", "distance_2d"])
def test_malformed_inputs_raise_one_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_blank_csv_rows_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("\n# x,y\n1,2\n\n , \n3,4\n")
    assert load_points_csv(str(path)).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
