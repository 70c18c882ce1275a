import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weibsup.core import (
    Metric,
    PointSet,
    RandomStream,
    diameter,
    distance,
    load_points_csv,
    pairwise_distance_matrix,
    point_norms,
    write_points_csv,
)

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


class TestPairwiseMatrix:
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

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\nfoo,4\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_points_csv(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("# only a header\n")
        with pytest.raises(ValueError, match="no points"):
            load_points_csv(str(path))
