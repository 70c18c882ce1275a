import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from weibsup import transforms
from weibsup.core import (
    Metric,
    PointSet,
    RandomStream,
    _weighted_l2_matrices,
    pairwise_distance_matrix,
)
from weibsup.gamma import gamma_exact_small
from weibsup.harness import InstanceFamily
from weibsup.transforms import (
    apply_permuted_weights,
    epi_gamma2,
    ts_transform,
    weights,
)

L2 = Metric.l2()


class TestWeights:
    def test_n_one(self):
        assert weights(1, 2.0).w.tolist() == [0.0]

    def test_n4_s2(self):
        w = weights(4, 2.0).w
        expected = [math.sqrt(math.log(4.0)), math.sqrt(math.log(2.0)),
                    math.sqrt(math.log(4.0 / 3.0)), 0.0]
        assert w == pytest.approx(expected)
        assert w[0] == pytest.approx(1.1774, abs=1e-4)
        assert w[1] == pytest.approx(0.8326, abs=1e-4)
        assert w[2] == pytest.approx(0.5363, abs=1e-4)

    def test_n4_s1(self):
        w = weights(4, 1.0).w
        assert w == pytest.approx(
            [math.log(4.0), math.log(2.0), math.log(4.0 / 3.0), 0.0]
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("s", [0.5, 2.0 / 3.0, 1.0, 2.0, 6.0])
    def test_nonincreasing_with_zero_tail(self, n, s):
        w = weights(n, s).w
        assert w[-1] == 0.0
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_infinite_s_limit_weights(self):
        with pytest.warns(UserWarning, match="r = 2"):
            w = weights(5, math.inf).w
        assert w.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0]

    def test_domain(self):
        with pytest.raises(ValueError):
            weights(0, 2.0)
        with pytest.raises(ValueError):
            weights(4, -1.0)


class TestApplyPermutedWeights:
    def test_identity_matches_ts_transform(self):
        rng = np.random.default_rng(1)
        ps = PointSet(rng.standard_normal((6, 5)))
        a = apply_permuted_weights(ps, np.arange(5), 1.5)
        b = ts_transform(ps, 1.5)
        assert np.array_equal(a.points, b.points)

    def test_zero_set_fixed(self):
        ps = PointSet([[0.0, 0.0, 0.0]])
        out = apply_permuted_weights(ps, [2, 0, 1], 2.0)
        assert np.array_equal(out.points, ps.points)

    def test_swap_kills_mass_on_zero_weight(self):
        # u = (t_{perm(k)} w_k): the swapped e1 lands on w_2 = w_n = 0
        ps = PointSet([[1.0, 0.0]])
        out = apply_permuted_weights(ps, [1, 0], 2.0)
        assert out.points.tolist() == [[0.0, 0.0]]

    def test_preserves_cardinality_and_dim(self):
        rng = np.random.default_rng(2)
        ps = PointSet(rng.standard_normal((9, 4)))
        out = apply_permuted_weights(ps, [3, 1, 0, 2], 2.0 / 3.0)
        assert (out.m, out.dim) == (9, 4)

    def test_invalid_permutation_rejected(self):
        ps = PointSet([[1.0, 2.0]])
        for bad in ([0, 0], [1], [0, 2]):
            with pytest.raises(ValueError, match="permutation"):
                apply_permuted_weights(ps, bad, 2.0)


class TestTsTransform:
    def test_n_one_collapses(self):
        ps = PointSet([[5.0], [-3.0]])
        out = ts_transform(ps, 2.0)
        assert np.array_equal(out.points, np.zeros((2, 1)))

    def test_pair_example(self):
        out = ts_transform(PointSet([[1.0, 1.0]]), 2.0)
        assert out.points[0] == pytest.approx([math.sqrt(math.log(2.0)), 0.0])


def perm_invariant_set() -> PointSet:
    """All signed basis vectors of R^3: invariant under coordinate permutations."""
    pts = np.vstack([np.eye(3), -np.eye(3)])
    return PointSet(pts)


class TestPermutationInvariance:
    def test_transform_equals_ts_as_set(self):
        ps = perm_invariant_set()
        target = {tuple(row) for row in ts_transform(ps, 2.0).points}
        for perm in itertools.permutations(range(3)):
            got = {tuple(row) for row in apply_permuted_weights(ps, list(perm), 2.0).points}
            assert got == target

    def test_exact_gamma_identical_across_permutations(self):
        ps = perm_invariant_set()
        values = {
            round(gamma_exact_small(apply_permuted_weights(ps, list(p), 2.0), L2, 2.0).value, 12)
            for p in itertools.permutations(range(3))
        }
        assert len(values) == 1


class TestEpiGamma2:
    def test_zero_set(self):
        out = epi_gamma2(PointSet([[0.0, 0.0]]), 2.0, 6, "greedy_upper", RandomStream(1))
        assert out == (0.0, 1.0)

    def test_single_basis_point_two_coords(self):
        # both permutations give singleton sets, whose gamma_2 is 0
        out = epi_gamma2(PointSet([[1.0, 0.0]]), 2.0, 8, "exact_small", RandomStream(2))
        assert out.mean == 0.0 and out.spread == 1.0

    def test_invariant_set_exact_spread_is_one(self):
        out = epi_gamma2(perm_invariant_set(), 2.0, 10, "exact_small", RandomStream(3))
        assert out.spread == 1.0
        assert out.mean > 0.0

    def test_invariant_set_greedy_spread_is_one(self):
        out = epi_gamma2(perm_invariant_set(), 2.0, 10, "greedy_upper", RandomStream(4))
        assert out.spread == 1.0

    def test_homogeneity_exact_for_power_of_two_scale(self):
        rng = np.random.default_rng(5)
        ps = PointSet(rng.standard_normal((10, 6)))
        scaled = PointSet(ps.points * 2.0)
        for method in ("greedy_upper", "gaussian_proxy"):
            a = epi_gamma2(ps, 2.0, 5, method, RandomStream(6), samples=2000)
            b = epi_gamma2(scaled, 2.0, 5, method, RandomStream(6), samples=2000)
            assert b.mean == 2.0 * a.mean

    def test_deterministic_across_workers(self):
        rng = np.random.default_rng(7)
        ps = PointSet(rng.standard_normal((8, 5)))
        a = epi_gamma2(ps, 1.0, 6, "gaussian_proxy", RandomStream(8), samples=3000, workers=1)
        b = epi_gamma2(ps, 1.0, 6, "gaussian_proxy", RandomStream(8), samples=3000, workers=3)
        assert a == b

    @pytest.mark.parametrize("method", ["greedy_upper", "exact_small"])
    def test_tree_methods_deterministic_across_workers(self, method):
        ps = PointSet(np.random.default_rng(11).standard_normal((8, 5)))
        a = epi_gamma2(ps, 1.0, 6, method, RandomStream(12), workers=1)
        b = epi_gamma2(ps, 1.0, 6, method, RandomStream(12), workers=3)
        assert a == b

    @pytest.mark.parametrize("method", ["greedy_upper", "exact_small"])
    def test_trees_are_built_and_read_on_the_calling_thread(self, method, monkeypatch):
        threads = []

        def recording(fn):
            def recorded(*args):
                threads.append(threading.get_ident())
                return fn(*args)

            return recorded

        for name in ("build_greedy_tree", "gamma_from_tree"):
            monkeypatch.setattr(transforms, name, recording(getattr(transforms, name)))
        ps = PointSet(np.random.default_rng(9).standard_normal((8, 5)))
        epi_gamma2(ps, 1.0, 6, method, RandomStream(10), workers=3)
        calls = 12 if method == "greedy_upper" else 6  # a tree and its gamma, or only gamma
        assert threads == [threading.get_ident()] * calls

    def test_method_validation(self):
        with pytest.raises(ValueError):
            epi_gamma2(PointSet([[1.0]]), 2.0, 2, "bogus", RandomStream(0))

    def test_permutation_sampler_uniform(self):
        # chi-square over all 6 permutations of [3], 60k draws, significance 0.001
        rng = RandomStream(31337).generator()
        draws = 60_000
        perms = np.array([rng.permutation(3) for _ in range(draws)])
        codes = perms[:, 0] * 3 + perms[:, 1]
        _, counts = np.unique(codes, return_counts=True)
        assert len(counts) == 6
        expected = draws / 6.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, 5)


def axis_sets() -> list[PointSet]:
    """Point sets whose points each have at most one nonzero coordinate."""
    shared = [[2.0, 0, 0, 0], [-3.0, 0, 0, 0], [0, 1.5, 0, 0], [0, -1.5, 0, 0],
              [0, 0, 0, -0.5], [0, 0, 0.25, 0], [0.75, 0, 0, 0]]
    return [
        InstanceFamily.from_spec("scaled_basis(12,sqrt)").materialize(),
        PointSet(shared),  # signed values, several on one axis
        PointSet(shared + [[0.0] * 4]),  # and a zero point
        PointSet(np.array(shared) * 1e300),
        PointSet(np.array(shared) * 1e-300),
    ]


class TestAxisSetPermutations:
    """Every T_pi of an axis set is an axis set, read through its own closed-form matrix."""

    @staticmethod
    def read_matrices(monkeypatch) -> list[np.ndarray]:
        read: list[np.ndarray] = []
        original = transforms.gamma_from_tree

        def recording(tree, alpha, metric):
            value = original(tree, alpha, metric)
            read.append(tree.pointset._distances[metric])
            return value

        monkeypatch.setattr(transforms, "gamma_from_tree", recording)
        return read

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_each_matrix_is_that_of_its_own_points(self, s, monkeypatch):
        read = self.read_matrices(monkeypatch)
        eps = np.finfo(float).eps
        for pset in axis_sets():
            n, k = pset.dim, 3
            read.clear()
            epi_gamma2(pset, s, k, "greedy_upper", RandomStream(41))
            rng = RandomStream(41).generator()
            perms = [rng.permutation(n) for _ in range(k)]
            sq_weights = np.zeros((k, n))
            for a, perm in zip(sq_weights, perms):
                a[perm] = weights(n, s).w ** 2
            passes = _weighted_l2_matrices(pset.points, sq_weights)
            assert len(read) == k
            for mat, perm, shared in zip(read, perms, passes):
                own = pairwise_distance_matrix(apply_permuted_weights(pset, perm, s).points, L2)
                assert mat.tobytes() == own.tobytes()
                assert np.all(np.abs(mat - shared) <= (n + 2) * eps * shared)

    @pytest.mark.parametrize("method", ["greedy_upper", "exact_small"])
    def test_no_shared_pass(self, method, monkeypatch):
        def refused(points, sq_weights):
            raise AssertionError("the shared pass walked an axis set")

        monkeypatch.setattr(transforms, "_weighted_l2_matrices", refused)
        read = self.read_matrices(monkeypatch)
        pset = axis_sets()[2]  # 8 points, as exact_small allows
        out = epi_gamma2(pset, 1.0, 4, method, RandomStream(42))
        assert out.mean > 0.0 and len(read) == 4

    def test_one_matrix_alive_at_a_time(self):
        # the shared pass would keep all 20 matrices, 10 MiB; what remains is one
        # T_pi's m x n points (n = m here) and their copy, its matrix and row buffer
        m = 256
        pset = InstanceFamily.from_spec(f"scaled_basis({m},sqrt)").materialize()
        tracemalloc.start()
        try:
            epi_gamma2(pset, 2.0, 20, "greedy_upper", RandomStream(43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * m * m * 8

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(-1000, 1015))
    @example(k=1015)
    @example(k=-1000)
    def test_scales_exactly_by_a_power_of_two(self, k):
        for pset in axis_sets()[:3]:
            for method in ("greedy_upper", "exact_small"):
                if method == "exact_small" and pset.m > 8:
                    continue
                plain = epi_gamma2(pset, 2.0, 4, method, RandomStream(44))
                scaled = epi_gamma2(PointSet(np.ldexp(pset.points, k)), 2.0, 4, method,
                                    RandomStream(44))
                assert scaled == (math.ldexp(plain.mean, k), plain.spread)


def test_epi_gamma2_needs_a_permutation():
    pset = PointSet([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="^need num_perms >= 1, got 0$"):
        epi_gamma2(pset, 2.0, 0, "greedy_upper", RandomStream(0))


def test_spread_is_infinite_where_only_some_permuted_sets_collapse():
    # the points differ on one coordinate only, and its weight is w_2 = 0 wherever
    # pi moves it to position 2: that T_pi is one point, the others are two
    pset = PointSet([[0.0, 0.0], [1.0, 0.0]])
    epi = epi_gamma2(pset, 2.0, 6, "greedy_upper", RandomStream(0))
    assert epi.spread == math.inf and epi.mean > 0.0
