import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from weibsup import gamma, transforms
from weibsup.core import (
    Metric,
    PointSet,
    RandomStream,
    _axis_form,
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
        calls = []

        def recording(name, fn):
            def recorded(*args):
                calls.append((name, threading.get_ident()))
                return fn(*args)

            return recorded

        # a dense set's trees are one forest, built once and read once, and no tree
        # of its own is built or read
        builder = "_greedy_labels" if method == "greedy_upper" else "_exact_small_labels"
        for name in ("build_greedy_tree", "gamma_from_tree", builder, "_level_gammas"):
            monkeypatch.setattr(transforms, name, recording(name, getattr(transforms, name)))
        ps = PointSet(np.random.default_rng(9).standard_normal((8, 5)))
        epi_gamma2(ps, 1.0, 6, method, RandomStream(10), workers=3)
        expected = [builder, "_level_gammas"]
        assert calls == [(name, threading.get_ident()) for name in expected]

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
        """Each T_pi's matrix, as the tree reader gets it."""
        read: list[np.ndarray] = []
        original = transforms._level_gammas

        def recording(labels, dist, alpha, depths=None):
            read.extend(dist)
            return original(labels, dist, alpha, depths)

        monkeypatch.setattr(transforms, "_level_gammas", recording)
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

    @pytest.mark.parametrize("m, num_perms, matrices", [(256, 20, 5), (1024, 4, 3), (1024, 4, 1.5)])
    def test_one_matrix_alive_at_a_time(self, m, num_perms, matrices):
        # the shared pass would keep every T_pi's matrix (10 MiB at m = 256, K = 20);
        # what remains is one T_pi's matrix and its row buffer, and the tree's
        # labels and read blocks, which weigh most at small m.  No m x n T_pi is formed.
        pset = InstanceFamily.from_spec(f"scaled_basis({m},sqrt)").materialize()
        tracemalloc.start()
        try:
            epi_gamma2(pset, 2.0, num_perms, "greedy_upper", RandomStream(43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrices * m * m * 8

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


def per_tree_values(points, perms, w, matrices, builder=gamma.build_greedy_tree):
    """Each T_pi's gamma_2 as a tree of its own: the one-tree builder and
    gamma_from_tree on a T_pi set holding its matrix from the shared pass, or
    building its own where that is None."""
    values = []
    for perm, dist in zip(perms, matrices):
        t_pi = PointSet(points[:, perm] * w[None, :])
        if dist is not None:
            t_pi._distances[L2] = dist
        values.append(gamma.gamma_from_tree(builder(t_pi, L2), 2.0, L2).value)
    return values


def read_values(monkeypatch) -> list[float]:
    """Each T_pi's value, as the tree reader gives it to epi_gamma2."""
    values: list[float] = []
    original = transforms._level_gammas

    def recording(labels, dist, alpha, depths=None):
        out = original(labels, dist, alpha, depths)
        values.extend(out.tolist())
        return out

    monkeypatch.setattr(transforms, "_level_gammas", recording)
    return values


def reference_values(ps, s, num_perms, seed, builder=gamma.build_greedy_tree):
    """per_tree_values on epi_gamma2's permutations: on the shared pass's matrices
    for a dense set, and on each T_pi's own for an axis set."""
    n, rng = ps.dim, RandomStream(seed).generator()
    perms, w = [rng.permutation(n) for _ in range(num_perms)], weights(n, s).w
    matrices = [None] * num_perms
    if _axis_form(ps.points) is None:
        sq_weights = np.zeros((num_perms, n))
        for a, perm in zip(sq_weights, perms):
            a[perm] = w * w
        matrices = _weighted_l2_matrices(ps.points, sq_weights)
    return per_tree_values(ps.points, perms, w, matrices, builder)


def forest_sets() -> dict[str, PointSet]:
    rng = np.random.default_rng(41)
    steps = np.array([[i, i % 3, 0.0] for i in range(12)])  # one coordinate orders the points
    return {
        "gaussian_cloud": InstanceFamily.from_spec("gaussian_cloud(6,40,1.0)").materialize(),
        # exact ties; w_n = 0 collapses points and writes -0.0 beside +0.0
        "hypercube_subset": InstanceFamily.from_spec("hypercube_subset(8,64)").materialize(),
        "duplicate_rows": PointSet(rng.standard_normal((7, 4))[rng.integers(0, 7, 30)]),
        "m1": PointSet([[1.0, -2.0, 3.0]]),
        "n1": PointSet(rng.standard_normal((15, 1))),
        # a permutation that gives coordinate 0 the weight w_n = 0 collapses it early
        "depths": PointSet(np.vstack([steps, -steps])),
        "underflow": PointSet([[1.0, 0.0], [1.0, 1e-300]]),  # distinct, at l2 distance 0
    }


class TestGreedyForest:
    """A dense set's T_pi trees, built and read as one forest, keep the bits of
    each T_pi's own tree."""

    @pytest.mark.filterwarnings("ignore:infinite weight exponent:UserWarning")
    @pytest.mark.parametrize("name", list(forest_sets()))
    @pytest.mark.parametrize("s", [2.0 / 3.0, 2.0, math.inf])
    @pytest.mark.parametrize("num_perms", [1, 3, 20])
    def test_forest_matches_the_per_tree_reference(self, name, s, num_perms, monkeypatch):
        ps, forest = forest_sets()[name], read_values(monkeypatch)
        epi_gamma2(ps, s, num_perms, "greedy_upper", RandomStream(13))
        reference = reference_values(ps, s, num_perms, 13)
        assert [x.hex() for x in forest] == [x.hex() for x in reference]

    def test_trees_stop_at_different_depths(self):
        # under the stream above, some T_pi of the "depths" set finish while others split
        ps, rng = forest_sets()["depths"], RandomStream(13).generator()
        trees = [gamma.build_greedy_tree(apply_permuted_weights(ps, rng.permutation(3), 2.0), L2)
                 for _ in range(20)]
        assert len({len(tree.levels) for tree in trees}) > 1

    def test_a_finished_tree_adds_nothing_past_its_depth(self, monkeypatch):
        # rows one ulp apart in coordinate 0 can meet in T_pi, where w_k < 1 rounds their
        # products together: a duplicate group whose matrix distance is not 0.  Its tree
        # reads that cell at its final level only, not at the levels the forest repeats.
        a, b, c = 1.9771693095448233, 1.9818938919157054, 1.9976467892017766
        ps = PointSet([[a, c, 1.7584113477828882], [b, 0, 0], [0, 1.4436294870404078, 0],
                       [0, 1.5034927090072887, 1.41439871355086],
                       [np.nextafter(a, 2), c, 1.7584113477828882]]
                      + [[np.nextafter(b, 2), 0, 0]] * 3)
        forest = read_values(monkeypatch)
        epi_gamma2(ps, 2.0, 6, "greedy_upper", RandomStream(194))
        reference = reference_values(ps, 2.0, 6, 194)
        assert [x.hex() for x in forest] == [x.hex() for x in reference]

    @pytest.mark.parametrize("seed", [0, 1])  # T_pi 0 overflows, or T_pi 1 after a finite one
    def test_overflowing_t_pi_coordinate_raises_after_the_pass(self, seed):
        # coordinates near the float64 edge differ little, so the pass is finite; a
        # T_pi that gives coordinate 0 the weight w_1 > 1 overflows
        near = PointSet([[1.7e308 * (1 - 2.0**-k), a, b]
                         for k, a, b in ((60, 0, 0), (40, 0, 1), (39, 1, 0), (38, 1, 1))])
        with pytest.raises(ValueError, match="^all coordinates must be finite$"):
            epi_gamma2(near, 2.0 / 3.0, 4, "greedy_upper", RandomStream(seed))

    @pytest.mark.parametrize("method", ["greedy_upper", "exact_small"])
    @pytest.mark.parametrize("seed", [14, 19])  # T_pi 3 or 1 overflows a coordinate
    def test_an_earlier_t_pi_level_sum_overflow_is_raised_first(self, method, seed):
        # coordinate 0 differs little near the float64 edge and the others by 0.9e308:
        # the pass is finite, and the T_pi read before the overflowing one is not
        ps = PointSet([[1.7e308 * (1 - 2.0**-(40 + i))] + list(bits)
                       for i, bits in enumerate(itertools.product([0.0, 0.9e308], repeat=3))])
        with pytest.raises(ValueError, match="^the chaining level sum overflows float64$"):
            epi_gamma2(ps, 2.0, 4, method, RandomStream(seed))

    def test_overflowing_weighted_distance_raises_the_pass_message(self):
        far = PointSet([[1.7e308 * (1 - 2.0**-k), a, b]
                        for k, a, b in ((0, 0, 0), (40, 0, 1), (39, 1, 0), (38, 1, 1))])
        with pytest.raises(ValueError, match="^l2 distances between these points overflow"):
            epi_gamma2(far, 2.0 / 3.0, 4, "greedy_upper", RandomStream(0))


def axis_edge_sets() -> dict[str, PointSet]:
    shared = [[2.0, 0, 0, 0], [-3.0, 0, 0, 0], [0, 1.5, 0, 0], [0, 0, 0, -0.5], [0, 0, 0.25, 0]]
    return {
        "zero_point": PointSet(shared + [[0.0] * 4]),
        # -0.0 entries, of a zero point and beside a point's nonzero coordinate
        "negative_zero": PointSet([[-0.0, 0, 0, 0], [0, -0.0, 0, 1.0], [0, 0, -0.0, -2.0],
                                   [0.5, -0.0, 0, 0], [0, 0, 0.25, -0.0]]),
        # whichever axis pi gives w_n = 0 collapses its points onto the zero point
        "collapse": PointSet([[1.0, 0, 0], [2.0, 0, 0], [-3.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
        "huge": PointSet(np.array(shared) * 1e300),
        "tiny": PointSet(np.array(shared) * 1e-300),
        "basis": InstanceFamily.from_spec("scaled_basis(12,sqrt)").materialize(),
    }


class TestLabelPath:
    """Every T_pi tree of epi_gamma2, dense or axis, greedy or exact, is built and
    read on labels, with the bits of that T_pi's own tree."""

    @pytest.mark.parametrize("m", [1, 3, 5, 8])
    @pytest.mark.parametrize("axis", [False, True])
    @pytest.mark.parametrize("s", [2.0 / 3.0, 2.0])
    def test_exact_forest_matches_each_t_pi_tree(self, m, axis, s, monkeypatch):
        rng = np.random.default_rng(m)
        points = rng.standard_normal((m, 5))
        if axis:  # each point keeps one of its coordinates
            points *= np.eye(5)[rng.integers(0, 5, m)]
        ps = PointSet(points)
        assert (_axis_form(ps.points) is not None) == axis
        forest = read_values(monkeypatch)
        epi_gamma2(ps, s, 6, "exact_small", RandomStream(m))
        reference = reference_values(ps, s, 6, m, gamma.exact_small_tree)
        assert len(forest) == 6
        assert [x.hex() for x in forest] == [x.hex() for x in reference]

    @pytest.mark.filterwarnings("ignore:infinite weight exponent:UserWarning")
    @pytest.mark.parametrize("name, method", [  # exact_small takes at most 8 points
        (name, method) for name, ps in axis_edge_sets().items()
        for method in ("greedy_upper", "exact_small") if method == "greedy_upper" or ps.m <= 8])
    @pytest.mark.parametrize("s", [2.0 / 3.0, 2.0, math.inf])
    def test_axis_t_pi_matches_its_own_point_set(self, name, method, s, monkeypatch):
        ps = axis_edge_sets()[name]
        assert _axis_form(ps.points) is not None
        builder = gamma.build_greedy_tree if method == "greedy_upper" else gamma.exact_small_tree
        forest = read_values(monkeypatch)
        epi_gamma2(ps, s, 8, method, RandomStream(45))
        reference = reference_values(ps, s, 8, 45, builder)
        assert len(forest) == 8
        assert [x.hex() for x in forest] == [x.hex() for x in reference]

    @pytest.mark.filterwarnings("ignore:infinite weight exponent:UserWarning")
    @pytest.mark.parametrize("name", list(axis_edge_sets()) + ["dense"])
    @pytest.mark.parametrize("s", [2.0 / 3.0, math.inf])
    def test_each_batch_is_its_t_pi_points(self, name, s):
        # rows equal exactly where the points are, and the points' own center norms;
        # an axis T_pi's matrix is also that of its own points
        ps = forest_sets()["hypercube_subset"] if name == "dense" else axis_edge_sets()[name]
        rng = RandomStream(49).generator()
        perms = [rng.permutation(ps.dim) for _ in range(6)]
        batches = list(transforms._t_pi_batches(ps, perms, weights(ps.dim, s).w))
        assert len(batches) == (1 if name == "dense" else 6)
        dist = np.concatenate([batch[0] for batch in batches])
        norms, rows = (np.concatenate([batch[i] for batch in batches]) for i in (1, 2))
        for k, perm in enumerate(perms):
            t_pi = apply_permuted_weights(ps, perm, s).points
            tree = slice(k * ps.m, (k + 1) * ps.m)
            assert np.array_equal((rows[tree, None] == rows[tree]).all(axis=2),
                                  (t_pi[:, None] == t_pi).all(axis=2))
            assert norms[tree].tobytes() == gamma._center_norms(t_pi, L2).tobytes()
            if name != "dense":
                assert dist[k].tobytes() == pairwise_distance_matrix(t_pi, L2).tobytes()

    @pytest.mark.parametrize("method", ["greedy_upper", "exact_small"])
    @pytest.mark.parametrize("seed", [0, 1, 7])  # T_pi 0, 1 or 2 gives axis 0 the weight w_1 > 1
    def test_overflowing_axis_t_pi_raises_where_its_point_set_does(self, method, seed,
                                                                    monkeypatch):
        ps = PointSet([[1.7e308, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        rng = RandomStream(seed).generator()
        first = 0
        for perm in (rng.permutation(3) for _ in range(4)):
            try:
                apply_permuted_weights(ps, perm, 2.0 / 3.0)
            except ValueError:
                break
            first += 1
        read = read_values(monkeypatch)
        with pytest.raises(ValueError, match="^all coordinates must be finite$"):
            epi_gamma2(ps, 2.0 / 3.0, 4, method, RandomStream(seed))
        assert first == len(read) == [0, 1, 7].index(seed)

    @pytest.mark.filterwarnings("ignore:infinite weight exponent:UserWarning")
    @pytest.mark.parametrize("method", ["greedy_upper", "exact_small"])
    def test_overflowing_axis_distance_keeps_its_message(self, method):
        # at s = inf every T_pi keeps two of the points at weight 1
        big = PointSet(np.eye(4)[:3] * 1.7e308)
        with pytest.raises(ValueError, match="^l2 distances between these points overflow"):
            epi_gamma2(big, math.inf, 4, method, RandomStream(0))

    @pytest.mark.parametrize("method", ["greedy_upper", "exact_small"])
    def test_no_t_pi_point_set(self, method, monkeypatch):
        sets = [PointSet(np.random.default_rng(46).standard_normal((8, 5))), axis_sets()[2]]
        made = []
        original = PointSet.__post_init__

        def counting(pset):
            made.append(pset)
            original(pset)

        monkeypatch.setattr(PointSet, "__post_init__", counting)
        for pset in sets:
            epi_gamma2(pset, 2.0, 4, method, RandomStream(47))
        assert made == []
        epi_gamma2(sets[0], 2.0, 4, "gaussian_proxy", RandomStream(47), samples=200)
        assert len(made) == 4  # the proxy's T_pi are sets, and the count sees them

    @pytest.mark.parametrize("spec", ["gaussian_cloud(3,600,1.0)", "scaled_basis(9,sqrt)"])
    def test_exact_small_refuses_a_large_set_before_the_shared_pass(self, spec, monkeypatch):
        def refused(points, sq_weights):
            raise AssertionError("the shared pass ran for a set exact_small refuses")

        monkeypatch.setattr(transforms, "_weighted_l2_matrices", refused)
        ps = InstanceFamily.from_spec(spec).materialize()
        with pytest.raises(ValueError, match=f"^exact enumeration is limited to m <= 8 points, "
                                             f"got {ps.m}$"):
            epi_gamma2(ps, 2.0, 4, "exact_small", RandomStream(48))
