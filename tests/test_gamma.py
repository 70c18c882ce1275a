import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import weibsup.gamma
import weibsup.transforms
from weibsup.core import (
    Metric,
    PointSet,
    RandomStream,
    diameter,
    pairwise_distance_matrix,
    point_norms,
)
from weibsup.gamma import (
    GammaValue,
    NotAdmissibleError,
    PartitionTree,
    build_greedy_tree,
    chaining_bound,
    dudley_bound,
    exact_small_tree,
    gamma_exact_small,
    gamma_from_tree,
    gaussian_gamma2_proxy,
    intersect_trees,
    sudakov_lower,
    tree_to_jsonable,
    validate_admissible,
)
from weibsup.harness import InstanceFamily
from weibsup.transforms import apply_permuted_weights, epi_gamma2

L2 = Metric.l2()
LINF = Metric.linf()


def random_set(seed: int, m: int, n: int) -> PointSet:
    return PointSet(np.random.default_rng(seed).standard_normal((m, n)))


def sets_with_ties() -> list[PointSet]:
    """Seeded sets with duplicate points, and a T_pi of a hypercube subset,
    whose distances tie exactly and whose last weight 0 collapses points."""
    rng = np.random.default_rng(75)
    sets = []
    for _ in range(8):
        m, n = int(rng.integers(2, 80)), int(rng.integers(1, 7))
        distinct = rng.standard_normal((int(rng.integers(1, m + 1)), n))
        sets.append(PointSet(distinct[rng.integers(0, len(distinct), size=m)]))
    cube = InstanceFamily("hypercube_subset", seed=76, n=8, m=96).materialize()
    sets.append(apply_permuted_weights(cube, rng.permutation(8), 2.0))
    return sets


def reference_budget(n: int) -> int | None:
    return None if 2**n >= 64 else 2 ** (2**n)


def reference_is_point(points: np.ndarray, cell) -> bool:
    rows = points[np.asarray(cell, dtype=np.int64)]
    return len(cell) == 1 or bool(np.all(rows == rows[0]))


def reference_validate_admissible(tree: PartitionTree) -> None:
    """The checker as it was written over cell tuples, point by point, kept as
    the reference for the label-array checker."""
    m = tree.pointset.m
    levels = tree.levels
    if not levels:
        raise NotAdmissibleError("tree has no levels")
    if len(levels[0]) != 1 or tuple(levels[0][0]) != tuple(range(m)):
        raise NotAdmissibleError("level 0 must be the single cell containing every point")
    prev_cell_of = None
    for n, level in enumerate(levels):
        budget = reference_budget(n)
        if budget is not None and len(level) > budget:
            raise NotAdmissibleError(
                f"level {n} has {len(level)} cells, over the budget 2^(2^{n}) = {budget}"
            )
        cell_of = np.full(m, -1, dtype=np.int64)
        for ci, cell in enumerate(level):
            for i in cell:
                if not 0 <= i < m:
                    raise NotAdmissibleError(f"level {n} references point index {i}")
                if cell_of[i] != -1:
                    raise NotAdmissibleError(f"level {n} cells overlap at point {i}")
                cell_of[i] = ci
        if (cell_of == -1).any():
            missing = int(np.argmax(cell_of == -1))
            raise NotAdmissibleError(f"level {n} does not cover point {missing}")
        if prev_cell_of is not None:
            for cell in level:
                if len({int(prev_cell_of[i]) for i in cell}) != 1:
                    raise NotAdmissibleError(
                        f"level {n} cell {tuple(cell)} is not nested in a single parent"
                    )
        prev_cell_of = cell_of
    for cell in levels[-1]:
        if not reference_is_point(tree.pointset.points, cell):
            raise NotAdmissibleError(
                f"final level cell {tuple(cell)} is neither a singleton nor a "
                "zero-diameter duplicate group"
            )


def reference_build_greedy_tree(pset: PointSet, metric: Metric) -> PartitionTree:
    """The greedy builder as it was written over cell tuples, splitting each cell
    on its own copied sub-matrix, kept as the reference for the label-array builder."""
    m = pset.m
    dist = pairwise_distance_matrix(pset.points, metric)
    norms = point_norms(pset.points, metric)

    def split(cell, k):
        idx = np.asarray(cell, dtype=np.int64)
        sub = dist[np.ix_(idx, idx)]
        centers = [int(np.argmax(norms[idx]))]
        min_dist = sub[centers[0]].copy()
        far = int(np.argmax(min_dist))
        while len(centers) < k and min_dist[far] > 0.0:
            centers.append(far)
            np.minimum(min_dist, sub[far], out=min_dist)
            far = int(np.argmax(min_dist))
        assign = np.argmin(sub[:, centers], axis=1)
        return [tuple(int(i) for i in idx[assign == ci]) for ci in range(len(centers))]

    levels = [(tuple(range(m)),)]
    for n in range(1, 64):
        cells = levels[-1]
        is_point = [reference_is_point(pset.points, cell) for cell in cells]
        if all(is_point):
            break
        hard = reference_budget(n)
        target = m if hard is None else -(-hard // len(cells))
        sizes = [1 if point else len(cell) for cell, point in zip(cells, is_point)]
        allocs = [min(size, target) for size in sizes]
        total = sum(allocs)
        if hard is not None and total > hard:
            while total > hard:
                worst = max(range(len(allocs)), key=lambda i: (allocs[i], i))
                allocs[worst] -= 1
                total -= 1
        else:
            cap = m if hard is None else min(hard, m)
            while total < cap:
                deficits = [size - alloc for size, alloc in zip(sizes, allocs)]
                best = max(range(len(allocs)), key=lambda i: (deficits[i], -i))
                if deficits[best] <= 0:
                    break
                allocs[best] += 1
                total += 1
        new_level = []
        for cell, alloc, point in zip(cells, allocs, is_point):
            new_level.extend([cell] if alloc <= 1 or point else split(cell, alloc))
        levels.append(tuple(new_level))
    return PartitionTree(pset, tuple(levels))


def reference_allocations(sizes: list[int], hard: int | None, m: int) -> list[int]:
    """The share, trim and redistribution loops of the reference builder, one
    unit at a time, on one level's cell sizes."""
    target = m if hard is None else -(-hard // len(sizes))
    allocs = [min(size, target) for size in sizes]
    total = sum(allocs)
    if hard is not None and total > hard:
        while total > hard:
            worst = max(range(len(allocs)), key=lambda i: (allocs[i], i))
            allocs[worst] -= 1
            total -= 1
    else:
        cap = m if hard is None else min(hard, m)
        while total < cap:
            deficits = [size - alloc for size, alloc in zip(sizes, allocs)]
            best = max(range(len(allocs)), key=lambda i: (deficits[i], -i))
            if deficits[best] <= 0:
                break
            allocs[best] += 1
            total += 1
    return allocs


def reference_level_sum(tree: PartitionTree, cell_value) -> float:
    """sup over t of sum_n cell_value(n, np.ix_(A, A)) with A = A_n(t), read one
    cell at a time; the reference for the level-wide sums."""
    acc = np.zeros(tree.pointset.m)
    for n, level in enumerate(tree.levels):
        for cell in level:
            if len(cell) > 1:
                value = cell_value(n, np.ix_(cell, cell))
                if value > 0.0:
                    acc[list(cell)] += value
    return float(acc.max())


def reference_gamma(tree: PartitionTree, alpha: float, metric: Metric) -> float:
    dist = pairwise_distance_matrix(tree.pointset, metric)
    return reference_level_sum(tree, lambda n, ix: 2.0 ** (n / alpha) * float(dist[ix].max()))


def reference_chaining(tree: PartitionTree, r: float) -> float:
    d2 = pairwise_distance_matrix(tree.pointset, L2)
    dinf = pairwise_distance_matrix(tree.pointset, LINF)
    return reference_level_sum(
        tree, lambda k, ix: float((2.0 ** (k / 2.0) * d2[ix] + 2.0 ** (k / r) * dinf[ix]).max())
    )


@st.composite
def grid_sets(draw) -> PointSet:
    """1 to 300 points on a small integer grid, so distances tie; some rows
    repeat, and one coordinate may be 0 throughout."""
    m, n = draw(st.integers(1, 300)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(-draw(st.integers(1, 3)), 4, (draw(st.integers(1, m)), n)).astype(float)
    pts = distinct[rng.integers(0, len(distinct), m)]
    if draw(st.booleans()):
        pts[:, rng.integers(n)] = 0.0
    return PointSet(pts)


@st.composite
def malformed_trees(draw) -> PartitionTree:
    """A nested sequence of partitions of a small set with duplicate points,
    then broken up to three times in the ways the checker must catch."""
    m = draw(st.integers(1, 6))
    points = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), float)
    rows = [np.zeros(m, dtype=np.int64)]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        rows.append(rows[-1] * 3 + np.array(extra))
    levels = [[[i for i in range(m) if row[i] == c] for c in sorted(set(row))] for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["add", "drop", "empty", "move", "singletons", "swap", "clear"]))
        if op == "clear":
            levels = []
            break
        level = levels[draw(st.integers(0, len(levels) - 1))]
        cell = level[draw(st.integers(0, len(level) - 1))] if level else None
        if op == "add" and cell is not None:
            cell.insert(draw(st.integers(0, len(cell))), draw(st.integers(-1, m)))
        elif op == "drop" and cell:
            cell.pop(draw(st.integers(0, len(cell) - 1)))
        elif op == "empty":
            level.insert(draw(st.integers(0, len(level))), [])
        elif op == "move" and cell:
            level.append([cell.pop()])
        elif op == "singletons":
            level[:] = [[i] for i in range(m)]
        elif op == "swap" and len(levels) > 1:
            j = draw(st.integers(1, len(levels) - 1))
            levels[j - 1], levels[j] = levels[j], levels[j - 1]
    cells = tuple(tuple(tuple(cell) for cell in level) for level in levels)
    return PartitionTree(PointSet(points[:, None]), cells)


def rejection(validate, tree: PartitionTree) -> str | None:
    try:
        validate(tree)
    except NotAdmissibleError as exc:
        return str(exc)
    return None


def emax_gaussians(n: int) -> float:
    """Quadrature oracle for E max of n iid standard Gaussians."""
    pos, _ = integrate.quad(lambda x: 1.0 - stats.norm.cdf(x) ** n, 0.0, 40.0)
    neg, _ = integrate.quad(lambda x: stats.norm.cdf(x) ** n, -40.0, 0.0)
    return pos - neg


class TestGreedyTree:
    def test_singleton_single_level(self):
        tree = build_greedy_tree(PointSet([[2.0, 1.0]]), L2)
        assert tree.levels == (((0,),),)
        validate_admissible(tree)

    def test_small_sets_singleton_at_level_one(self):
        for m in (2, 3, 4):
            tree = build_greedy_tree(random_set(m, m, 3), L2)
            assert len(tree.levels) == 2
            assert all(len(cell) == 1 for cell in tree.levels[1])

    def test_level_sizes_hundred_points(self):
        tree = build_greedy_tree(random_set(100, 100, 5), L2)
        sizes = [len(level) for level in tree.levels]
        assert len(sizes) <= 5
        for size, cap in zip(sizes, (1, 4, 16, 100, 100)):
            assert size <= cap
        assert all(len(cell) == 1 for cell in tree.levels[-1])

    @pytest.mark.parametrize("metric", [L2, LINF, Metric.lp(1.5)])
    def test_admissible_various_metrics(self, metric):
        for seed, m in ((1, 7), (2, 33), (3, 64)):
            validate_admissible(build_greedy_tree(random_set(seed, m, 4), metric))

    @pytest.mark.parametrize("metric", [L2, LINF, Metric.lp(1.5)], ids=["l2", "linf", "p1.5"])
    def test_matches_tuple_builder(self, metric):
        rng = np.random.default_rng(77)
        sets = sets_with_ties() + [
            PointSet([[0.5, -1.0]]),
            PointSet(rng.standard_normal((40, 1))),
            PointSet(np.repeat(rng.standard_normal((3, 1)), 7, axis=0)),
            PointSet(rng.choice([-1.0, 1.0], size=(200, 9))),
            PointSet(rng.standard_normal((300, 12))),
        ]
        for ps in sets:
            tree = build_greedy_tree(ps, metric)
            reference = reference_build_greedy_tree(ps, metric)
            assert tree_to_jsonable(tree) == tree_to_jsonable(reference)
            assert tree.levels == reference.levels

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(grid_sets())
    def test_matches_tuple_builder_and_cell_loops_on_grids(self, ps):
        trees = {}
        for metric in (L2, LINF, Metric.lp(1.5)):
            tree = trees[metric] = build_greedy_tree(ps, metric)
            assert tree.levels == reference_build_greedy_tree(ps, metric).levels
            # the labels the tree carries are the ones its cells give
            assert np.array_equal(
                validate_admissible(tree), validate_admissible(PartitionTree(ps, tree.levels))
            )
            for alpha in (0.5, 2.0):
                value = gamma_from_tree(tree, alpha, metric).value
                assert value == reference_gamma(tree, alpha, metric)
        both = intersect_trees(trees[L2], trees[LINF])
        for tree in (both, trees[L2]):
            for r in (0.5, 1.0, 2.0):
                assert chaining_bound(ps, r, tree) == reference_chaining(tree, r)

    @pytest.mark.parametrize(
        "points, metric",
        [
            ([[1.0, 0.0], [1.0, 1e-300]], L2),
            ([[0.0], [1e-170]], L2),
            ([[0, 0, 0], [3, 4, 0], [3, 4, 2e-300], [3, 4, 4e-300], [3, 4, 0]], L2),
            ([[1.0, 0.0], [1.0, 1e-250], [5.0, 0.0]], Metric.lp(1.5)),
        ],
        ids=["two_l2", "tiny_l2", "cluster_l2", "p1.5"],
    )
    def test_underflowing_distances_end_admissible(self, points, metric):
        # the points differ, but some of their distances underflow to 0
        ps = PointSet(points)
        tree = build_greedy_tree(ps, metric)
        validate_admissible(tree)
        assert len(tree.levels) <= 7
        dist = pairwise_distance_matrix(ps, metric)
        assert gamma_from_tree(tree, 2.0, metric).value == reference_gamma(tree, 2.0, metric)
        assert gamma_from_tree(tree, 2.0, metric).value >= dist.max()

    def test_allocations_match_unit_loops(self):
        # shares trimmed and redistributed, including levels the builder rarely reaches
        rng = np.random.default_rng(78)
        for _ in range(400):
            sizes = rng.integers(1, int(rng.choice([3, 10, 60])), int(rng.integers(1, 20)))
            hard = [4, 16, 256, None][int(rng.integers(4))]
            m = int(sizes.sum() + rng.integers(0, 30))
            expected = reference_allocations(sizes.tolist(), hard, m)
            assert weibsup.gamma._allocations(sizes, hard, m).tolist() == expected

    def test_overflowing_norms_pick_the_larger_first_center(self):
        # both norms overflow float64 unscaled, and the second one is larger
        tree = build_greedy_tree(PointSet([[1e155, 0.0], [1e155, 1e154]]), L2)
        assert tree.levels[1] == ((1,), (0,))

    def test_duplicate_points_terminate(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        tree = build_greedy_tree(PointSet(pts), L2)
        validate_admissible(tree)
        assert {tuple(c) for c in tree.levels[-1]} == {(0, 1), (2,)}


class TestAdmissibilityChecker:
    def test_level_zero_violation(self):
        ps = random_set(4, 4, 2)
        tree = PartitionTree(ps, (((0,), (1,), (2,), (3,)),))
        with pytest.raises(NotAdmissibleError, match="level 0"):
            validate_admissible(tree)

    def test_budget_violation(self):
        ps = random_set(5, 6, 2)
        level1 = tuple((i,) for i in range(6))
        tree = PartitionTree(ps, ((tuple(range(6)),), level1))
        with pytest.raises(NotAdmissibleError, match="budget"):
            validate_admissible(tree)

    def test_cover_violation(self):
        ps = random_set(6, 3, 2)
        tree = PartitionTree(ps, ((tuple(range(3)),), ((0,), (1,))))
        with pytest.raises(NotAdmissibleError, match="cover"):
            validate_admissible(tree)

    def test_overlap_violation(self):
        ps = random_set(7, 3, 2)
        tree = PartitionTree(ps, ((tuple(range(3)),), ((0, 1), (1, 2))))
        with pytest.raises(NotAdmissibleError, match="overlap"):
            validate_admissible(tree)

    def test_nesting_violation(self):
        ps = random_set(8, 4, 2)
        levels = (
            (tuple(range(4)),),
            ((0, 1), (2, 3)),
            ((0, 2), (1,), (3,)),
        )
        with pytest.raises(NotAdmissibleError, match="nested"):
            validate_admissible(PartitionTree(ps, levels))

    def test_nonsingleton_final_violation(self):
        ps = random_set(9, 3, 2)
        tree = PartitionTree(ps, ((tuple(range(3)),), ((0, 1), (2,))))
        with pytest.raises(NotAdmissibleError, match="final"):
            validate_admissible(tree)


    def test_returns_cell_labels(self):
        ps = random_set(10, 5, 2)
        levels = ((tuple(range(5)),), ((3, 0), (1, 2, 4)), ((0,), (3,), (2,), (1, 4)))
        ps = PointSet(np.vstack([ps.points[:4], ps.points[1]]))
        labels = validate_admissible(PartitionTree(ps, levels))
        assert labels.tolist() == [[0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 3, 2, 1, 3]]

    @settings(max_examples=400, deadline=None)
    @given(malformed_trees())
    # two points repeat; the first repeat in cell order is named, not the lowest point
    @example(PartitionTree(random_set(11, 4, 1), ((tuple(range(4)),), ((0, 2), (2, 0), (1, 3)))))
    def test_rejects_where_tuple_checker_does(self, tree):
        expected = rejection(reference_validate_admissible, tree)
        assert rejection(validate_admissible, tree) == expected


def valid_forest() -> tuple[np.ndarray, np.ndarray]:
    """Three greedy trees of 20 points each, built as one forest: their rows
    (tree k holds points 20k to 20k + 19) and (levels, 60) labels."""
    sets = [random_set(seed, 20, 3).points for seed in (61, 62, 63)]
    dist = np.stack([pairwise_distance_matrix(pts, L2) for pts in sets])
    points = np.vstack(sets)
    labels = weibsup.gamma._greedy_labels(dist, weibsup.gamma._center_norms(points, L2), points)[0]
    return points, labels


def shared_cell_point(row: np.ndarray, points) -> int:
    """A point among ``points`` whose cell in ``row`` has another point."""
    return next(int(p) for p in points if np.count_nonzero(row == row[p]) > 1)


class TestForestLabelChecker:
    """Each way of corrupting a valid forest's labels is named by the checker."""

    @staticmethod
    def rejection(points: np.ndarray, labels: np.ndarray) -> str:
        with pytest.raises(NotAdmissibleError) as info:
            weibsup.gamma._check_labels(points, labels, 3)
        return str(info.value)

    def test_valid_forest_passes(self):
        points, labels = valid_forest()
        assert len(labels) == 4 and labels[-1].max() == 59  # singletons at level 3
        weibsup.gamma._check_labels(points, labels, 3)

    def test_level_one_cell_spanning_two_trees(self):
        points, labels = valid_forest()
        p = shared_cell_point(labels[1], range(20, 40))  # a tree-1 point joins a tree-0 cell
        labels[1, p] = labels[1, 0]
        assert self.rejection(points, labels) == (
            f"level 1 cell {labels[1, 0]} is not nested in a single parent")

    def test_cell_with_two_parents(self):
        points, labels = valid_forest()
        p = shared_cell_point(labels[2], range(20))
        other = next(q for q in range(20) if labels[1, q] != labels[1, p])
        labels[2, p] = labels[2, other]
        assert self.rejection(points, labels) == (
            f"level 2 cell {labels[2, other]} is not nested in a single parent")

    def test_tree_over_its_level_budget(self):
        points, labels = valid_forest()
        labels = labels[:2]  # tree 0's four level-1 cells, and a fifth split off
        labels[1, shared_cell_point(labels[1], range(20))] = labels[1].max() + 1
        assert self.rejection(points, labels) == (
            "level 1 has 5 cells in tree 0, over the budget 2^(2^1) = 4")

    def test_skipped_cell_number(self):
        points, labels = valid_forest()
        labels[2, labels[2] >= 3] += 1
        assert self.rejection(points, labels) == (
            f"level 2 does not number its cells 0..{labels[2].max()}")

    def test_final_cell_of_two_distinct_points(self):
        points, labels = valid_forest()
        # two final singletons of one parent merge, and the cells are renumbered
        p = shared_cell_point(labels[2], range(60))
        q = next(q for q in range(60) if q != p and labels[2, q] == labels[2, p])
        labels[3, q] = labels[3, p]
        labels[3] = np.unique(labels[3], return_inverse=True)[1]
        assert self.rejection(points, labels) == (
            f"final level cell {labels[3, p]} is neither a singleton nor a zero-diameter "
            "duplicate group")

    def test_level_zero_not_one_cell_per_tree(self):
        points, labels = valid_forest()
        labels[0] = 0
        assert self.rejection(points, labels) == "level 0 must be one cell per tree"


class TestGammaFromTree:
    def test_two_point_distance(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        tree = build_greedy_tree(ps, L2)
        assert gamma_from_tree(tree, 2.0, L2).value == 5.0

    def test_singleton_zero(self):
        ps = PointSet([[1.0, 1.0]])
        assert gamma_from_tree(build_greedy_tree(ps, L2), 2.0, L2).value == 0.0

    def test_small_sets_equal_diameter(self):
        for m in (2, 3, 4):
            ps = random_set(20 + m, m, 3)
            d = diameter(ps, range(m), L2)
            assert gamma_from_tree(build_greedy_tree(ps, L2), 2.0, L2).value == d

    def test_alpha_domain(self):
        ps = random_set(30, 4, 2)
        tree = build_greedy_tree(ps, L2)
        for bad in (0.0, -1.0, 4.5):
            with pytest.raises(ValueError):
                gamma_from_tree(tree, bad, L2)

    def test_whole_set_cell_reads_the_matrix_without_copying(self):
        m = 512
        ps = random_set(32, m, 3)
        # cells of 512, 128, 32, 2 and 1 points: only the first is a whole m x m
        levels = [np.arange(m).reshape(-1, size) for size in (512, 128, 32, 2, 1)]
        tree = PartitionTree(ps, tuple(tuple(map(tuple, cells.tolist())) for cells in levels))
        dist = weibsup.gamma._distance_matrix(ps, L2)
        tracemalloc.start()
        try:
            value = gamma_from_tree(tree, 2.0, L2).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 4
        per_point = sum(
            2.0 ** (n / 2.0) * np.repeat([dist[np.ix_(c, c)].max() for c in cells], cells.shape[1])
            for n, cells in enumerate(levels)
        )
        assert value == per_point.max()

    def test_small_cells_are_read_in_capped_batches(self):
        m = 2048
        ps = random_set(33, m, 2)
        # the whole set twice, then many cells of 128, 8, 2 and 1 points
        levels = [np.arange(m).reshape(-1, size) for size in (m, m, 128, 8, 2, 1)]
        tree = PartitionTree(ps, tuple(tuple(map(tuple, cells.tolist())) for cells in levels))
        weibsup.gamma._distance_matrix(ps, L2)
        tracemalloc.start()
        try:
            value = gamma_from_tree(tree, 2.0, L2).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # level 2's sixteen 128 x 128 blocks alone would take m^2 * 8 / 16 bytes
        assert peak < m * m * 8 / 32
        assert value == reference_gamma(tree, 2.0, L2)

    def test_rejects_non_admissible(self):
        ps = random_set(31, 3, 2)
        bad = PartitionTree(ps, ((tuple(range(3)),), ((0, 1), (2,))))
        with pytest.raises(NotAdmissibleError):
            gamma_from_tree(bad, 2.0, L2)

    def test_level_weight_overflow_raises_value_error(self):
        tree = build_greedy_tree(random_set(34, 16, 4), L2)
        with pytest.raises(ValueError, match=r"^level weight 2\^\(2/0.001\) overflows float64$"):
            gamma_from_tree(tree, 0.001, L2)


def tree_of_runs(ps: PointSet, order: np.ndarray, runs: list[list[int]]) -> PartitionTree:
    """The tree whose level n cuts the points, taken in ``order``, into
    consecutive cells of the sizes runs[n]."""
    levels = []
    for sizes in runs:
        assert sum(sizes) == ps.m
        ends = np.cumsum(sizes)
        levels.append(tuple(tuple(sorted(order[e - k:e].tolist())) for e, k in zip(ends, sizes)))
    return PartitionTree(ps, tuple(levels))


def pair_list_trees() -> list[PartitionTree]:
    """Hand-built trees whose levels below the first mix cells of 1, 2, 3, ~40
    and ~200 points on interleaved indices, and skewed trees like scaled_basis's,
    each on random points, on points with duplicates, and on points along a
    line in index order, whose every cell has its farthest pair at its last
    point."""
    rng = np.random.default_rng(79)
    mixed = [
        [300],
        [200, 45, 52, 3],
        [196, 2, 1, 1, 40, 3, 2, 1, 41, 3, 2, 2, 3, 3],
        [40, 3, 2, 1, 150, 2, 1, 1, 20, 20, 3, 2, 1, 1, 40, 3, 2, 2, 3, 3],
        [1] * 300,
    ]
    # one large cell and singletons, as the greedy trees of scaled_basis(256, sqrt) hold
    skewed = [[256], [253, 1, 1, 1], [241] + [1] * 15, [200] + [1] * 56, [1] * 256]
    sets = [
        rng.standard_normal((300, 3)),
        rng.standard_normal((30, 3))[rng.integers(0, 30, size=300)],
        np.cumsum(rng.random((300, 1)) + 0.5, axis=0),
    ]
    trees = []
    for points in sets:
        trees.append(tree_of_runs(PointSet(points), rng.permutation(300), mixed))
        trees.append(tree_of_runs(PointSet(points[:256]), rng.permutation(256), skewed))
    # the greedy tree of a set with duplicates ends in zero-diameter cells
    return trees + [build_greedy_tree(PointSet(sets[1]), L2)]


class TestLevelReads:
    @pytest.mark.parametrize("entries", [1, 3, 64, None], ids=["1", "3", "64", "default"])
    def test_pair_list_blocks_match_cell_loops(self, monkeypatch, entries):
        if entries is not None:
            monkeypatch.setattr(weibsup.gamma, "_GATHER_ENTRIES", entries)
        for tree in pair_list_trees():
            ps = tree.pointset
            for metric in (L2, LINF):
                for alpha in (0.5, 2.0):
                    value = gamma_from_tree(tree, alpha, metric).value
                    assert value == reference_gamma(tree, alpha, metric)
            for r in (0.5, 1.5):
                assert chaining_bound(ps, r, tree) == reference_chaining(tree, r)


def closed_form_exact_small(ps: PointSet, metric: Metric, alpha: float) -> float:
    """Reference gamma_alpha for m <= 8: diam(T), plus for m > 4 the term
    2^(1/alpha) * min over partitions into at most 4 blocks of the max cell diameter."""
    dist = pairwise_distance_matrix(ps, metric)
    whole = float(dist.max())
    if ps.m <= 4:
        return whole
    best, _ = weibsup.gamma._best_partition_max_diam(dist, 4)
    return whole + 2.0 ** (1.0 / alpha) * best


def reference_exact_small_tree(ps: PointSet, metric: Metric) -> PartitionTree:
    """The optimal small tree as it was written over cell tuples, kept as the
    reference for the label-row construction."""
    m = ps.m
    whole = (tuple(range(m)),)
    singletons = tuple((i,) for i in range(m))
    if m == 1:
        return PartitionTree(ps, (whole,))
    if m <= 4:
        return PartitionTree(ps, (whole, singletons))
    _, assign = weibsup.gamma._best_partition_max_diam(pairwise_distance_matrix(ps, metric), 4)
    blocks: dict[int, list[int]] = {}
    for i, b in enumerate(assign):
        blocks.setdefault(b, []).append(i)
    level1 = tuple(tuple(blocks[b]) for b in sorted(blocks))
    if all(len(cell) == 1 for cell in level1):
        return PartitionTree(ps, (whole, level1))
    return PartitionTree(ps, (whole, level1, singletons))


class TestExactSmall:
    @pytest.mark.parametrize("metric", [L2, LINF, Metric.lp(1.5)], ids=str)
    def test_matches_tuple_construction(self, metric):
        rng = np.random.default_rng(84)
        for case in range(96):
            m = case % 8 + 1
            pts = rng.standard_normal((m, 2))
            if case % 3 == 0:  # rounded: tied distances and duplicate points
                pts = np.round(pts)
            elif case % 3 == 1:  # repeats drawn from a few distinct points
                pts = pts[rng.integers(0, max(1, m // 2), size=m)]
            ps = PointSet(pts)
            tree = exact_small_tree(ps, metric)
            assert tree.levels == reference_exact_small_tree(ps, metric).levels
            validate_admissible(tree)

    @pytest.mark.parametrize("metric", [L2, LINF, Metric.lp(1.5)], ids=str)
    def test_matches_closed_form_bitwise(self, metric):
        rng = np.random.default_rng(83)
        for case in range(48):
            pts = rng.standard_normal((case % 8 + 1, 3))
            if case % 3 == 0:  # rounded: tied distances and duplicate points
                pts = np.round(pts)
            ps = PointSet(pts)
            for alpha in (0.5, 1.0, 2.0, 4.0):
                exact = gamma_exact_small(ps, metric, alpha).value
                assert exact == closed_form_exact_small(ps, metric, alpha)

    def test_two_points(self):
        ps = PointSet([[0.0], [2.5]])
        for alpha in (0.5, 1.0, 2.0):
            assert gamma_exact_small(ps, L2, alpha).value == 2.5

    def test_m_le_4_is_diameter(self):
        for m in (1, 2, 3, 4):
            ps = random_set(40 + m, m, 3)
            d = diameter(ps, range(m), L2)
            assert gamma_exact_small(ps, L2, 2.0).value == d

    def test_refuses_large_sets(self):
        with pytest.raises(ValueError, match="m <= 8"):
            gamma_exact_small(random_set(50, 9, 2), L2, 2.0)

    @pytest.mark.parametrize("alpha", [2.0, 1.0, 2.0 / 3.0])
    def test_greedy_upper_bounds_exact(self, alpha):
        for seed in range(12):
            ps = random_set(600 + seed, 6, 3)
            greedy = gamma_from_tree(build_greedy_tree(ps, L2), alpha, L2).value
            exact = gamma_exact_small(ps, L2, alpha).value
            assert greedy >= exact - 1e-12

    def test_optimal_tree_self_consistency(self):
        for seed in range(8):
            ps = random_set(700 + seed, 7, 3)
            tree = exact_small_tree(ps, L2)
            validate_admissible(tree)
            for alpha in (2.0, 1.0):
                via_tree = gamma_from_tree(tree, alpha, L2).value
                assert via_tree == pytest.approx(gamma_exact_small(ps, L2, alpha).value)


class TestDudley:
    def test_singleton_zero(self):
        assert dudley_bound(PointSet([[3.0, 1.0]]), L2).value == 0.0

    def test_two_points_within_factor_two(self):
        d = 7.0
        ps = PointSet([[0.0], [d]])
        val = dudley_bound(ps, L2).value
        assert d <= val <= 2.0 * d

    def test_scaling_exact_power_of_two(self):
        ps = random_set(61, 20, 4)
        scaled = PointSet(ps.points * 2.0)
        assert dudley_bound(scaled, L2).value == 2.0 * dudley_bound(ps, L2).value

    def test_upper_bounds_proxy(self):
        ps = random_set(62, 32, 6)
        proxy = gaussian_gamma2_proxy(ps, 8000, RandomStream(62)).value
        assert dudley_bound(ps, L2).value >= proxy

    def test_matches_radius_loop(self):
        # the covering-radius loop as first written, kept as the reference
        def reference(pset, metric):
            m = pset.m
            dist = pairwise_distance_matrix(pset.points, metric)
            min_dist = dist[int(np.argmax(point_norms(pset.points, metric)))].copy()
            radii = [float(min_dist.max())]
            while radii[-1] > 0.0 and len(radii) < m:
                far = int(np.argmax(min_dist))
                np.minimum(min_dist, dist[far], out=min_dist)
                radii.append(float(min_dist.max()))
            total = 0.0
            for n in range(64):
                centers = 1 if n == 0 else (m if 2**n >= 64 else min(m, 2 ** (2**n)))
                e_n = radii[centers - 1] if centers <= len(radii) else 0.0
                total += 2.0 ** (n / 2.0) * e_n
                if e_n == 0.0:
                    break
            return total

        for ps in sets_with_ties():
            for metric in (L2, LINF):
                assert dudley_bound(ps, metric).value == reference(ps, metric)


class TestSudakov:
    def test_two_points(self):
        d = 3.0
        ps = PointSet([[0.0, 0.0], [3.0, 0.0]])
        assert sudakov_lower(ps, L2).value == pytest.approx(d * math.sqrt(math.log(2.0)))

    def test_singleton_zero(self):
        assert sudakov_lower(PointSet([[1.0]]), L2).value == 0.0

    def test_scaling_exact_power_of_two(self):
        ps = random_set(63, 20, 4)
        scaled = PointSet(ps.points * 2.0)
        assert sudakov_lower(scaled, L2).value == 2.0 * sudakov_lower(ps, L2).value

    def test_matches_pairwise_packing_loop(self):
        # the packing scan as first written, kept as the reference
        def reference(pset, metric):
            dist = pairwise_distance_matrix(pset.points, metric)
            diam = float(dist.max())
            if pset.m < 2 or diam == 0.0:
                return 0.0
            best, eps = 0.0, diam
            for _ in range(48):
                kept = [0]
                for i in range(1, pset.m):
                    if min(dist[i, j] for j in kept) >= eps:
                        kept.append(i)
                if len(kept) >= 2:
                    best = max(best, eps * math.sqrt(math.log(len(kept))))
                eps *= 2.0 ** -0.25
            return best

        rng = np.random.default_rng(64)
        for _ in range(12):
            m, n = int(rng.integers(2, 48)), int(rng.integers(1, 6))
            distinct = rng.standard_normal((int(rng.integers(1, m + 1)), n))
            corners = rng.choice([-1.0, 1.0], size=(m, n))
            for pts in (distinct[rng.integers(0, len(distinct), size=m)], corners):
                ps = PointSet(pts)
                for metric in (L2, LINF, Metric(1.5)):
                    assert sudakov_lower(ps, metric).value == reference(ps, metric)


class TestDistanceMatrixReuse:
    @staticmethod
    def count_builds(monkeypatch) -> list[np.ndarray]:
        built: list[np.ndarray] = []
        original = weibsup.gamma.pairwise_distance_matrix

        def counting(points, metric):
            built.append(original(points, metric))
            return built[-1]

        monkeypatch.setattr(weibsup.gamma, "pairwise_distance_matrix", counting)
        return built

    def test_one_build_per_metric_for_trees_gammas_and_chaining(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        ps = random_set(90, 40, 5)
        tree_l2 = build_greedy_tree(ps, L2)
        tree_linf = build_greedy_tree(ps, LINF)
        gamma_from_tree(tree_l2, 2.0, L2)
        gamma_from_tree(tree_linf, 1.5, LINF)
        chaining_bound(ps, 1.5, intersect_trees(tree_l2, tree_linf))
        dudley_bound(ps, L2)
        sudakov_lower(ps, LINF)
        assert len(built) == 2
        small = random_set(91, 8, 3)
        gamma_exact_small(small, L2, 2.0)
        exact_small_tree(small, L2)
        assert len(built) == 3
        for dist in built:
            assert not dist.flags.writeable
            with pytest.raises(ValueError):
                dist[0, 0] = 1.0

    def test_one_build_per_permuted_set(self, monkeypatch):
        # every T_pi gets its matrix from one shared pass per call, none built alone
        built = self.count_builds(monkeypatch)
        passes: list[np.ndarray] = []
        original_pass = weibsup.transforms._weighted_l2_matrices

        def counting_pass(points, sq_weights):
            passes.append(original_pass(points, sq_weights))
            return passes[-1]

        sets: list[PointSet] = []
        original_apply = weibsup.transforms.apply_permuted_weights

        def keeping_apply(pset, perm, s):
            sets.append(original_apply(pset, perm, s))
            return sets[-1]

        forests: list[tuple[str, np.ndarray]] = []

        def keeping(name):
            original = getattr(weibsup.transforms, name)

            def kept(dist, *args):
                forests.append((name, dist))
                return original(dist, *args)

            return kept

        monkeypatch.setattr(weibsup.transforms, "_weighted_l2_matrices", counting_pass)
        monkeypatch.setattr(weibsup.transforms, "apply_permuted_weights", keeping_apply)
        for name in ("_greedy_labels", "_exact_small_labels"):
            monkeypatch.setattr(weibsup.transforms, name, keeping(name))
        epi_gamma2(random_set(92, 24, 6), 2.0, 5, "greedy_upper", RandomStream(9))
        epi_gamma2(random_set(93, 8, 4), 1.0, 3, "exact_small", RandomStream(9))
        epi_gamma2(random_set(94, 8, 4), 1.0, 2, "gaussian_proxy", RandomStream(9), 200)
        assert len(built) == 0
        assert [p.shape for p in passes] == [(5, 24, 24), (3, 8, 8)]
        # the greedy and the exact T_pi are each one forest on the pass's stack itself,
        # with no T_pi set: only the proxy's T_pi are sets, and they hold no matrix
        assert [name for name, _ in forests] == ["_greedy_labels", "_exact_small_labels"]
        for (_, dist), stack in zip(forests, passes):
            assert dist is stack and not dist.flags.writeable
            with pytest.raises(ValueError):
                dist[0, 0, 0] = 1.0
        assert len(sets) == 2 and all(L2 not in tpi._distances for tpi in sets)


class TestGaussianProxy:
    def test_singleton_zero(self):
        val = gaussian_gamma2_proxy(PointSet([[1.0, 2.0]]), 2000, RandomStream(1))
        assert val.value == 0.0

    def test_basis_100_matches_quadrature_oracle(self):
        ps = PointSet(np.eye(100))
        est = gaussian_gamma2_proxy(ps, 20_000, RandomStream(55))
        target = emax_gaussians(100)
        assert target == pytest.approx(2.5076, abs=1e-3)
        assert abs(est.value - target) < 3.0 * est.stderr

    def test_two_point_half_gaussian(self):
        t = np.array([1.0, 2.0, 2.0])
        ps = PointSet(np.vstack([np.zeros(3), t]))
        est = gaussian_gamma2_proxy(ps, 20_000, RandomStream(56))
        target = float(np.linalg.norm(t)) / math.sqrt(2.0 * math.pi)
        assert abs(est.value - target) < 3.0 * est.stderr


class TestIntersect:
    def test_self_intersection_shifts_levels(self):
        ps = random_set(70, 10, 3)
        tree = build_greedy_tree(ps, L2)
        both = intersect_trees(tree, tree)
        validate_admissible(both)
        for n in range(1, len(both.levels)):
            assert both.levels[n] == tree.levels[n - 1]

    def test_trivial_partner_shifts_a(self):
        ps = random_set(71, 8, 3)
        tree = build_greedy_tree(ps, L2)
        trivial = PartitionTree(ps, ((tuple(range(ps.m)),),))
        shifted = intersect_trees(tree, trivial)
        assert shifted.levels[0] == (tuple(range(ps.m)),)
        for n in range(1, len(shifted.levels)):
            assert shifted.levels[n] == tree.levels[n - 1]

    def test_random_pair_admissible(self):
        ps = random_set(72, 64, 5)
        a = build_greedy_tree(ps, L2)
        b = build_greedy_tree(ps, LINF)
        validate_admissible(intersect_trees(a, b))

    def test_matches_nested_set_loop(self):
        # the loop over pairs of cells as first written, kept as the reference
        def reference(a, b):
            pts = a.pointset.points
            levels = [(tuple(range(len(pts))),)]
            for n in range(1, max(len(a.levels), len(b.levels)) + 1):
                if all(np.all(pts[list(cell)] == pts[cell[0]]) for cell in levels[-1]):
                    break
                pa = a.levels[min(n - 1, len(a.levels) - 1)]
                pb = b.levels[min(n - 1, len(b.levels) - 1)]
                cells = []
                for cell_a in pa:
                    for cell_b in pb:
                        inter = sorted(set(cell_a).intersection(cell_b))
                        if inter:
                            cells.append(tuple(inter))
                levels.append(tuple(cells))
            return tuple(levels)

        for ps in sets_with_ties():
            a, b = build_greedy_tree(ps, L2), build_greedy_tree(ps, LINF)
            for x, y in ((a, b), (b, a), (a, a)):
                assert intersect_trees(x, y).levels == reference(x, y)

    @pytest.mark.parametrize(
        "level1, message",
        [
            (((0, 1), (2,)), "level 1 does not cover point 3"),
            (((0, 1), (1, 2, 3)), "level 1 cells overlap at point 1"),
            (((0, 1), (2, 3, 7)), "level 1 references point index 7"),
        ],
        ids=["uncovered", "overlap", "out_of_range"],
    )
    def test_malformed_input_rejected(self, level1, message):
        ps = random_set(75, 4, 2)
        bad = PartitionTree(ps, ((tuple(range(4)),), level1))
        good = build_greedy_tree(ps, L2)
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(NotAdmissibleError, match=f"^{message}$"):
                intersect_trees(a, b)

    def test_mismatched_sets_rejected(self):
        a = build_greedy_tree(random_set(73, 5, 2), L2)
        b = build_greedy_tree(random_set(74, 5, 2), L2)
        with pytest.raises(ValueError, match="same point set"):
            intersect_trees(a, b)


class TestChaining:
    def test_two_point_level_zero_term(self):
        t = np.array([1.0, 3.0])
        ps = PointSet(np.vstack([np.zeros(2), t]))
        tree = build_greedy_tree(ps, L2)
        expected = float(np.linalg.norm(t)) + float(np.max(np.abs(t)))
        assert chaining_bound(ps, 1.0, tree) == pytest.approx(expected)

    def test_dominates_weibull_esup(self):
        from weibsup.mcsup import Driver, esup_mc

        ps = random_set(75, 24, 6)
        tree = intersect_trees(build_greedy_tree(ps, L2), build_greedy_tree(ps, LINF))
        for r in (0.5, 1.0, 2.0):
            est = esup_mc(ps, Driver.weibull(r), 8000, RandomStream(76))
            assert chaining_bound(ps, r, tree) >= est.mean - 3.0 * est.stderr

    def test_r_domain(self):
        ps = random_set(77, 4, 2)
        tree = build_greedy_tree(ps, L2)
        with pytest.raises(ValueError):
            chaining_bound(ps, 2.5, tree)

    def test_level_weight_overflow_raises_value_error(self):
        ps = random_set(79, 16, 4)
        tree = intersect_trees(build_greedy_tree(ps, L2), build_greedy_tree(ps, LINF))
        with pytest.raises(ValueError, match=r"^level weight 2\^\(2/0.001\) overflows float64$"):
            chaining_bound(ps, 0.001, tree)

    def test_whole_set_level_is_read_in_bands(self):
        m = 1024
        ps = random_set(78, m, 4)
        # building the trees computes both distance matrices before the trace starts
        tree = intersect_trees(build_greedy_tree(ps, L2), build_greedy_tree(ps, LINF))
        tracemalloc.start()
        try:
            value = chaining_bound(ps, 1.5, tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two level terms over the whole m x m matrices took 2 * m^2 * 8 bytes
        assert peak < m * m * 8 / 8
        assert value == reference_chaining(tree, 1.5)


class TestScalingEquivariance:
    def test_all_methods_scale_exactly_by_two(self):
        ps = random_set(80, 8, 3)
        scaled = PointSet(ps.points * 2.0)
        assert (
            gamma_from_tree(build_greedy_tree(scaled, L2), 2.0, L2).value
            == 2.0 * gamma_from_tree(build_greedy_tree(ps, L2), 2.0, L2).value
        )
        assert gamma_exact_small(scaled, L2, 1.0).value == 2.0 * gamma_exact_small(ps, L2, 1.0).value
        assert dudley_bound(scaled, L2).value == 2.0 * dudley_bound(ps, L2).value
        assert sudakov_lower(scaled, L2).value == 2.0 * sudakov_lower(ps, L2).value
        a = gaussian_gamma2_proxy(ps, 4000, RandomStream(81)).value
        b = gaussian_gamma2_proxy(scaled, 4000, RandomStream(81)).value
        assert b == 2.0 * a

    def test_generic_scale_within_float_tolerance(self):
        ps = random_set(82, 8, 3)
        scaled = PointSet(ps.points * 3.0)
        g1 = gamma_from_tree(build_greedy_tree(ps, L2), 2.0, L2).value
        g3 = gamma_from_tree(build_greedy_tree(scaled, L2), 2.0, L2).value
        assert g3 == pytest.approx(3.0 * g1, rel=1e-12)


class TestSerialization:
    def test_tree_jsonable(self):
        import json

        tree = build_greedy_tree(random_set(90, 6, 2), L2)
        doc = tree_to_jsonable(tree)
        parsed = json.loads(json.dumps(doc))
        assert parsed[0] == [list(range(6))]
        assert all(len(cell) == 1 for cell in parsed[-1])


class TestGammaValue:
    def test_method_and_sign_validation(self):
        with pytest.raises(ValueError):
            GammaValue(alpha=2.0, value=-1.0, method="dudley")
        with pytest.raises(ValueError):
            GammaValue(alpha=2.0, value=1.0, method="bogus")


def test_chaining_bound_rejects_a_tree_of_another_set():
    pset, other = PointSet([[0.0], [1.0]]), PointSet([[0.0], [2.0]])
    with pytest.raises(ValueError, match="^tree does not partition the given point set$"):
        chaining_bound(pset, 1.0, build_greedy_tree(other, Metric.l2()))
