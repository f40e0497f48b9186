import itertools
import tracemalloc

import numpy as np
import pytest

from hierclust import (
    DistanceMatrix,
    HierTree,
    PointSet,
    RngStream,
    TwoMeansSolverConfig,
    average_linkage,
    bisecting_kmeans,
    high_revenue_stats,
    pairwise_distances,
    random_tree,
    single_linkage,
    tree_revenue,
    two_means,
)
from hierclust import algorithms
from hierclust.hiertree import _divide
from hierclust.metricspace import _distance_blocks, _one_means_cost


def line_points():
    return PointSet([[0.0], [1.0], [5.0]])


def exhaustive_cfg(seed=0):
    return TwoMeansSolverConfig(kind="exhaustive", seed=seed)


def lloyd_cfg(seed=0, restarts=10):
    return TwoMeansSolverConfig(kind="lloyd", lloyd_restarts=restarts, seed=seed)


def all_bipartition_costs(coords, ids):
    """Oracle: every bipartition's cost via direct per-part recomputation."""
    ids = list(ids)
    rest = ids[1:]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            side1 = np.array([ids[0], *combo], dtype=np.intp)
            side2 = np.array(sorted(set(ids) - set(side1.tolist())), dtype=np.intp)
            if len(side2) == 0:
                continue
            out.append(
                (
                    _one_means_cost(coords, side1) + _one_means_cost(coords, side2),
                    tuple(sorted(side1.tolist())),
                )
            )
    return out


# ----------------------------------------------------------------------
# two_means


def test_two_means_line_example():
    split, cost = two_means(line_points(), range(3), exhaustive_cfg())
    assert sorted(split.left_set) == [0, 1]
    assert sorted(split.right_set) == [2]
    assert cost == 0.5


def test_two_means_two_points():
    split, cost = two_means(PointSet([[0.0], [9.0]]), {0, 1}, exhaustive_cfg())
    assert cost == 0.0
    assert {tuple(sorted(split.left_set)), tuple(sorted(split.right_set))} == {(0,), (1,)}


def test_two_means_coincident_pairs():
    ps = PointSet([[0.0], [10.0], [0.0], [10.0]])
    split, cost = two_means(ps, range(4), exhaustive_cfg())
    assert cost == 0.0
    assert sorted(split.left_set) == [0, 2]
    assert sorted(split.right_set) == [1, 3]


def test_two_means_exhaustive_is_optimal():
    g = np.random.Generator(np.random.PCG64(50))
    for k in range(30):
        n = int(g.integers(2, 11))
        ps = PointSet(g.standard_normal((n, int(g.integers(1, 4)))))
        split, cost = two_means(ps, range(n), exhaustive_cfg())
        oracle = all_bipartition_costs(ps.coords, range(n))
        assert len(oracle) == 2 ** (n - 1) - 1
        for oc, _ in oracle:
            assert cost <= oc + 1e-9
        # tie-break: among exact-optimal sides, the lexicographically smallest
        best = min(oc for oc, _ in oracle)
        tied = sorted(side for oc, side in oracle if oc == best)
        if cost == best:
            assert tuple(sorted(split.left_set)) == tied[0]


def test_two_means_guards(monkeypatch):
    ps = line_points()
    with pytest.raises(ValueError):
        two_means(ps, {0}, exhaustive_cfg())
    with pytest.raises(ValueError, match="refuses sets larger than 20$"):
        two_means(PointSet(np.arange(21.0)[:, None]), range(21), exhaustive_cfg())
    with pytest.raises(ValueError):
        TwoMeansSolverConfig(kind="bogus")
    with pytest.raises(IndexError):
        two_means(ps, {0, 7}, exhaustive_cfg())
    bad_fields = [
        {"lloyd_restarts": 0},
        {"lloyd_restarts": -1},
        {"seed": -1},
        {"seed": 1.5},
    ]
    for fields in bad_fields:
        with pytest.raises(ValueError, match=next(iter(fields))):
            TwoMeansSolverConfig(kind="lloyd", **fields)
    # Exhaustive bisecting never draws, but a negative seed is refused all the same.
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        TwoMeansSolverConfig(kind="exhaustive", seed=-1)
    TwoMeansSolverConfig(kind="lloyd", seed=np.int64(2**40))
    monkeypatch.setattr(algorithms, "MAX_EXHAUSTIVE_N", 2)
    with pytest.raises(ValueError, match="refuses sets larger than 2$"):
        two_means(ps, range(3), exhaustive_cfg())


def test_subset_diameter_bounds_its_row_block():
    g = np.random.Generator(np.random.PCG64(53))
    small = g.standard_normal((50, 3))
    whole = np.sqrt(((small[:, None, :] - small[None, :, :]) ** 2).sum(axis=2).max())

    def diameter(pts):
        return max(float(block.max()) for _, block in _distance_blocks(pts, pts))

    assert diameter(small) == whole
    # The (block, m, dim) difference is about 32 MB whatever the size.
    pts = g.standard_normal((600, 64))
    tracemalloc.start()
    try:
        diameter(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    # A whole (800, 800, 32) difference would be 164 MB.
    ps = PointSet(g.standard_normal((1600, 32)))
    tracemalloc.start()
    try:
        high_revenue_stats(ps, range(800), range(800, 1600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_lloyd_never_beats_exhaustive():
    g = np.random.Generator(np.random.PCG64(51))
    for k in range(25):
        n = int(g.integers(2, 12))
        ps = PointSet(g.standard_normal((n, 2)))
        _, exact = two_means(ps, range(n), exhaustive_cfg())
        _, approx = two_means(ps, range(n), lloyd_cfg(seed=k))
        assert approx >= exact - 1e-9


def test_lloyd_deterministic():
    g = np.random.Generator(np.random.PCG64(52))
    ps = PointSet(g.standard_normal((40, 3)))
    a = two_means(ps, range(40), lloyd_cfg(seed=9))
    b = two_means(ps, range(40), lloyd_cfg(seed=9))
    assert a == b


# ----------------------------------------------------------------------
# bisecting k-means


def test_bisecting_line_example():
    tree = bisecting_kmeans(line_points(), exhaustive_cfg())
    assert tree.serialize() == "((0,1),2)"


def test_bisecting_single_point():
    assert bisecting_kmeans(PointSet([[0.0]]), exhaustive_cfg()).n_leaves == 1


def test_bisecting_first_split_on_embedded_ultrametric():
    # Two weight-1 groups under a weight-2 root: the optimal first 2-means
    # cut separates the groups.
    from hierclust import UltrametricSpec, embed_euclidean

    topo = HierTree.from_nested(((0, 1), (2, 3)))
    weights = {nid: (2.0 if nid == topo.root else 1.0) for nid in topo.internal_ids()}
    points = embed_euclidean(UltrametricSpec(topo, weights))
    tree = bisecting_kmeans(points, exhaustive_cfg())
    _, left, right = tree.split_arrays()[0]
    assert {tuple(sorted(left)), tuple(sorted(right))} == {(0, 1), (2, 3)}


def test_bisecting_exhaustive_splits_are_optimal():
    g = np.random.Generator(np.random.PCG64(53))
    for k in range(10):
        n = int(g.integers(3, 10))
        ps = PointSet(g.standard_normal((n, 2)))
        tree = bisecting_kmeans(ps, exhaustive_cfg(seed=k))
        for _, l, r in tree.split_arrays():
            ids = sorted(np.concatenate((l, r)).tolist())
            got = _one_means_cost(ps.coords, l) + _one_means_cost(ps.coords, r)
            best = min(oc for oc, _ in all_bipartition_costs(ps.coords, ids))
            assert got <= best + 1e-9


def test_bisecting_per_split_revenue_bound_smoke():
    # 1/35 per split and a 4/7 high-revenue fraction on the larger side;
    # the acceptance suite runs the full 500-instance version.
    g = np.random.Generator(np.random.PCG64(54))
    for k in range(50):
        n = int(g.integers(2, 13))
        ps = PointSet(g.standard_normal((n, int(g.integers(1, 5)))))
        tree = bisecting_kmeans(ps, exhaustive_cfg(seed=k))
        report = tree_revenue(ps, tree)
        for split, rev in report.per_split:
            assert rev >= len(split.left_set) * len(split.right_set) / 35.0 - 1e-9
            stats = high_revenue_stats(ps, split.left_set, split.right_set)
            assert 7 * len(stats.high_revenue_points_in_larger) >= 4 * len(stats.side_a)
        assert report.total >= n * (n - 1) / 2.0 / 35.0 - 1e-9


# ----------------------------------------------------------------------
# linkage


def test_average_linkage_two_points():
    dm = DistanceMatrix([[0.0, 2.0], [2.0, 0.0]])
    assert average_linkage(dm).serialize() == "(0,1)"


def test_average_linkage_line():
    tree = average_linkage(pairwise_distances(line_points()))
    assert tree.serialize() == "((0,1),2)"


def test_single_linkage_line():
    tree = single_linkage(pairwise_distances(line_points()))
    assert tree.serialize() == "((0,1),2)"


def test_single_linkage_gap_example():
    # gaps 1.0, 1.1, 0.9: the 2.1/3.0 pair merges first, then 0/1.
    ps = PointSet([[0.0], [1.0], [2.1], [3.0]])
    tree = single_linkage(pairwise_distances(ps))
    assert tree.serialize() == "((0,1),(2,3))"


def test_linkage_coincident_clusters_merge_internally_first():
    coords = [[0.0]] * 3 + [[100.0]] * 4
    dm = pairwise_distances(PointSet(coords))
    for builder in (average_linkage, single_linkage):
        tree = builder(dm)
        _, left, right = tree.split_arrays()[0]
        assert {tuple(sorted(left)), tuple(sorted(right))} == {(0, 1, 2), (3, 4, 5, 6)}


def test_linkage_tiebreak_deterministic():
    # Equilateral square: every merge is a tie; the min-leaf pair rule picks
    # (0, 1) first and then keeps going deterministically.
    dm = DistanceMatrix(np.ones((4, 4)) - np.eye(4))
    assert average_linkage(dm).serialize() == single_linkage(dm).serialize()
    assert average_linkage(dm).serialize() == "(((0,1),2),3)"


# ----------------------------------------------------------------------
# random trees


def test_random_tree_two_points():
    assert random_tree(2, RngStream(0)).serialize() == "(0,1)"


def test_random_tree_deterministic():
    for seed in (0, 1, 99):
        a = random_tree(20, RngStream(seed))
        b = random_tree(20, RngStream(seed))
        assert a == b


def test_random_tree_takes_a_point_count():
    ps = line_points()
    assert random_tree(ps.n, RngStream(4)).n_leaves == 3
    with pytest.raises(TypeError):
        random_tree(ps, RngStream(4))


def test_random_tree_three_leaf_distribution():
    # Conditioned on a valid root flip each of the three topologies isolates
    # a different leaf with equal probability.
    counts = {}
    trials = 10000
    base = RngStream(20240)
    for t in range(trials):
        text = random_tree(3, base.substream(t)).serialize()
        counts[text] = counts.get(text, 0) + 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / trials - 1 / 3) <= 0.02


def per_node_random_tree(n, rng):
    """Oracle: random_tree as it drew one `integers` call per node and per redraw."""
    g = rng.generator()

    def expand(ids, nid):
        if len(ids) == 1:
            return int(ids[0])
        while True:
            flips = g.integers(0, 2, size=len(ids))
            k = int(flips.sum())
            if 0 < k < len(ids):
                return ids[flips == 1], ids[flips == 0]

    return HierTree(_divide(np.arange(n, dtype=np.intp), expand), 0)


@pytest.mark.parametrize("chunk", [None, 1, 2, 7])
def test_random_tree_buffered_flips_match_per_node_draws(monkeypatch, chunk):
    # Chunks of 1 and 2 refill on every draw; 7 and the default leave a
    # remainder that the next node or redraw starts from. n = 2 redraws
    # half of its root flips.
    if chunk is not None:
        monkeypatch.setattr(algorithms, "_FLIP_CHUNK", chunk)
    cases = [(seed, 1 + seed % 160) for seed in range(200)]
    cases += [(seed, 2) for seed in range(200)] + [(7, 160), (8, 159)]
    for seed, n in cases:
        rng = RngStream(seed, (n,))
        assert random_tree(n, rng).nodes == per_node_random_tree(n, rng).nodes


# ----------------------------------------------------------------------
# cross-algorithm contracts


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 200])
def test_all_algorithms_emit_valid_trees(n):
    g = np.random.Generator(np.random.PCG64(n))
    ps = PointSet(g.standard_normal((n, 2)))
    dm = pairwise_distances(ps)
    trees = [
        bisecting_kmeans(ps, lloyd_cfg(seed=n, restarts=2)),
        average_linkage(dm),
        single_linkage(dm),
        random_tree(n, RngStream(n)),
    ]
    for tree in trees:
        # HierTree construction already validated shape; check the leaf count.
        assert tree.n_leaves == n


def test_fixed_seed_reproduces_serialized_trees():
    g = np.random.Generator(np.random.PCG64(77))
    ps = PointSet(g.standard_normal((30, 3)))
    cfg = lloyd_cfg(seed=123, restarts=3)
    first = [
        bisecting_kmeans(ps, cfg).serialize(),
        random_tree(30, RngStream(123)).serialize(),
    ]
    second = [
        bisecting_kmeans(ps, cfg).serialize(),
        random_tree(30, RngStream(123)).serialize(),
    ]
    assert first == second


def test_rngstream_substreams_differ():
    base = RngStream(6)
    a = base.substream(0).generator().integers(0, 1 << 30, 8)
    b = base.substream(1).generator().integers(0, 1 << 30, 8)
    c = base.substream(0).generator().integers(0, 1 << 30, 8)
    assert a.tolist() != b.tolist()
    assert a.tolist() == c.tolist()
    assert base.substream(2).seed_int() == base.substream(2).seed_int()
