import functools
import itertools
import math

import numpy as np
import pytest

from hierclust import (
    OPT_MAX_N,
    DistanceMatrix,
    HierTree,
    PointSet,
    RngStream,
    brute_force_opt,
    ckmm_value,
    dasgupta_cost,
    enumerate_trees,
    high_revenue_stats,
    pair_revenue,
    pairwise_distances,
    random_tree,
    revenue_upper_bound,
    tree_revenue,
    triangle_decompose,
)
from hierclust import objectives
from hierclust.metricspace import _distance_blocks, close
from hierclust.objectives import (
    _lca_weighted_values,
    _radii,
    _revenue_values,
    _subset_radii,
    _unit_scaled,
)
from revenue_oracle import assert_split_route_matches_pair_view, pair_view_values


def line_points():
    return PointSet([[0.0], [1.0], [5.0]])


def line_tree():
    return HierTree.from_nested(((0, 1), 2))


# ----------------------------------------------------------------------
# pair revenue


def test_pair_revenue_two_singletons():
    ps = PointSet([[0.0], [7.0]])
    # Singletons coincide with their centroids, so delta = 0 and revenue is 1.
    assert pair_revenue(ps, {0}, {1}, 0, 1) == 1.0


def test_pair_revenue_line_example():
    # delta = max(d(0, 0.5), d(5, 5)) = 0.5, d = 5, capped at 1.
    assert pair_revenue(line_points(), {0, 1}, {2}, 0, 2) == 1.0


def test_pair_revenue_uncapped_value():
    # Move the far point close so d < delta: d(1, 1.5) = 0.5 over delta 0.5... pick
    # coordinates where the ratio is strictly inside (0, 1).
    ps = PointSet([[0.0], [1.0], [1.2]])
    # split ({0,1},{2}): delta = max(d(1, 0.5), 0) = 0.5, d(1, 2) = 0.2
    assert close(pair_revenue(ps, {0, 1}, {2}, 1, 2), 0.4)


def test_pair_revenue_coincident_zero():
    # Coincident pair split apart while the mixed side's centroid moves away:
    # d = 0 with delta > 0 earns nothing.
    ps = PointSet([[0.0], [0.0], [1.0]])
    assert pair_revenue(ps, {0}, {1, 2}, 0, 1) == 0.0


def test_equal_points_sit_on_their_centroid():
    # The mean of three copies of 0.1 rounds one ulp away from 0.1, at any
    # power-of-two scale; a side of equal points must still have radius 0,
    # so every pair of this tree earns 1 by the delta = 0 convention.
    ps = PointSet(np.full((4, 1), 0.1))
    tree = HierTree.from_nested((((0, 1), 2), 3))
    assert [v for _, v in tree_revenue(ps, tree).per_split] == [3.0, 2.0, 1.0]
    assert pair_view_values(ps, tree) == [3.0, 2.0, 1.0]
    assert pair_revenue(ps, {0, 1, 2}, {3}, 0, 3) == 1.0
    assert high_revenue_stats(ps, {0, 1, 2}, {3}).fraction == 1.0
    radii = _subset_radii(_unit_scaled(ps.coords))
    assert radii[0b0111, :3].tolist() == [0.0, 0.0, 0.0]


def test_pair_revenue_membership_errors():
    ps = line_points()
    with pytest.raises(ValueError):
        pair_revenue(ps, {0, 1}, {2}, 2, 0)
    with pytest.raises(ValueError):
        pair_revenue(ps, {0, 1}, {1, 2}, 0, 2)


def test_pair_revenue_matches_three_way_max_form():
    # Capping at 1 is the same as dividing by max(delta, d); the delta = 0
    # convention covers the 0/0 corner in both readings.
    g = np.random.Generator(np.random.PCG64(3))
    for _ in range(50):
        n = int(g.integers(2, 10))
        ps = PointSet(g.standard_normal((n, 2)))
        cut = int(g.integers(1, n))
        left, right = set(range(cut)), set(range(cut, n))
        i, j = 0, n - 1
        got = pair_revenue(ps, left, right, i, j)
        c_l = ps.coords[sorted(left)].mean(axis=0)
        c_r = ps.coords[sorted(right)].mean(axis=0)
        d = float(np.linalg.norm(ps.coords[i] - ps.coords[j]))
        delta3 = max(
            float(np.linalg.norm(ps.coords[i] - c_l)),
            float(np.linalg.norm(ps.coords[j] - c_r)),
            d,
        )
        want = 1.0 if delta3 == 0.0 else d / delta3
        assert close(got, want)


@pytest.mark.parametrize("exponent", [600, -600])
def test_pair_revenue_is_the_same_at_extreme_scales(exponent):
    # Coordinates times 2^600 square past the float range, and times 2^-600
    # square to 0; revenue is scale-invariant, so every pair keeps its bits.
    g = np.random.Generator(np.random.PCG64(26))
    cases = [np.array([[0.0], [1.0], [3.0], [7.0]])]
    cases += [g.standard_normal((n, dim)) for n, dim in ((5, 1), (9, 3), (12, 2))]
    cases.append(np.round(g.standard_normal((8, 2))))
    for coords in cases:
        n = len(coords)
        left, right = set(range(n // 2)), set(range(n // 2, n))
        scaled = PointSet(np.ldexp(coords, exponent))
        for i, j in itertools.product(sorted(left), sorted(right)):
            want = pair_revenue(PointSet(coords), left, right, i, j)
            assert float.hex(pair_revenue(scaled, left, right, i, j)) == float.hex(want)


# ----------------------------------------------------------------------
# tree revenue


def test_tree_revenue_two_points():
    ps = PointSet([[0.0], [3.0]])
    t = HierTree.from_nested((0, 1))
    assert tree_revenue(ps, t).total == 1.0


def test_tree_revenue_line_example_both_modes():
    rep = tree_revenue(line_points(), line_tree())
    assert rep.total == 3.0
    assert rep.upper_bound == 3.0
    assert [v for _, v in rep.per_split] == [2.0, 1.0]
    assert pair_view_values(line_points(), line_tree()) == [2.0, 1.0]


def test_tree_revenue_modes_agree_random():
    g = np.random.Generator(np.random.PCG64(21))
    for k in range(25):
        n = int(g.integers(2, 20))
        ps = PointSet(g.standard_normal((n, int(g.integers(1, 4)))))
        assert_split_route_matches_pair_view(ps, random_tree(n, RngStream(800 + k)))


def _pair_revenue_calls(points: PointSet, tree: HierTree):
    """Per-split revenue as one `pair_revenue` call per pair, in (i, j) order."""
    sides = [(frozenset(l.tolist()), frozenset(r.tolist())) for _, l, r in tree.split_arrays()]
    values = [0.0] * len(sides)
    for i, j in itertools.combinations(range(points.n), 2):
        s = next(k for k, (l, r) in enumerate(sides) if (i in l and j in r) or (i in r and j in l))
        left, right = sides[s]
        if i in left:
            values[s] += pair_revenue(points, left, right, i, j)
        else:
            values[s] += pair_revenue(points, left, right, j, i)
    return values


def test_pair_sum_splits_equal_pair_revenue_calls():
    g = np.random.Generator(np.random.PCG64(24))
    cases = [
        PointSet(g.standard_normal((n, dim)) * scale)
        for n, dim, scale in ((2, 1, 1.0), (3, 2, 1e-3), (9, 1, 1e5), (17, 3, 1.0), (30, 5, 7.0))
    ]
    cases.append(PointSet(np.round(g.standard_normal((24, 2)))))
    cases.append(PointSet(np.tile(g.standard_normal((3, 2)), (5, 1))))
    cases.append(PointSet(np.zeros((6, 2))))
    for k, ps in enumerate(cases):
        tree = random_tree(ps.n, RngStream(700 + k))
        got = pair_view_values(ps, tree)
        want = _pair_revenue_calls(ps, tree)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
        assert_split_route_matches_pair_view(ps, tree)


def _caterpillar(n):
    nested = 0
    for i in range(1, n):
        nested = (nested, i)
    return HierTree.from_nested(nested)


@pytest.mark.parametrize("dim", [1, 2, 3, 9, 33])
def test_pair_sum_matches_the_pair_loop(dim):
    g = np.random.Generator(np.random.PCG64(300 + dim))
    cases = [
        (PointSet(g.standard_normal((300, dim))), "random"),
        (PointSet(np.round(3.0 * g.standard_normal((120, dim)))), "caterpillar"),
        (PointSet(g.standard_normal((3, dim))[g.integers(0, 3, size=200)]), "random"),
        (PointSet(g.standard_normal((3, dim))[g.integers(0, 3, size=90)]), "caterpillar"),
        (PointSet(np.full((150, dim), 0.1)), "random"),
        (PointSet(np.full((40, dim), 0.1)), "caterpillar"),
    ]
    for k, (points, shape) in enumerate(cases):
        n = points.n
        tree = random_tree(n, RngStream(k, (dim,))) if shape == "random" else _caterpillar(n)
        assert_split_route_matches_pair_view(points, tree)


def test_pair_sum_matches_the_pair_loop_on_random_bad_instances():
    from hierclust import RandomBadInstanceSpec, build_random_bad_instance, clean_reference_tree

    for k in (2, 8, 16):
        spec = RandomBadInstanceSpec(k)
        points = build_random_bad_instance(spec)
        assert_split_route_matches_pair_view(points, clean_reference_tree(spec))
        for t in range(3):
            assert_split_route_matches_pair_view(points, random_tree(points.n, RngStream(k, (t,))))


def _reference_revenue_values(coords, tree):
    """Per-split revenue one split at a time, in row blocks: the split_sum loop the batched pass replaces."""
    out = []
    for _, l, r in tree.split_arrays():
        pl, pr = coords[l], coords[r]
        cl = pl[0] if (pl == pl[0]).all() else pl.mean(axis=0)
        cr = pr[0] if (pr == pr[0]).all() else pr.mean(axis=0)
        dl = np.sqrt(((pl - cl) ** 2).sum(axis=1))
        dr = np.sqrt(((pr - cr) ** 2).sum(axis=1))
        total = 0.0
        for s, cross in _distance_blocks(pl, pr):
            delta = np.maximum(dl[s : s + len(cross), None], dr[None, :])
            safe = np.where(delta == 0.0, 1.0, delta)
            rev = np.where(delta == 0.0, 1.0, np.minimum(cross / safe, 1.0))
            total += float(rev.sum())
        out.append(total)
    return out


def _assert_revenue_matches_reference(points, tree):
    got = [v for _, v in tree_revenue(points, tree).per_split]
    want = _reference_revenue_values(_unit_scaled(points.coords), tree)
    assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


def _revenue_points(kind, n, dim, g):
    if kind == "gaussian":
        return PointSet(g.standard_normal((n, dim)))
    if kind == "coincident":  # three locations, drawn with repeats
        return PointSet(g.standard_normal((3, dim))[g.integers(0, 3, size=n)])
    return PointSet(np.full((n, dim), 0.1))


@pytest.mark.parametrize("kind", ["gaussian", "coincident", "tenths"])
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 33])
def test_split_sum_matches_reference_on_random_trees(dim, kind):
    g = np.random.Generator(np.random.PCG64(100 * dim + len(kind)))
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 20, 31, 64, 100, 129, 156):
        points = _revenue_points(kind, n, dim, g)
        _assert_revenue_matches_reference(points, random_tree(n, RngStream(n, (dim,))))


@pytest.mark.parametrize("n,dim", [(1000, 8), (2000, 32)])
def test_split_sum_matches_reference_on_bisecting_trees(n, dim):
    # At 2000 x 32 the top splits pass the 4e6-entry row-block cap, so they
    # take several blocks, while the lower splits take the batched pass.
    from hierclust import TwoMeansSolverConfig, bisecting_kmeans

    g = np.random.Generator(np.random.PCG64(n + dim))
    points = PointSet(g.standard_normal((n, dim)) + 6.0 * g.integers(0, 4, size=(n, 1)))
    tree = bisecting_kmeans(points, TwoMeansSolverConfig(kind="lloyd", seed=n))
    assert any(len(l) * len(r) * dim > 4e6 for _, l, r in tree.split_arrays()) == (n == 2000)
    _assert_revenue_matches_reference(points, tree)


@pytest.mark.parametrize("mode", ["strict", "with_ties"])
def test_split_sum_matches_reference_on_generating_trees(mode):
    from hierclust import build_generating_tree, embed_euclidean, generate_random

    for n in (2, 9, 40, 128):
        spec = generate_random(n, RngStream(n), mode)
        tree = build_generating_tree(spec.induced_matrix())
        _assert_revenue_matches_reference(embed_euclidean(spec), tree)


def test_split_sum_matches_reference_on_random_bad_instances():
    from hierclust import RandomBadInstanceSpec, build_random_bad_instance, clean_reference_tree

    for k in (2, 4, 8, 12):
        spec = RandomBadInstanceSpec(k)
        points = build_random_bad_instance(spec)
        _assert_revenue_matches_reference(points, clean_reference_tree(spec))
        for t in range(5):
            _assert_revenue_matches_reference(points, random_tree(points.n, RngStream(k, (t,))))


@pytest.mark.parametrize("small,batch", [(0, 1), (1, 1), (12, 40), (1 << 30, 1 << 30)])
def test_split_sum_is_the_same_on_either_side_of_the_budgets(monkeypatch, small, batch):
    # Every split on the row-block route, only one-pair splits batched, many
    # batches of a few splits, and every split in one batch.
    monkeypatch.setattr(objectives, "_SMALL_SPLIT_ENTRIES", small)
    monkeypatch.setattr(objectives, "_BATCH_ENTRIES", batch)
    g = np.random.Generator(np.random.PCG64(small + batch))
    for n, dim in ((1, 1), (2, 3), (30, 2), (90, 1), (64, 9)):
        for kind in ("gaussian", "coincident", "tenths"):
            points = _revenue_points(kind, n, dim, g)
            _assert_revenue_matches_reference(points, random_tree(n, RngStream(n, (dim, 1))))


def test_split_sum_matches_reference_on_drawn_points():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coordinate = st.one_of(
        st.integers(-2, 2).map(float),
        st.sampled_from([0.1, 0.3, -0.7]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 40))
        dim = draw(st.integers(1, 4))
        row = st.lists(coordinate, min_size=dim, max_size=dim)
        rows = draw(st.lists(row, min_size=1, max_size=n))
        picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
        points = PointSet(np.array(rows)[picks])
        return points, random_tree(n, RngStream(draw(st.integers(0, 2**32 - 1))))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cases())
    def check(case):
        _assert_revenue_matches_reference(*case)

    check()


def test_tree_revenue_bounds_random():
    g = np.random.Generator(np.random.PCG64(22))
    for k in range(25):
        n = int(g.integers(2, 25))
        ps = PointSet(g.standard_normal((n, 3)))
        rep = tree_revenue(ps, random_tree(n, RngStream(900 + k)))
        assert -1e-12 <= rep.total <= rep.upper_bound + 1e-9
        for s, v in rep.per_split:
            assert -1e-12 <= v <= len(s.left_set) * len(s.right_set) + 1e-9


def test_tree_revenue_scale_invariant():
    g = np.random.Generator(np.random.PCG64(23))
    coords = g.standard_normal((12, 3))
    tree = random_tree(12, RngStream(5))
    base = tree_revenue(PointSet(coords), tree).total
    for lam in (1e-3, 0.5, 7.0, 1e4, 1e-200, 1e200):
        scaled = tree_revenue(PointSet(coords * lam), tree).total
        assert close(base, scaled)


def test_tree_revenue_input_checks():
    small = HierTree.from_nested((0, 1))
    with pytest.raises(ValueError, match="tree has 2 leaves but there are 3 points"):
        tree_revenue(line_points(), small)
    dist = pairwise_distances(line_points())
    for score in (ckmm_value, dasgupta_cost, triangle_decompose):
        with pytest.raises(ValueError, match="tree has 2 leaves but there are 3 points"):
            score(dist, small)


def test_single_point_tree_revenue():
    rep = tree_revenue(PointSet([[0.0]]), HierTree([0], 0))
    assert rep.total == 0.0 and rep.upper_bound == 0.0


# ----------------------------------------------------------------------
# ckmm / dasgupta


def test_ckmm_two_points():
    dm = DistanceMatrix([[0.0, 3.0], [3.0, 0.0]])
    rep = ckmm_value(dm, HierTree.from_nested((0, 1)))
    assert rep.total == 6.0


def test_ckmm_line_example():
    rep = ckmm_value(pairwise_distances(line_points()), line_tree())
    # 1*2 + 5*3 + 4*3
    assert rep.total == 29.0
    assert rep.upper_bound == 30.0


def test_ckmm_zero_matrix():
    dm = DistanceMatrix(np.zeros((4, 4)))
    for tree in enumerate_trees(4):
        assert ckmm_value(dm, tree).total == 0.0


def test_dasgupta_examples():
    w2 = DistanceMatrix([[0.0, 3.0], [3.0, 0.0]])
    assert dasgupta_cost(w2, HierTree.from_nested((0, 1))).total == 6.0
    rep = dasgupta_cost(pairwise_distances(line_points()), line_tree())
    assert rep.total == 29.0
    assert rep.upper_bound == 20.0  # carries the trivial lower bound
    uniform = DistanceMatrix(np.ones((4, 4)) - np.eye(4))
    caterpillar = HierTree.from_nested((((0, 1), 2), 3))
    assert dasgupta_cost(uniform, caterpillar).total == 20.0


def test_ckmm_half_approx_all_trees_n5():
    g = np.random.Generator(np.random.PCG64(31))
    trees = list(enumerate_trees(5))
    for _ in range(10):
        dm = pairwise_distances(PointSet(g.standard_normal((5, 3))))
        values = [ckmm_value(dm, t).total for t in trees]
        assert min(values) >= 0.5 * max(values) - 1e-9


def test_dasgupta_two_approx_all_trees_n5():
    g = np.random.Generator(np.random.PCG64(32))
    trees = list(enumerate_trees(5))
    for _ in range(10):
        weights = pairwise_distances(PointSet(g.standard_normal((5, 3))))
        values = [dasgupta_cost(weights, t).total for t in trees]
        assert max(values) <= 2.0 * min(values) + 1e-9


# ----------------------------------------------------------------------
# triangle decomposition


def test_triangle_line_example():
    dm = pairwise_distances(line_points())
    td = triangle_decompose(dm, line_tree())
    assert td.triple_sum == 9.0
    assert td.pair_term == 20.0
    assert td.reconstructed_total == 29.0


def test_triangle_zero_matrix():
    dm = DistanceMatrix(np.zeros((4, 4)))
    td = triangle_decompose(dm, HierTree.from_nested(((0, 1), (2, 3))))
    assert td == (0.0, 0.0, 0.0)


def test_triangle_reconstructs_ckmm_exhaustively():
    g = np.random.Generator(np.random.PCG64(33))
    dm = pairwise_distances(PointSet(g.standard_normal((6, 2))))
    for tree in enumerate_trees(6):
        td = triangle_decompose(dm, tree)
        assert close(td.reconstructed_total, ckmm_value(dm, tree).total)


def test_triangle_needs_three_points():
    dm = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        triangle_decompose(dm, HierTree.from_nested((0, 1)))


def test_per_triangle_terms_at_least_half_perimeter():
    # Under a metric each triangle's selected two sides total at least half
    # of the perimeter; checked per triple against the tree's LCA structure.
    g = np.random.Generator(np.random.PCG64(34))
    for k in range(10):
        n = 8
        dm = pairwise_distances(PointSet(g.standard_normal((n, 3))))
        tree = random_tree(n, RngStream(60 + k))
        d = dm.values
        for i, j, k3 in itertools.combinations(range(n), 3):
            cij = tree.lca_leaf_count(i, j)
            cik = tree.lca_leaf_count(i, k3)
            cjk = tree.lca_leaf_count(j, k3)
            if cij < cik:
                tri = d[i, k3] + d[j, k3]
            elif cik < cjk:
                tri = d[i, j] + d[j, k3]
            else:
                tri = d[i, j] + d[i, k3]
            assert tri >= 0.5 * (d[i, j] + d[i, k3] + d[j, k3]) - 1e-12


# ----------------------------------------------------------------------
# high-revenue classification


def test_high_revenue_two_singletons():
    ps = PointSet([[0.0], [4.0]])
    st = high_revenue_stats(ps, {0}, {1})
    assert st.fraction == 1.0


def test_high_revenue_line_example():
    st = high_revenue_stats(line_points(), {0, 1}, {2})
    assert sorted(st.side_a) == [0, 1]
    assert st.fraction == 1.0
    assert sorted(st.high_revenue_points_in_larger) == [0, 1]


def test_high_revenue_reorients_sides():
    st = high_revenue_stats(line_points(), {2}, {0, 1})
    assert sorted(st.side_a) == [0, 1]


def test_high_revenue_empty_side_rejected():
    with pytest.raises(ValueError):
        high_revenue_stats(line_points(), set(), {0})


# ----------------------------------------------------------------------
# upper bound / brute force


def test_revenue_upper_bound_values():
    assert revenue_upper_bound(1) == 0.0
    assert revenue_upper_bound(2) == 1.0
    assert revenue_upper_bound(3) == 3.0
    assert revenue_upper_bound(1000) == 499500.0
    with pytest.raises(ValueError):
        revenue_upper_bound(0)


def test_brute_force_line_revenue():
    tree, value = brute_force_opt(line_points(), "revenue")
    assert value == 3.0
    assert tree.serialize() == "((0,1),2)"


def test_brute_force_two_points():
    tree, value = brute_force_opt(PointSet([[0.0], [1.0]]), "revenue")
    assert tree.serialize() == "(0,1)" and value == 1.0


def test_brute_force_matches_direct_scan():
    g = np.random.Generator(np.random.PCG64(41))
    ps = PointSet(g.standard_normal((5, 2)))
    dm = pairwise_distances(ps)
    trees = list(enumerate_trees(5))
    _, best_rev = brute_force_opt(ps, "revenue")
    assert close(best_rev, max(tree_revenue(ps, t).total for t in trees))
    _, best_ckmm = brute_force_opt(dm, "ckmm")
    assert close(best_ckmm, max(ckmm_value(dm, t).total for t in trees))
    _, best_das = brute_force_opt(dm, "dasgupta")
    assert close(best_das, min(dasgupta_cost(dm, t).total for t in trees))


def test_brute_force_on_embedded_ultrametric_reaches_the_bound():
    from hierclust import build_generating_tree, embed_euclidean, generate_random

    for k, n in enumerate((3, 5, 7)):
        spec = generate_random(n, RngStream(70 + k))
        points = embed_euclidean(spec)
        tree, value = brute_force_opt(points, "revenue")
        assert abs(value - revenue_upper_bound(n)) <= 1e-9
        generating = build_generating_tree(spec.induced_matrix())
        assert close(tree_revenue(points, generating).total, value)


def test_brute_force_guards():
    g = np.random.Generator(np.random.PCG64(42))
    with pytest.raises(ValueError):
        brute_force_opt(PointSet(g.standard_normal((OPT_MAX_N + 1, 2))), "revenue")
    with pytest.raises(TypeError):
        brute_force_opt(pairwise_distances(line_points()), "revenue")
    with pytest.raises(TypeError):
        brute_force_opt(line_points(), "ckmm")
    with pytest.raises(ValueError):
        brute_force_opt(line_points(), "bogus")


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 12])
def test_subset_radii_are_the_radii_of_each_subset(n, dim):
    # Every row, over its members, is `_radii` of that subset in index
    # order: at one coordinate a subset of eight or more points takes
    # numpy's pairwise mean, as the row blocks do.
    g = np.random.default_rng(10 * n + dim)
    for coords in (
        g.standard_normal((n, dim)),
        g.standard_normal((3, dim))[np.arange(n) % 3],
        np.full((n, dim), 0.1),
    ):
        coords = _unit_scaled(PointSet(coords).coords)
        radii = _subset_radii(coords)
        for mask in range(1, 1 << n):
            ids = [i for i in range(n) if mask >> i & 1]
            got = [float.hex(v) for v in radii[mask, ids]]
            assert got == [float.hex(v) for v in _radii(coords[ids])], (mask, ids)


@functools.lru_cache(maxsize=None)
def _all_trees(n):
    return tuple(enumerate_trees(n))


def _reference_brute_force_opt(instance, objective_kind):
    """`brute_force_opt` before the subset DP: score every tree, keep the first best."""
    if objective_kind == "revenue":
        n = instance.n
        coords = _unit_scaled(instance.coords)
        evaluate = lambda t: math.fsum(_revenue_values(coords, t))
    else:
        n = instance.n
        evaluate = lambda t: math.fsum(_lca_weighted_values(instance.values, t))
    if n == 1:
        return HierTree([0], 0), 0.0
    minimize = objective_kind == "dasgupta"
    best_tree = None
    best_value = None
    for tree in _all_trees(n):
        value = evaluate(tree)
        if best_value is None or (value < best_value if minimize else value > best_value):
            best_tree, best_value = tree, value
    return best_tree, float(best_value)


def _opt_points(kind, n):
    """Seeded inputs for the DP against enumeration: exact ties and rounding-prone sums."""
    g = np.random.default_rng(100 * n + len(kind))
    if kind == "gaussian":
        return PointSet(g.standard_normal((n, 3)))
    if kind == "coincident":  # up to three copies of each of three locations
        return PointSet(g.standard_normal((3, 2))[np.arange(n) % 3])
    if kind == "zeros":
        return PointSet(np.zeros((n, 2)))
    if kind == "grid":  # 1-D, with repeated values
        return PointSet(np.round(2.0 * g.standard_normal((n, 1))))
    from hierclust import embed_euclidean, generate_random

    return embed_euclidean(generate_random(n, RngStream(n), kind))


def _assert_opt_is_own_total(instance, objective_kind, tree, value):
    if objective_kind == "revenue":
        report = tree_revenue(instance, tree)
    elif objective_kind == "ckmm":
        report = ckmm_value(instance, tree)
    else:
        report = dasgupta_cost(instance, tree)
    assert float.hex(value) == float.hex(report.total)
    assert float.hex(value) == float.hex(math.fsum(v for _, v in report.per_split))


@pytest.mark.parametrize(
    "kind", ["gaussian", "coincident", "zeros", "grid", "strict", "with_ties"]
)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_brute_force_matches_enumeration(n, kind):
    points = _opt_points(kind, n)
    dist = pairwise_distances(points)
    for objective_kind in ("revenue", "ckmm", "dasgupta"):
        instance = points if objective_kind == "revenue" else dist
        tree, value = brute_force_opt(instance, objective_kind)
        _, want = _reference_brute_force_opt(instance, objective_kind)
        assert close(value, want), (objective_kind, value, want)
        _assert_opt_is_own_total(instance, objective_kind, tree, value)


def test_brute_force_runs_at_its_cap():
    from hierclust import TwoMeansSolverConfig, bisecting_kmeans

    g = np.random.Generator(np.random.PCG64(43))
    points = PointSet(g.standard_normal((OPT_MAX_N, 3)))
    dist = pairwise_distances(points)
    others = [
        bisecting_kmeans(points, TwoMeansSolverConfig(kind="exhaustive")),
        *(random_tree(OPT_MAX_N, RngStream(k)) for k in range(5)),
    ]
    tree, value = brute_force_opt(points, "revenue")
    _assert_opt_is_own_total(points, "revenue", tree, value)
    assert all(value >= tree_revenue(points, t).total for t in others)
    tree, value = brute_force_opt(dist, "ckmm")
    _assert_opt_is_own_total(dist, "ckmm", tree, value)
    assert all(value >= ckmm_value(dist, t).total for t in others)
    tree, value = brute_force_opt(dist, "dasgupta")
    _assert_opt_is_own_total(dist, "dasgupta", tree, value)
    assert all(value <= dasgupta_cost(dist, t).total for t in others)
    with pytest.raises(ValueError, match=f"capped at n = {OPT_MAX_N}"):
        brute_force_opt(PointSet(g.standard_normal((OPT_MAX_N + 1, 3))), "revenue")
    with pytest.raises(ValueError, match=f"capped at n = {OPT_MAX_N}"):
        brute_force_opt(pairwise_distances(PointSet(np.zeros((OPT_MAX_N + 1, 1)))), "ckmm")


def test_brute_force_matches_enumeration_on_drawn_points():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coordinate = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )

    @st.composite
    def point_sets(draw):
        n = draw(st.integers(1, 6))
        dim = draw(st.integers(1, 3))
        row = st.lists(coordinate, min_size=dim, max_size=dim)
        return PointSet(np.array(draw(st.lists(row, min_size=n, max_size=n))))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(point_sets())
    def check(points):
        dist = pairwise_distances(points)
        for objective_kind in ("revenue", "ckmm", "dasgupta"):
            instance = points if objective_kind == "revenue" else dist
            _, value = brute_force_opt(instance, objective_kind)
            _, want = _reference_brute_force_opt(instance, objective_kind)
            assert close(value, want), (objective_kind, value, want)

    check()


def test_brute_force_tie_rule():
    # Every tree on four coincident points earns all six pairs, and every
    # tree scores 0 for ckmm and dasgupta: the first bipartition visited
    # wins everywhere, which splits off the lowest index alone.
    points = PointSet(np.zeros((4, 2)))
    for objective_kind in ("revenue", "ckmm", "dasgupta"):
        instance = points if objective_kind == "revenue" else pairwise_distances(points)
        tree, _ = brute_force_opt(instance, objective_kind)
        assert tree.serialize() == "(0,(1,(2,3)))"


# ----------------------------------------------------------------------
# reports


def test_report_csv_shape():
    rep = tree_revenue(line_points(), line_tree())
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "parent_size,left_size,right_size,revenue"
    assert lines[1] == "3,2,1,2.0"
    assert lines[2] == "2,1,1,1.0"
    assert lines[3] == "total,,,3.0"


def test_report_validation():
    from hierclust import ObjectiveReport

    tree = line_tree()  # splits {0,1}|{2}, cap 2, then {0}|{1}, cap 1
    with pytest.raises(ValueError, match="needs 2 per-split values, got 1"):
        ObjectiveReport("revenue", tree, (1.0,), 3.0)
    with pytest.raises(ValueError, match="per-split revenue must lie in"):
        ObjectiveReport("revenue", tree, (1.0, 2.0), 3.0)
    with pytest.raises(ValueError, match="exceeds the n\\(n-1\\)/2 bound"):
        ObjectiveReport("revenue", tree, (2.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="unknown objective kind"):
        ObjectiveReport("bogus", tree, (0.0, 0.0), 0.0)


def test_reports_build_no_split_until_per_split_is_read(monkeypatch):
    from hierclust import Split

    built = []
    post_init = Split.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Split, "__post_init__", counting)
    g = np.random.default_rng(40)
    points = PointSet(g.standard_normal((9, 2)))
    dist = pairwise_distances(points)
    tree = random_tree(9, RngStream(40))
    reports = [
        tree_revenue(points, tree),
        ckmm_value(dist, tree),
        dasgupta_cost(dist, tree),
    ]
    for rep in reports:
        assert float.hex(rep.total) == float.hex(math.fsum(rep.values))
        rep.to_csv()
    assert built == []
    for rep in reports:
        assert rep.per_split == tuple(zip(tree.splits(), rep.values))
    assert len(built) == 2 * len(reports) * (points.n - 1)
