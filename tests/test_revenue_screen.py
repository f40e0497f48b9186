"""The saturation screen of split revenue against the exact row-block expression.

`objectives._split_revenue_blocks` gives 1.0 to every pair whose squared
distance is provably at least delta^2 and scores the others from their exact
distances. `_reference_blocks` below is the expression it replaced: every
pair's distance from `_distance_blocks`, then `_pair_revenues`. Each block
must equal the reference bit for bit, in the same row-block layout, and each
split's sum must equal it by `float.hex`.
"""

import numpy as np
import pytest

from hierclust import (
    PointSet,
    RngStream,
    build_generating_tree,
    embed_euclidean,
    generate_random,
    high_revenue_stats,
    tree_revenue,
)
from hierclust import metricspace, objectives
from hierclust.metricspace import _distance_blocks, _unit_scaled
from hierclust.objectives import HIGH_REVENUE_MIN, _pair_revenues, _split_revenue_blocks


def _radii(pts):
    centroid = pts[0] if (pts == pts[0]).all() else pts.mean(axis=0)
    return np.sqrt(((pts - centroid) ** 2).sum(axis=1))


def _reference_blocks(coords, left, right):
    pl, pr = coords[left], coords[right]
    dl, dr = _radii(pl), _radii(pr)
    for s, cross in _distance_blocks(pl, pr):
        yield _pair_revenues(cross, np.maximum(dl[s : s + len(cross), None], dr[None, :]))


def _assert_screen_matches(coords, left, right):
    """Screen blocks equal the reference's bit for bit; returns the reference blocks."""
    left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
    got = list(_split_revenue_blocks(coords, left, right))
    want = list(_reference_blocks(coords, left, right))
    assert [b.shape for b in got] == [b.shape for b in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert [float(b.sum()).hex() for b in got] == [float(b.sum()).hex() for b in want]
    return want


@pytest.fixture
def exact_pairs(monkeypatch):
    """A list that grows by the number of pairs each call sends down the exact path."""
    calls = []
    exact = objectives._gathered_revenues

    def counting(a, b, delta):
        calls.append(len(a))
        return exact(a, b, delta)

    monkeypatch.setattr(objectives, "_gathered_revenues", counting)
    return calls


def _clusters(n, dim, g, spread=8.0):
    """n points around four centers, numbered cluster by cluster."""
    centers = spread * g.standard_normal((4, dim))
    return centers[np.arange(n) * 4 // n] + g.standard_normal((n, dim))


def _splits(n, g):
    """A split along the clusters, an interleaved one and a lopsided random one."""
    ids = np.arange(n)
    coin = g.random(n) < 0.2
    coin[0], coin[-1] = True, False
    return [
        (ids[: n // 2], ids[n // 2 :]),
        (ids[::2], ids[1::2]),
        (ids[coin], ids[~coin]),
    ]


@pytest.mark.parametrize("dim", [1, 7, 8, 9, 32, 128, 129, 1022])
def test_screen_matches_reference_by_dim(dim):
    g = np.random.default_rng(dim)
    n = 120 if dim == 1022 else 400
    coords = _unit_scaled(_clusters(n, dim, g))
    for left, right in _splits(n, g):
        _assert_screen_matches(coords, left, right)


@pytest.mark.parametrize("exponent", [600, -600])
@pytest.mark.parametrize("dim", [2, 9, 129])
def test_screen_matches_reference_with_a_rescaled_cluster(dim, exponent):
    # One cluster 2^600 times larger or smaller than the others: after unit
    # scaling, one part of the data squares to subnormals or to zero.
    g = np.random.default_rng(1000 * dim + 600 + exponent)
    coords = _clusters(200, dim, g)
    coords[:50] = np.ldexp(coords[:50], exponent)
    coords = _unit_scaled(PointSet(coords).coords)
    ids = np.arange(200)
    # The last split lies inside the rescaled cluster: at 2^-600 its squared
    # distances and radii all underflow to 0.
    for left, right in _splits(200, g) + [(ids[:25], ids[25:50])]:
        _assert_screen_matches(coords, left, right)


@pytest.mark.parametrize("dim", [32, 129])
@pytest.mark.parametrize("exponent", [-535, -538])
def test_screen_matches_reference_where_squares_are_subnormal(dim, exponent):
    # Points near 2^exponent beside one unit point outside both sides:
    # squared distances and radii are subnormal and lose most of their bits,
    # and only the threshold's 2^-1000 keeps such pairs off the screen.
    for seed in range(3):
        pts = _clusters(40, dim, np.random.default_rng(seed), spread=1.0)
        coords = np.ldexp(np.vstack([np.ldexp(pts, exponent), np.ones((1, dim))]), -1)
        ids = np.arange(40)
        for left, right in ((ids[:20], ids[20:]), (ids[::2], ids[1::2])):
            _assert_screen_matches(coords, left, right)


@pytest.mark.parametrize("dim", [1, 3, 32])
def test_screen_matches_reference_on_sides_of_equal_points(dim):
    g = np.random.default_rng(40 + dim)
    p, q = g.standard_normal((2, dim)) * 0.3
    varied = g.standard_normal((30, dim)) * 0.3
    cases = [
        np.vstack([np.tile(p, (60, 1)), np.tile(q, (70, 1))]),  # delta = 0 for every pair
        np.vstack([np.tile(p, (60, 1)), np.tile(p, (70, 1))]),  # and d = 0 as well
        np.vstack([np.tile(p, (60, 1)), varied]),  # one side of equal points
        np.zeros((50, dim)),
    ]
    for coords in cases:
        cut = 60 if len(coords) > 60 else 25
        ids = np.arange(len(coords))
        want = _assert_screen_matches(_unit_scaled(coords), ids[:cut], ids[cut:])
        if len(coords) == 130:
            assert all((b == 1.0).all() for b in want)


def _planted(dim, t):
    """Points where the pair (0, 2) is t away from each other and delta is 1.

    Left: 0 and 2e_0, radius 1. Right: t e_1 and t e_1 + e_2 / 2, radius 1/4.
    Every coordinate also carries 0.25 in columns 3 and up, which the
    differences cancel but the norms do not.
    """
    coords = np.full((4, dim), 0.25)
    coords[:, :3] = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, t, 0.0], [0.0, t, 0.5]]
    return coords


@pytest.mark.parametrize("dim", [3, 8, 129])
def test_screen_matches_reference_at_the_saturation_threshold(dim, exact_pairs):
    # d = delta exactly earns exactly 1.0; one ulp below earns less. Both,
    # and one ulp above, must take the exact path, and match it.
    for t, full in ((1.0, True), (np.nextafter(1.0, 2.0), True), (np.nextafter(1.0, 0.0), False)):
        coords = _unit_scaled(np.repeat(_planted(dim, t), 30, axis=0))
        ids = np.arange(len(coords))
        left = ids[np.isin(ids // 30, (0, 1))]
        right = ids[np.isin(ids // 30, (2, 3))]
        exact_pairs.clear()
        want = _assert_screen_matches(coords, left, right)
        rev = np.concatenate(want)
        assert (rev[0, :30] == 1.0).all() == full
        assert sum(exact_pairs) >= 30 * 30


def test_screen_matches_reference_on_drawn_cases(monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # Row blocks of a few hundred entries, so drawn splits span several.
    monkeypatch.setattr(metricspace, "_BLOCK_ENTRIES", 700)

    @st.composite
    def cases(draw):
        dim = draw(st.sampled_from([1, 7, 8, 9, 32, 128, 129]))
        nl, nr = draw(st.integers(1, 30)), draw(st.integers(1, 30))
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        coords = _clusters(nl + nr, dim, g, draw(st.sampled_from([0.0, 2.0, 8.0])))
        exponent = draw(st.sampled_from([0, 600, -600]))
        rescaled = g.random(nl + nr) < 0.3
        coords[rescaled] = np.ldexp(coords[rescaled], exponent)
        if draw(st.booleans()):  # the left side of equal points
            coords[:nl] = coords[0]
        if draw(st.booleans()):  # the right side of equal points
            coords[nl:] = coords[-1]
        if dim >= 3 and nl >= 2 and nr >= 2 and draw(st.booleans()):
            # A pair at d = delta, or one ulp off it, when the sides are those pairs.
            t = draw(st.sampled_from([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]))
            coords[[0, 1, nl, nl + 1]] = _planted(dim, t)
        # The sides are rows :nl and nl: before the rows are shuffled.
        perm = g.permutation(nl + nr)
        shuffled = np.empty_like(coords)
        shuffled[perm] = coords
        return _unit_scaled(PointSet(shuffled).coords), np.sort(perm[:nl]), np.sort(perm[nl:])

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(cases())
    def check(case):
        _assert_screen_matches(*case)

    check()


@pytest.mark.parametrize("mode", ["strict", "with_ties"])
def test_generating_trees_send_no_pair_down_the_exact_path(mode, monkeypatch, exact_pairs):
    # Every split on the row-block route: each pair of a generating tree
    # earns 1, and the screen certifies every one of them.
    monkeypatch.setattr(objectives, "_SMALL_SPLIT_ENTRIES", 0)
    for n in (2, 9, 40, 128):
        spec = generate_random(n, RngStream(n, (7,)), mode)
        report = tree_revenue(embed_euclidean(spec), build_generating_tree(spec.induced_matrix()))
        assert report.total == n * (n - 1) / 2
    assert exact_pairs == []


def _reference_high_revenue(points, left, right):
    a, b = (left, right) if len(left) >= len(right) else (right, left)
    coords = _unit_scaled(points.coords)
    blocks = _reference_blocks(coords, np.array(a, dtype=np.intp), np.array(b, dtype=np.intp))
    counts = np.concatenate([(rev >= HIGH_REVENUE_MIN).sum(axis=1) for rev in blocks])
    return {a[k] for k in range(len(a)) if 2 * counts[k] >= len(b)}


@pytest.mark.parametrize("dim", [1, 2, 8, 32, 129])
def test_high_revenue_stats_match_the_reference(dim):
    g = np.random.default_rng(500 + dim)
    points = PointSet(_clusters(300, dim, g, spread=3.0) * 0.05)
    for left, right in _splits(300, g):
        left, right = sorted(left.tolist()), sorted(right.tolist())
        stats = high_revenue_stats(points, left, right)
        want = _reference_high_revenue(points, left, right)
        assert stats.high_revenue_points_in_larger == frozenset(want)
        assert stats.fraction == len(want) / max(len(left), len(right))
