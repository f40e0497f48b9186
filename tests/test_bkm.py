"""Lloyd 2-means and bisecting 2-means against the loops they replace.

`_reference_lloyd_two_means` is the library's Lloyd solver before the
restarts of a node ran as one batch: each restart draws its k-means++ seeds
from its own substream, runs its own Lloyd loop against a tolerance scaled
by the exact diameter, and is scored from `coords`. The library must return
the same split and the same cost, compared with `float.hex`, on every input
below, under every solver setting below.

`_reference_bisecting_kmeans` is `bisecting_kmeans` before the tree grew
one depth at a time: it builds depth first, one node at a time, through
`_reference_lloyd_two_means`. The library must build the same tree.

The bulk seeding of restarts must reproduce numpy's own SeedSequence and
PCG64 state, and the draws made from it, key for key.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from hierclust import (
    HierTree,
    PointSet,
    RngStream,
    Split,
    TwoMeansSolverConfig,
    bisecting_kmeans,
    synth_gaussian_mixture,
    two_means,
)
from hierclust import algorithms
from hierclust.algorithms import (
    _exhaustive_two_means,
    _ordered_split,
    _restart_draws,
    _split_nodes,
)
from hierclust.hiertree import _divide
from hierclust.metricspace import _distance_blocks, _one_means_cost, _unit_scaled


def _lloyd_two_means(coords, ids, config, rng):
    """`_split_nodes` on one node: restart r seeds from `rng.substream(r)`."""
    no_keys = np.empty((1, 0), dtype=np.int64)
    return _split_nodes(coords, [ids], no_keys, config, rng)[0]


def _lloyd_once(
    pts: np.ndarray, g: np.random.Generator, max_iters: int, move_tol: float
) -> np.ndarray:
    m = len(pts)
    c0 = pts[int(g.integers(m))]
    d2 = ((pts - c0) ** 2).sum(axis=1)
    total = float(d2.sum())
    if total == 0.0:
        c1 = pts[0]
    else:
        c1 = pts[int(g.choice(m, p=d2 / total))]
    centers = np.stack([c0, c1])
    assign = np.zeros(m, dtype=np.intp)
    for _ in range(max_iters):
        dist2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dist2.argmin(axis=1)
        for side in (0, 1):
            if not (assign == side).any():
                own = dist2[np.arange(m), assign]
                assign[int(own.argmax())] = side
        new_centers = np.stack([pts[assign == 0].mean(axis=0), pts[assign == 1].mean(axis=0)])
        move = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if move <= move_tol:
            break
    return assign


def _reference_lloyd_two_means(coords, ids, config, rng):
    pts = coords[ids]
    # The diameter as the maximum over row blocks is exact: sqrt is monotone.
    diameter = max(float(block.max()) for _, block in _distance_blocks(pts, pts))
    move_tol = config.lloyd_tol * diameter
    best_cost = np.inf
    best_assign = None
    for r in range(config.lloyd_restarts):
        g = rng.substream(r).generator()
        assign = _lloyd_once(pts, g, config.lloyd_max_iters, move_tol)
        cost = _one_means_cost(coords, ids[assign == 0]) + _one_means_cost(
            coords, ids[assign == 1]
        )
        if cost < best_cost:
            best_cost, best_assign = cost, assign
    assert best_assign is not None
    return (*_ordered_split(ids[best_assign == 0], ids[best_assign == 1]), float(best_cost))


# The settings the golden digests pin: defaults, one iteration, one restart,
# an exact zero tolerance, and tolerances wide enough that moves fall
# between the diameter bounds tol * r and tol * 2r.
SETTINGS = (
    {},
    {"lloyd_max_iters": 1},
    {"lloyd_restarts": 1},
    {"lloyd_tol": 0.0},
    {"lloyd_tol": 0.5},
    {"lloyd_tol": 0.2, "lloyd_restarts": 3},
)


def _ids(tree):
    return tree.root, tree.nodes


def _assert_same_sides(got, want, context=None):
    """Equal (first side, second side, cost): the sides' arrays and the cost's bits."""
    assert [side.tolist() for side in got[:2]] == [side.tolist() for side in want[:2]], context
    assert float.hex(got[2]) == float.hex(want[2]), context


def _assert_matches(coords, ids, seed=0):
    coords = np.asarray(coords, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.intp)
    for fields in SETTINGS:
        config = TwoMeansSolverConfig(kind="lloyd", seed=seed, **fields)
        rng = RngStream(seed, (4,))
        want = _reference_lloyd_two_means(coords, ids, config, rng)
        _assert_same_sides(_lloyd_two_means(coords, ids, config, rng), want, fields)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32, 200])
@pytest.mark.parametrize("m", [2, 3, 5, 17, 64, 300])
def test_lloyd_matches_per_restart_loop(m, dim):
    g = np.random.default_rng(1000 * m + dim)
    coords = g.standard_normal((m, dim))
    _assert_matches(coords, np.arange(m), seed=m + dim)
    # Two shifted groups, and a subset of a larger array in index order.
    _assert_matches(coords + 3.0 * (np.arange(m) % 3 == 0)[:, None], np.arange(m), seed=dim)
    wide = g.standard_normal((2 * m + 1, dim))
    _assert_matches(wide, np.sort(g.choice(2 * m + 1, size=m, replace=False)), seed=m)


def _coincident(locations: int, copies: int, dim: int, seed: int) -> np.ndarray:
    return np.tile(np.random.default_rng(seed).standard_normal((locations, dim)), (copies, 1))


def _grid(m: int, dim: int, seed: int) -> np.ndarray:
    return np.round(np.random.default_rng(seed).standard_normal((m, dim)))


TIE_INPUTS = {
    "coincident_pairs_3d": _coincident(2, 5, 3, 1),
    "coincident_5x8_2d": _coincident(5, 8, 2, 2),
    "coincident_6x50_1d": _coincident(6, 50, 1, 3),
    "grid_1d_150": _grid(150, 1, 4),
    "grid_2d_120": _grid(120, 2, 5),
    "grid_3d_64": _grid(64, 3, 6),
    "line_equal_gaps": np.arange(33, dtype=np.float64)[:, None],
    "zeros_3": np.zeros((3, 2)),
    "zeros_17": np.zeros((17, 1)),
    "zeros_64": np.zeros((64, 8)),
    "one_point_off_zero": np.vstack([np.zeros((20, 3)), np.ones((1, 3))]),
    "tiny_scale": 1e-170 * np.random.default_rng(7).standard_normal((40, 3)),
    "large_scale": 1e150 * np.random.default_rng(8).standard_normal((40, 3)),
    "far_from_origin": 1e8 + np.random.default_rng(9).standard_normal((50, 4)),
}


@pytest.mark.parametrize("name", sorted(TIE_INPUTS))
def test_lloyd_matches_per_restart_loop_on_ties(name):
    coords = TIE_INPUTS[name]
    for seed in range(3):
        _assert_matches(coords, np.arange(len(coords)), seed=seed)


@pytest.mark.parametrize("dim", [2, 3, 8, 200])
def test_lloyd_matches_per_restart_loop_in_small_blocks(monkeypatch, dim):
    # Every run is wider than a block, so each gets a block of its own.
    monkeypatch.setattr(algorithms, "_BATCH_ENTRIES", 60)
    g = np.random.default_rng(dim)
    coords = g.standard_normal((41, dim)) + 2.0 * (np.arange(41) % 2 == 0)[:, None]
    _assert_matches(coords, np.arange(41), seed=dim)
    _assert_matches(np.round(coords), np.arange(41), seed=dim)


def test_split_nodes_matches_each_node_alone():
    # Nodes of sizes 3 to 9 and 15 and a 2-point node, solved in one call,
    # run as padded batches in the brackets [2, 4), [4, 8) and [8, 16). Each
    # node must split as it does alone under its own key, and as the
    # per-restart loop splits it from that key's substream.
    g = np.random.default_rng(16)
    sizes = [3, 4, 5, 6, 7, 8, 9, 15, 2]
    cuts = np.cumsum([0] + sizes)
    for coords in (g.standard_normal((60, 3)), np.round(g.standard_normal((60, 2)))):
        perm = g.permutation(len(coords))
        nodes = [np.sort(perm[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        keys = 7 * np.arange(len(nodes))[:, None] + 1
        for fields in SETTINGS:
            config = TwoMeansSolverConfig(kind="lloyd", seed=5, **fields)
            rng = RngStream(5)
            got = _split_nodes(coords, nodes, keys, config, rng)
            for k, ids in enumerate(nodes):
                context = (fields, len(ids))
                alone = _split_nodes(coords, [ids], keys[k : k + 1], config, rng)[0]
                _assert_same_sides(got[k], alone, context)
                if len(ids) > 2:
                    stream = rng.substream(keys[k, 0])
                    want = _reference_lloyd_two_means(coords, ids, config, stream)
                    _assert_same_sides(got[k], want, context)


def test_two_means_lloyd_matches_per_restart_loop():
    g = np.random.default_rng(12)
    points = PointSet(g.standard_normal((80, 5)))
    for seed, size in ((0, 2), (1, 3), (2, 9), (3, 40), (4, 80)):
        ids = np.sort(g.choice(80, size=size, replace=False))
        for fields in SETTINGS:
            config = TwoMeansSolverConfig(kind="lloyd", seed=seed, **fields)
            first, second, cost = _reference_lloyd_two_means(
                points.coords, ids, config, RngStream(seed)
            )
            got = two_means(points, ids.tolist(), config)
            assert got[0] == Split(frozenset(first.tolist()), frozenset(second.tolist()))
            assert float.hex(got[1]) == float.hex(cost)


def test_exact_diameter_only_between_its_bounds(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(len(a))
        return _distance_blocks(a, b)

    monkeypatch.setattr(algorithms, "_distance_blocks", counting)
    g = np.random.default_rng(13)
    coords = g.standard_normal((200, 4))
    ids = np.arange(200)
    # A converged restart moves its centers by exactly 0, under any bound.
    # The bound r comes from the batch's own squared distances, so no
    # distance block is made at all.
    _lloyd_two_means(coords, ids, TwoMeansSolverConfig(kind="lloyd"), RngStream(1))
    assert calls == []
    # A wide tolerance puts some first moves between tol * r and tol * 2r;
    # the exact diameter is then computed once for the set, and the answer
    # still matches the loop that always computed it.
    hits = 0
    for seed in range(8):
        calls.clear()
        config = TwoMeansSolverConfig(kind="lloyd", lloyd_tol=0.2, seed=seed)
        got = _lloyd_two_means(coords, ids, config, RngStream(seed))
        want = _reference_lloyd_two_means(coords, ids, config, RngStream(seed))
        _assert_same_sides(got, want)
        assert calls.count(200) <= 1
        hits += calls.count(200)
    assert hits > 0


def test_lloyd_batch_bounds_its_temporaries():
    g = np.random.default_rng(14)
    coords = g.standard_normal((2000, 256)) + 6.0 * (np.arange(2000) % 2 == 0)[:, None]
    config = TwoMeansSolverConfig(kind="lloyd", seed=3)
    # Blocks of about 32 MB keep the peak near 32 MiB. Ten restarts'
    # (2000, 2, 256) differences in one piece would take 84 MiB.
    tracemalloc.start()
    try:
        _lloyd_two_means(coords, np.arange(2000), config, RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# Squared differences of these coordinates overflow to inf.
HUGE = np.array([[0.0, 0.0], [1e200, 1e200], [-1e200, 5.0], [3.0, 4.0]])


@pytest.mark.parametrize("kind", ["lloyd", "exhaustive"])
def test_bisecting_tree_is_unchanged_by_a_power_of_two_scale(kind):
    g = np.random.default_rng(15)
    inputs = (
        (HUGE, (-600,)),
        (g.standard_normal((18, 3)), (-600, 600)),
        (TIE_INPUTS["coincident_pairs_3d"], (-600, 600)),
    )
    for k, (coords, exponents) in enumerate(inputs):
        config = TwoMeansSolverConfig(kind=kind, seed=k)
        want = bisecting_kmeans(PointSet(coords), config)
        for exponent in exponents:
            got = bisecting_kmeans(PointSet(np.ldexp(coords, exponent)), config)
            assert _ids(got) == _ids(want), exponent


def test_two_means_cost_in_original_units():
    config = TwoMeansSolverConfig(kind="exhaustive")
    split, cost = two_means(PointSet(HUGE), range(4), config)
    assert cost == np.inf  # about 3e400, past the float range
    small = PointSet(np.ldexp(HUGE, -700))
    assert two_means(small, range(4), config)[0] == split


# ----------------------------------------------------------------------
# bisecting 2-means, one depth at a time


def _reference_bisecting_kmeans(points, config):
    """Depth first, left subtree first, one node at a time.

    The v-th node visited with two or more points seeds restart r from
    `RngStream(config.seed).substream(v).substream(r).generator()`, and a
    2-point node takes its only split.
    """
    coords = _unit_scaled(points.coords)
    base = RngStream(config.seed)
    visits = itertools.count()

    def expand(ids, nid):
        if len(ids) == 1:
            return int(ids[0])
        rng = base.substream(next(visits))
        if config.kind == "exhaustive":
            left, right, _ = _exhaustive_two_means(coords, ids)
        elif len(ids) == 2:
            left, right = ids[:1], ids[1:]
        else:
            left, right, _ = _reference_lloyd_two_means(coords, ids, config, rng)
        return left, right

    return HierTree(_divide(np.arange(points.n, dtype=np.intp), expand), 0)


def _random_points(n, dim):
    g = np.random.default_rng(100 * n + dim)
    return g.standard_normal((n, dim)) + 4.0 * (np.arange(n) % 3)[:, None]


def _assert_same_tree(coords, seed=0, kind="lloyd", settings=SETTINGS):
    points = PointSet(np.asarray(coords, dtype=np.float64))
    for fields in settings:
        config = TwoMeansSolverConfig(kind=kind, seed=seed, **fields)
        want = _reference_bisecting_kmeans(points, config)
        assert _ids(bisecting_kmeans(points, config)) == _ids(want), fields


@pytest.mark.parametrize("dim", [1, 2, 8, 32])
@pytest.mark.parametrize("n", [3, 17, 64, 300, 1000])
def test_bisecting_matches_depth_first_build(n, dim):
    _assert_same_tree(_random_points(n, dim), seed=n + dim)


# The tie inputs, with 12 copies of the six 1-D locations rather than 50:
# with 50, the per-restart reference takes over a minute.
TREE_TIE_INPUTS = {
    **{name: coords for name, coords in TIE_INPUTS.items() if name != "coincident_6x50_1d"},
    "coincident_6x12_1d": _coincident(6, 12, 1, 3),
}


@pytest.mark.parametrize("name", sorted(TREE_TIE_INPUTS))
def test_bisecting_matches_depth_first_build_on_ties(name):
    for seed in range(2):
        _assert_same_tree(TREE_TIE_INPUTS[name], seed=seed)


@pytest.mark.parametrize("exponent", [-600, 600])
def test_bisecting_matches_depth_first_build_when_scaled(exponent):
    for name in ("grid_2d_120", "coincident_5x8_2d", "zeros_17"):
        _assert_same_tree(np.ldexp(TIE_INPUTS[name], exponent), seed=3)
    _assert_same_tree(np.ldexp(_random_points(64, 3), exponent), seed=4)


def test_bisecting_matches_depth_first_build_on_mixture():
    points = synth_gaussian_mixture(8, 1000, 8, 20.0, RngStream(11))
    _assert_same_tree(points.coords, seed=11)


@pytest.mark.parametrize("dim", [1, 2, 8, 32])
def test_bisecting_matches_depth_first_build_in_small_blocks(monkeypatch, dim):
    # Blocks of one run each in every batch of the tree.
    monkeypatch.setattr(algorithms, "_BATCH_ENTRIES", 60)
    _assert_same_tree(_random_points(64, dim), seed=dim)
    _assert_same_tree(np.round(_random_points(40, dim)), seed=dim, settings=SETTINGS[:2])


def test_bisecting_exhaustive_matches_depth_first_build():
    for n, dim in ((3, 1), (9, 2), (16, 3), (20, 8)):
        _assert_same_tree(_random_points(n, dim), kind="exhaustive", settings=({},))
    _assert_same_tree(TIE_INPUTS["coincident_pairs_3d"], kind="exhaustive", settings=({},))


def test_bisecting_matches_depth_first_build_on_drawn_points():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coordinate = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 40))
        dim = draw(st.integers(1, 4))
        row = st.lists(coordinate, min_size=dim, max_size=dim)
        coords = np.array(draw(st.lists(row, min_size=n, max_size=n)))
        return coords, draw(st.sampled_from(SETTINGS)), draw(st.integers(0, 2**40))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cases())
    def check(case):
        coords, fields, seed = case
        points = PointSet(coords)
        config = TwoMeansSolverConfig(kind="lloyd", seed=seed, **fields)
        want = _reference_bisecting_kmeans(points, config)
        assert _ids(bisecting_kmeans(points, config)) == _ids(want)

    check()


# ----------------------------------------------------------------------
# restart seeds without a generator per restart

# Seeds of one and of two 32-bit words, and paths of length 0 to 3 with
# keys of one and of two words.
SEED_STREAMS = [
    RngStream(seed, path)
    for seed in (0, 11, 2**32 + 5, 2**63 - 1)
    for path in ((), (7,), (2**33, 1), (3, 0, 2**32 - 1))
]


@pytest.mark.parametrize("stream", SEED_STREAMS, ids=repr)
def test_bulk_seeding_matches_numpy(stream):
    g = np.random.default_rng(stream.seed % 1000 + len(stream.path))
    tails = g.integers(0, 2**32, size=(160, 2))
    tails[:4] = [[0, 0], [1, 9], [2**32 - 1, 0], [0, 2**32 - 1]]
    for keys in (tails, tails[:, :1]):
        got = stream._pcg64_states(keys)
        for row, (state, inc) in zip(keys.tolist(), got):
            want = stream.substream(*row).generator().bit_generator.state
            assert want["state"] == {"state": state, "inc": inc}, row
    # 16 streams x 320 keys: 5120 keys in all.


def test_bulk_seeding_refuses_keys_past_one_word():
    with pytest.raises(ValueError, match="0..2"):
        RngStream(1)._pcg64_states(np.array([[2**32]]))
    with pytest.raises(ValueError, match="non-negative"):
        RngStream(-1)._pcg64_states(np.array([[0]]))


@pytest.mark.parametrize("stream", SEED_STREAMS[::5], ids=repr)
def test_restart_draws_match_a_generator_per_restart(stream):
    # integers(m) with m - 1 below 2^32 draws 32 bits and keeps the other
    # half of its 64-bit word buffered; the next restart's state must drop
    # it. m = 2^31 + 1 rejects about half of its draws (Lemire), and
    # 2^32 + 1 and 2^40 draw 64 bits.
    sizes = np.array([3, 17, 1000, 2**31 + 1, 2**32, 2**32 + 1, 2**40])
    g = stream.generator()
    g.integers(3)
    assert g.bit_generator.state["has_uint32"] == 1
    keys = np.arange(len(sizes))[:, None] * 7
    restarts = 12
    first, draws = _restart_draws(stream, keys, sizes, restarts)
    for k, m in enumerate(sizes.tolist()):
        for r in range(restarts):
            g = stream.substream(int(keys[k, 0]), r).generator()
            assert first[k * restarts + r] == g.integers(m)
            assert float.hex(float(draws[k * restarts + r])) == float.hex(g.random())
