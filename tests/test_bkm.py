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
PCG64 state, and the draws made from it, key for key. The assignment
screen must return `d1 < d0` of `_squared_distances`, run by run, on
points on and beside the centers' bisector.
"""

import contextlib
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
from hierclust import algorithms, metricspace
from hierclust.algorithms import (
    _exhaustive_two_means,
    _nearer_second,
    _ordered_split,
    _restart_draws,
    _split_nodes,
    _squared_distances,
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
    move_tol = algorithms.LLOYD_TOL * diameter
    best_cost = np.inf
    best_assign = None
    for r in range(config.lloyd_restarts):
        g = rng.substream(r).generator()
        assign = _lloyd_once(pts, g, algorithms.LLOYD_MAX_ITERS, move_tol)
        cost = _one_means_cost(coords, ids[assign == 0]) + _one_means_cost(
            coords, ids[assign == 1]
        )
        if cost < best_cost:
            best_cost, best_assign = cost, assign
    assert best_assign is not None
    return (*_ordered_split(ids[best_assign == 0], ids[best_assign == 1]), float(best_cost))


# The settings the golden digests pin: defaults, one iteration, one restart,
# an exact zero tolerance, and tolerances wide enough that moves fall
# between the diameter bounds tol * r and tol * 2r. Upper-case names are
# module constants of `algorithms`, the others config fields.
SETTINGS = (
    {},
    {"LLOYD_MAX_ITERS": 1},
    {"lloyd_restarts": 1},
    {"LLOYD_TOL": 0.0},
    {"LLOYD_TOL": 0.5},
    {"LLOYD_TOL": 0.2, "lloyd_restarts": 3},
)


@contextlib.contextmanager
def _solver(fields, seed, kind="lloyd"):
    """The config of the lower-case `fields`, with the upper-case ones set on `algorithms`."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in fields.items():
            if name.isupper():
                mp.setattr(algorithms, name, value)
        config = {name: value for name, value in fields.items() if not name.isupper()}
        yield TwoMeansSolverConfig(kind=kind, seed=seed, **config)


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
        with _solver(fields, seed) as config:
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
    # A square lattice: the bisector of two lattice points often runs
    # through others, so the assignment screen leaves them to d1 < d0.
    "lattice_7x7_2d": np.array(list(itertools.product(range(-3, 4), repeat=2)), dtype=np.float64),
}


@pytest.mark.parametrize("name", sorted(TIE_INPUTS))
def test_lloyd_matches_per_restart_loop_on_ties(name):
    coords = TIE_INPUTS[name]
    for seed in range(3):
        _assert_matches(coords, np.arange(len(coords)), seed=seed)


@pytest.fixture
def small_blocks(monkeypatch):
    """Lloyd batches sliced in blocks of at most 60 entries; collects each slicing's block count."""
    monkeypatch.setattr(metricspace, "_BLOCK_ENTRIES", 60)
    counts = []
    slicer = algorithms._row_blocks

    def counting(rows, width):
        blocks = list(slicer(rows, width))
        counts.append(len(blocks))
        return iter(blocks)

    monkeypatch.setattr(algorithms, "_row_blocks", counting)
    return counts


@pytest.mark.parametrize("dim", [2, 3, 8, 200])
def test_lloyd_matches_per_restart_loop_in_small_blocks(small_blocks, dim):
    # Every run is wider than a block, so each gets a block of its own.
    g = np.random.default_rng(dim)
    coords = g.standard_normal((41, dim)) + 2.0 * (np.arange(41) % 2 == 0)[:, None]
    _assert_matches(coords, np.arange(41), seed=dim)
    _assert_matches(np.round(coords), np.arange(41), seed=dim)
    assert max(small_blocks) > 1


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
            with _solver(fields, 5) as config:
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
            with _solver(fields, seed) as config:
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
    monkeypatch.setattr(algorithms, "LLOYD_TOL", 0.2)
    hits = 0
    for seed in range(8):
        calls.clear()
        config = TwoMeansSolverConfig(kind="lloyd", seed=seed)
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
# the assignment screen

# Center entries at most 0.5 and bisector offsets at most 0.25, so that a
# mirrored center 2m - c stays within [-1, 1], as unit-scaled data does.
# All are dyadic, so 2m - c is exact and points on the bisector are exactly
# equidistant.
CENTER_ENTRIES = (0.0, -0.0, 0.5, -0.5, 0.25, -0.375, 2.0**-600, -(2.0**-600), 2.0**-300)
MIRRORS = (0.0, 0.125, -0.25, 0.25, 2.0**-601, 0.1875)
POINT_ENTRIES = CENTER_ENTRIES + (1.0, -1.0, 0.1, 1 / 3, 2.0**-1074)


def _screen_case(g, dim, nodes, width, runs, modes):
    """(pts, owner, centers): runs whose centers are equal, mirrored or free.

    A mirrored run's c1 is c0 reflected through m on a set J of coordinates,
    so a point with x[J] = m[J] lies exactly on its bisector. Each node's
    rows mix such points, points 1 ulp off the bisector, copies of earlier
    rows and of centers, and rows drawn from entries down to 2^-600 beside
    entries of 0.5 or 1.
    """
    owner = g.integers(0, nodes, size=runs)
    c0 = g.choice(CENTER_ENTRIES, size=(runs, dim))
    c1 = g.choice(CENTER_ENTRIES, size=(runs, dim))
    planes = []
    for r, mode in enumerate(modes):
        if mode == "equal":
            c1[r] = c0[r]
        elif mode == "mirror":
            c1[r] = c0[r]
            cut = g.random(dim) < 0.5
            cut[g.integers(dim)] = True
            m = g.choice(MIRRORS, size=dim)
            c1[r, cut] = 2 * m[cut] - c0[r, cut]
            planes.append((owner[r], cut, m))
    pts = g.choice(POINT_ENTRIES, size=(nodes, width, dim))
    for k in range(nodes):
        own = [(cut, m) for node, cut, m in planes if node == k]
        for i in range(width):
            kind = g.integers(5)
            if kind == 0 and i > 0:
                pts[k, i] = pts[k, g.integers(i)]
            elif kind == 1:
                pts[k, i] = (c0 if g.random() < 0.5 else c1)[g.integers(runs)]
            elif kind >= 2 and own:
                cut, m = own[g.integers(len(own))]
                row = np.where(cut, m, pts[k, i])
                if kind == 3:  # 1 ulp either side of the bisector
                    j = np.flatnonzero(cut)[0]
                    row[j] = np.nextafter(row[j], np.inf if g.random() < 0.5 else -np.inf)
                pts[k, i] = row
    return pts, owner, np.stack([c0, c1], axis=1)


def _assert_screen_matches(pts, owner, centers):
    sq = np.einsum("kij,kij->ki", pts, pts)
    d2 = _squared_distances(pts, owner, centers)
    got = _nearer_second(pts, owner, centers, sq)
    assert got.tolist() == (d2[:, :, 1] < d2[:, :, 0]).tolist()


def test_screened_assignment_matches_squared_distances():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @st.composite
    def cases(draw):
        dim = draw(st.sampled_from([1, 2, 8, 32, 200]))
        runs = draw(st.integers(1, 4))
        modes = draw(st.lists(st.sampled_from(["equal", "mirror", "free"]), min_size=runs, max_size=runs))
        shape = (dim, draw(st.integers(1, 3)), draw(st.integers(1, 12)), runs, modes)
        return shape, draw(st.integers(0, 2**32 - 1))

    # Besides the drawn cases, at every dim: one node broadcast to three
    # mirrored runs, and three nodes under mirrored, equal and free centers.
    examples = [
        ((dim, nodes, 40, len(modes), modes), dim)
        for dim in (1, 2, 8, 32, 200)
        for nodes, modes in ((1, ["mirror"] * 3), (3, ["mirror", "equal", "mirror", "free"]))
    ]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cases())
    def check(case):
        shape, seed = case
        _assert_screen_matches(*_screen_case(np.random.default_rng(seed), *shape))

    for case in examples:
        check = example(case)(check)
    check()


# ----------------------------------------------------------------------
# nodes of equal points


def _equal_nodes():
    """(coords, nodes): nodes of 3 to 40 equal points, some among other points.

    Copies of 0.1 and of 1/3 have means that round off the point; one node
    mixes 0.0 and -0.0; one sits 2^-1000 below the unit point beside it.
    """
    g = np.random.default_rng(31)
    rows = [
        np.zeros((5, 3)),
        np.full((3, 1), 0.1),
        np.full((17, 8), 1 / 3),
        np.where(g.random((6, 2)) < 0.5, -0.0, 0.0),
        np.tile(g.standard_normal(4), (40, 1)),
        np.vstack([np.full((9, 2), 2.0**-1000), np.ones((1, 2))]),
    ]
    out = []
    for coords in rows:
        coords = _unit_scaled(coords)
        dim = coords.shape[1]
        ids = np.arange(len(coords) - (len(coords) == 10))
        out.append((coords, ids))
        # The same node among other points, in index order but not 0..m-1.
        wide = np.vstack([coords[ids], np.full((len(ids), dim), 0.75)])[g.permutation(2 * len(ids))]
        out.append((wide, np.flatnonzero((wide == coords[0]).all(axis=1))))
    return out


@pytest.mark.parametrize("max_iters", [None, 1, 2])
def test_equal_point_nodes_match_lloyd(max_iters):
    # The split of the first point from the rest, at `_one_means_cost` of
    # the rest, is what the batch and the per-restart loop both return.
    for coords, ids in _equal_nodes():
        assert (coords[ids] == coords[ids[0]]).all()
        for k, fields in enumerate(SETTINGS):
            if max_iters is not None:
                fields = {**fields, "LLOYD_MAX_ITERS": max_iters}
            with _solver(fields, k) as config:
                rng = RngStream(k, (6,))
                got = _lloyd_two_means(coords, ids, config, rng)
                want = (ids[:1], ids[1:], _one_means_cost(coords, ids[1:]))
                _assert_same_sides(got, want, fields)
                want = _reference_lloyd_two_means(coords, ids, config, rng)
                _assert_same_sides(got, want, fields)
                no_keys = np.empty((1, 0), dtype=np.int64)
                sizes = np.array([len(ids)])
                first, draws = _restart_draws(rng, no_keys, sizes, config.lloyd_restarts)
                batch = algorithms._lloyd_batch(coords, [ids], config, first, draws)[0]
                _assert_same_sides(got, batch, fields)


def test_equal_point_nodes_skip_the_batch_beside_other_nodes(monkeypatch):
    # Equal-point nodes of 5, 6 and 7 points share the bracket [4, 8) with
    # ordinary nodes of 4, 5 and 7 points. Only the ordinary ones are run,
    # and each node splits as it does alone and as the per-restart loop.
    batched = []
    run = algorithms._lloyd_batch

    def recording(coords, nodes, config, first, draws):
        batched.extend(ids.tolist() for ids in nodes)
        return run(coords, nodes, config, first, draws)

    monkeypatch.setattr(algorithms, "_lloyd_batch", recording)
    g = np.random.default_rng(32)
    coords = np.vstack(
        [np.full((5, 2), 0.1), np.zeros((6, 2)), np.full((7, 2), -3.0), g.standard_normal((16, 2))]
    )
    cuts = [0, 5, 11, 18, 22, 27, 34]
    nodes = [np.arange(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    keys = 3 * np.arange(len(nodes))[:, None] + 2
    for fields in SETTINGS:
        with _solver(fields, 7) as config:
            rng = RngStream(7)
            batched.clear()
            got = _split_nodes(coords, nodes, keys, config, rng)
            assert batched == [ids.tolist() for ids in nodes[3:]]
            for k, ids in enumerate(nodes):
                alone = _split_nodes(coords, [ids], keys[k : k + 1], config, rng)[0]
                _assert_same_sides(got[k], alone, fields)
                want = _reference_lloyd_two_means(coords, ids, config, rng.substream(keys[k, 0]))
                _assert_same_sides(got[k], want, fields)


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
        with _solver(fields, seed, kind) as config:
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
def test_bisecting_matches_depth_first_build_in_small_blocks(small_blocks, dim):
    # Blocks of one run each in every batch of the tree.
    _assert_same_tree(_random_points(64, dim), seed=dim)
    _assert_same_tree(np.round(_random_points(40, dim)), seed=dim, settings=SETTINGS[:2])
    assert max(small_blocks) > 1


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
        with _solver(fields, seed) as config:
            want = _reference_bisecting_kmeans(points, config)
            assert _ids(bisecting_kmeans(points, config)) == _ids(want)

    check()


# ----------------------------------------------------------------------
# restart seeds without a generator per restart

# Seeds of one, two and five 32-bit words, and paths of length 0 to 3 with
# keys of one and of two words. A five-word seed fills more than the pool.
SEED_STREAMS = [
    RngStream(seed, path)
    for seed in (0, 11, 2**32 + 5, 2**63 - 1, 2**130 + 3)
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
    # 20 streams x 320 keys: 6400 keys in all.


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
