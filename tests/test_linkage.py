"""Average and single linkage against the full-rescan loop they replace.

`_reference_agglomerate` is the library's agglomerative loop before it kept
per-row cached minima: every merge rebuilds the whole score matrix and picks
the smallest (min-leaf, min-leaf) key among the minima. The library must
return the same node tuples and root on every input below, most of them
chosen for their ties.
"""

from typing import List, Tuple, Union

import numpy as np
import pytest

from hierclust import (
    DistanceMatrix,
    HierTree,
    PointSet,
    RandomBadInstanceSpec,
    average_linkage,
    build_random_bad_instance,
    pairwise_distances,
    single_linkage,
)


def _reference_agglomerate(dist: DistanceMatrix, mode: str) -> HierTree:
    n = dist.n
    if n == 1:
        return HierTree([0], 0)
    # state[a, b]: total (average mode) or minimum (single mode) cross
    # distance between the live clusters in slots a and b.
    state = dist.values.copy()
    size = np.ones(n, dtype=np.float64)
    min_leaf = np.arange(n)
    alive = np.ones(n, dtype=bool)
    node_of = list(range(n))
    nodes: List[Union[int, Tuple[int, int]]] = list(range(n))

    for _ in range(n - 1):
        valid = np.outer(alive, alive)
        np.fill_diagonal(valid, False)
        if mode == "average":
            score = np.where(valid, state / np.outer(size, size), np.inf)
        else:
            score = np.where(valid, state, np.inf)
        best = float(score.min())
        # Only live pairs: when every live score has overflowed to inf, the
        # dead ones tie with them.
        ii, jj = np.nonzero(valid & (score == best))
        pick = None
        for a, b in zip(ii.tolist(), jj.tolist()):
            if a >= b:
                continue
            la, lb = int(min_leaf[a]), int(min_leaf[b])
            key = (min(la, lb), max(la, lb))
            if pick is None or key < pick[0]:
                pick = (key, a, b)
        assert pick is not None
        _, a, b = pick
        nodes.append((node_of[a], node_of[b]))
        node_of[a] = len(nodes) - 1
        if mode == "average":
            state[a, :] += state[b, :]
        else:
            state[a, :] = np.minimum(state[a, :], state[b, :])
        state[:, a] = state[a, :]
        size[a] += size[b]
        min_leaf[a] = min(min_leaf[a], min_leaf[b])
        alive[b] = False
    return HierTree(nodes, len(nodes) - 1)


BUILDERS = (("average", average_linkage), ("single", single_linkage))


def _dist(coords) -> DistanceMatrix:
    return pairwise_distances(PointSet(np.asarray(coords, dtype=np.float64)))


def _equal_entries(n: int, levels: int, seed: int) -> DistanceMatrix:
    """A symmetric matrix whose off-diagonal entries take `levels` values."""
    g = np.random.default_rng(seed)
    upper = np.triu(g.integers(1, levels + 1, size=(n, n)).astype(np.float64), 1)
    return DistanceMatrix(upper + upper.T)


def _inputs():
    out = {}
    for n, dim in ((1, 2), (2, 1), (3, 2), (5, 3), (17, 2), (64, 4), (150, 8), (300, 3)):
        g = np.random.default_rng(1000 + n)
        out[f"random_{n}"] = _dist(g.standard_normal((n, dim)))
    g = np.random.default_rng(7)
    spots = g.standard_normal((4, 3))
    out["coincident_4x10"] = _dist(np.repeat(spots, 10, axis=0))
    out["coincident_interleaved"] = _dist(spots[g.integers(0, 4, size=60)])
    out["coincident_all"] = _dist(np.ones((25, 2)))
    xs, ys = np.meshgrid(np.arange(7), np.arange(6))
    out["grid_7x6"] = _dist(np.column_stack([xs.ravel(), ys.ravel()]))
    out["grid_line_40"] = _dist(np.arange(40)[:, None])
    out["grid_rounded_120"] = _dist(np.round(2 * np.random.default_rng(8).standard_normal((120, 2))))
    for n in (2, 3, 30):
        out[f"zeros_{n}"] = DistanceMatrix(np.zeros((n, n)))
    for k in (2, 3, 4, 6):
        out[f"random_bad_{k}"] = pairwise_distances(
            build_random_bad_instance(RandomBadInstanceSpec(k))
        )
    out["equal_entries_2_levels"] = _equal_entries(50, 2, 3)
    out["equal_entries_4_levels"] = _equal_entries(90, 4, 4)
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("mode,build", BUILDERS, ids=[m for m, _ in BUILDERS])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_linkage_matches_full_rescan(name, mode, build):
    dist = INPUTS[name]
    got = build(dist)
    want = _reference_agglomerate(dist, mode)
    assert got.root == want.root
    assert got.nodes == want.nodes


def test_linkage_matches_full_rescan_on_drawn_tie_heavy_matrices():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, 24))
        if draw(st.booleans()):
            # Distances between small-integer points, rounded to one decimal.
            dim = draw(st.integers(1, 3))
            row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
            coords = draw(st.lists(row, min_size=n, max_size=n))
            return DistanceMatrix(np.round(_dist(coords).values, 1))
        # Off-diagonal entries from a few levels, zero included.
        levels = draw(st.integers(1, 3))
        values = draw(st.lists(st.integers(0, levels), min_size=n * n, max_size=n * n))
        upper = np.triu(np.array(values, dtype=np.float64).reshape(n, n), 1)
        return DistanceMatrix(upper + upper.T)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(matrices())
    def check(dist):
        for mode, build in BUILDERS:
            got = build(dist)
            want = _reference_agglomerate(dist, mode)
            assert (got.root, got.nodes) == (want.root, want.nodes), mode

    check()


def _paired(n: int, far: float) -> np.ndarray:
    """Slots (0, 1), (2, 3), ... 1.0 apart, every other pair `far` apart."""
    values = np.full((n, n), far)
    for i in range(0, n - 1, 2):
        values[i, i + 1] = values[i + 1, i] = 1.0
    np.fill_diagonal(values, 0.0)
    return values


def _dead_then_minimum() -> np.ndarray:
    """After (1, 2) merge, row 0's minimum is column 3, just after dead column 2.

    Row 0 first points at 2. Dead column 2 still holds its old score 2.0,
    below the live minimum 3.0 at column 3; live column 1 now scores 3.5.
    """
    values = np.full((6, 6), 9.0)
    for (i, j), d in {(1, 2): 1.0, (0, 2): 2.0, (0, 3): 3.0, (0, 1): 5.0, (3, 4): 4.0}.items():
        values[i, j] = values[j, i] = d
    np.fill_diagonal(values, 0.0)
    return values


# Matrices whose average-linkage sums overflow, so that rows hold only
# inf live scores beside dead columns, and matrices with a row minimum
# just after a dead column.
SLICE_INPUTS = {
    "overflow_pairs_8": _paired(8, 1e308),
    "overflow_pairs_9": _paired(9, 1e308),
    "overflow_half": np.where(np.arange(10)[:, None] < 5, _paired(10, 1e308), _paired(10, 7.0)),
    "dead_then_minimum": _dead_then_minimum(),
    "dead_then_minimum_tiled": np.kron(np.ones((3, 3)), _dead_then_minimum()) + 10.0 * (
        np.arange(18)[:, None] // 6 != np.arange(18) // 6
    ),
}


@pytest.mark.parametrize("mode,build", BUILDERS, ids=[m for m, _ in BUILDERS])
@pytest.mark.parametrize("name", sorted(SLICE_INPUTS))
def test_linkage_matches_full_rescan_past_dead_columns(name, mode, build):
    values = np.triu(SLICE_INPUTS[name], 1)
    dist = DistanceMatrix(values + values.T)
    with np.errstate(over="ignore"):
        got = build(dist)
        want = _reference_agglomerate(dist, mode)
    assert (got.root, got.nodes) == (want.root, want.nodes)


def test_average_linkage_survives_overflowing_cluster_sums():
    # Average linkage sums cross distances; at this scale the sums overflow
    # to inf, and the builder must still merge only live clusters. The
    # full-rescan loop merged a dead slot here ("node 1 has two parents").
    values = np.full((4, 4), 1e308)
    np.fill_diagonal(values, 0.0)
    with np.errstate(over="ignore"):
        tree = average_linkage(DistanceMatrix(values))
    assert tree.n_leaves == 4
    assert tree.root == 6
