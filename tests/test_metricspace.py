import itertools

import numpy as np
import pytest

from hierclust import (
    DistanceMatrix,
    KMeansSolution,
    PointSet,
    centroid,
    check_metric,
    distance,
    kmeans_cost,
    pairwise_distances,
)
from hierclust.metricspace import _distance_blocks, _group_sums, _segment_sums, close


def line_points():
    return PointSet([[0.0], [1.0], [5.0]])


# ----------------------------------------------------------------------
# distance


def test_distance_unit_segment():
    ps = PointSet([[0.0], [1.0]])
    assert distance(ps, 0, 1) == 1.0


def test_distance_self_is_zero():
    ps = line_points()
    for i in range(3):
        assert distance(ps, i, i) == 0.0


def test_distance_pythagorean():
    ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert distance(ps, 0, 1) == 5.0


def test_distance_symmetric():
    ps = line_points()
    assert distance(ps, 0, 2) == distance(ps, 2, 0) == 5.0


def test_distance_index_out_of_range():
    ps = line_points()
    with pytest.raises(IndexError):
        distance(ps, 0, 3)
    with pytest.raises(IndexError):
        distance(ps, -1, 0)


# ----------------------------------------------------------------------
# centroid


def test_centroid_singleton_is_the_point():
    ps = line_points()
    assert centroid(ps, {2}).tolist() == [5.0]


def test_centroid_midpoint():
    ps = line_points()
    assert centroid(ps, {0, 1}).tolist() == [0.5]


def test_centroid_square_corners():
    ps = PointSet([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [2.0, 2.0]])
    assert centroid(ps, range(4)).tolist() == [1.0, 1.0]


def test_centroid_empty_set_rejected():
    with pytest.raises(ValueError):
        centroid(line_points(), set())


def test_centroid_minimizes_squared_distances():
    # The mean beats any perturbed center; tries 100 random perturbations.
    g = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        n = int(g.integers(2, 12))
        ps = PointSet(g.standard_normal((n, 3)))
        ids = sorted(g.choice(n, size=int(g.integers(1, n + 1)), replace=False).tolist())
        c = centroid(ps, ids)
        base = float(((ps.coords[ids] - c) ** 2).sum())
        for _ in range(100):
            p = c + g.standard_normal(3) * g.uniform(1e-3, 2.0)
            perturbed = float(((ps.coords[ids] - p) ** 2).sum())
            assert base <= perturbed + 1e-12


# ----------------------------------------------------------------------
# kmeans_cost


def test_kmeans_cost_singletons_zero():
    ps = line_points()
    assert kmeans_cost(ps, [{0}, {1}, {2}]) == 0.0


def test_kmeans_cost_two_points_one_part():
    ps = PointSet([[0.0], [1.0]])
    assert kmeans_cost(ps, [{0, 1}]) == 0.5


def test_kmeans_cost_line_splits():
    ps = line_points()
    assert kmeans_cost(ps, [{0, 1}, {2}]) == 0.5
    assert kmeans_cost(ps, [{0}, {1, 2}]) == 8.0
    # the optimal 2-means split is the first one
    assert kmeans_cost(ps, [{0, 1}, {2}]) < kmeans_cost(ps, [{0}, {1, 2}])


def test_kmeans_cost_rejects_bad_partitions():
    ps = line_points()
    with pytest.raises(ValueError):
        kmeans_cost(ps, [{0, 1}, {1, 2}])
    with pytest.raises(ValueError):
        kmeans_cost(ps, [{0, 1}])
    with pytest.raises(ValueError):
        kmeans_cost(ps, [{0, 1, 2}, set()])


def test_kmeans_cost_translation_invariant():
    g = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        n = int(g.integers(2, 15))
        coords = g.standard_normal((n, 4))
        shift = g.standard_normal(4) * 100.0
        cut = int(g.integers(1, n))
        parts = [set(range(cut)), set(range(cut, n))]
        a = kmeans_cost(PointSet(coords), parts)
        b = kmeans_cost(PointSet(coords + shift), parts)
        assert close(a, b)


# ----------------------------------------------------------------------
# pairwise_distances / check_metric


def test_pairwise_single_point():
    dm = pairwise_distances(PointSet([[3.0, 4.0]]))
    assert dm.values.tolist() == [[0.0]]


def test_pairwise_line_values():
    dm = pairwise_distances(line_points())
    assert dm.values.tolist() == [[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]]


def test_pairwise_output_is_valid_matrix():
    g = np.random.Generator(np.random.PCG64(8))
    for _ in range(10):
        n = int(g.integers(1, 40))
        dm = pairwise_distances(PointSet(g.standard_normal((n, 3)) * 10))
        # DistanceMatrix construction already enforced symmetry etc.
        assert dm.n == n


def _full_distances(coords):
    """Every ordered pair from `_distance_blocks`, as the matrix was computed before mirroring."""
    out = np.empty((len(coords), len(coords)))
    for s, block in _distance_blocks(coords, coords):
        out[s : s + len(block)] = block
    return out


@pytest.mark.parametrize("dim", [1, 7, 8, 33, 129])
@pytest.mark.parametrize("n", [1, 2, 57, 130, 300])
def test_pairwise_triangle_equals_full_computation(n, dim):
    g = np.random.Generator(np.random.PCG64(1000 * n + dim))
    cases = [
        g.standard_normal((n, dim)),
        g.standard_normal((3, dim))[np.arange(n) % 3],  # coincident points
        np.full((n, dim), 0.1),
        g.standard_normal((n, dim)) * 1e150,
    ]
    for coords in cases:
        got = pairwise_distances(PointSet(coords)).values
        assert np.array_equal(got, _full_distances(PointSet(coords).coords))


def test_euclidean_distances_are_metric():
    g = np.random.Generator(np.random.PCG64(13))
    for _ in range(20):
        n = int(g.integers(2, 30))
        dim = int(g.integers(1, 6))
        dm = pairwise_distances(PointSet(g.standard_normal((n, dim))))
        ok, witness = check_metric(dm, tol=1e-9)
        assert ok and witness is None


def test_check_metric_reports_first_violation():
    bad = DistanceMatrix([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    ok, witness = check_metric(bad)
    assert not ok
    assert witness == (0, 2, 1)
    i, j, k = witness
    assert bad.values[i, k] > bad.values[i, j] + bad.values[j, k]


def _loop_first_metric_violation(v, tol):
    """check_metric's witness by a plain loop over (i, k, j), as its docstring orders them."""
    n = len(v)
    for i, k, j in itertools.product(range(n), repeat=3):
        if len({i, j, k}) == 3 and v[i][k] > v[i][j] + v[j][k] + tol:
            return i, j, k
    return None


def _loop_first_ultrametric_violation(v, tol):
    n = len(v)
    for x, y, z in itertools.product(range(n), repeat=3):
        if x < y and z not in (x, y) and v[x][y] > max(v[x][z], v[y][z]) + tol:
            return x, y, z
    return None


def test_triangle_checks_match_a_triple_loop():
    from hierclust import RngStream, check_ultrametric, generate_random

    g = np.random.default_rng(17)
    matrices = []
    for n in (1, 2, 3, 4, 5, 7, 9):
        for _ in range(6):
            # Rounded entries tie and break both inequalities often.
            a = np.round(g.uniform(0.0, 4.0, size=(n, n)))
            matrices.append(np.triu(a, 1) + np.triu(a, 1).T)
        for mode in ("strict", "with_ties"):
            matrices.append(generate_random(n, RngStream(n), mode).induced_matrix().values)
    for values in matrices:
        dm = DistanceMatrix(values)
        v = values.tolist()
        for tol in (-0.5, 0.0, 0.5, 1.0):
            want = _loop_first_metric_violation(v, tol)
            assert check_metric(dm, tol) == (want is None, want)
            want = _loop_first_ultrametric_violation(v, tol)
            assert check_ultrametric(dm, tol) == (want is None, want)


def test_coincident_points_allowed():
    ps = PointSet([[0.0], [0.0], [1.0]])
    dm = pairwise_distances(ps)
    assert dm.values[0, 1] == 0.0
    assert check_metric(dm)[0]


# ----------------------------------------------------------------------
# container validation


def test_pointset_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PointSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        PointSet([1.0, 2.0])
    with pytest.raises(ValueError):
        PointSet([[np.nan]])


def test_pointset_is_read_only():
    ps = line_points()
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 9.0


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrix([[1.0, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        DistanceMatrix([[0.0, -1.0], [-1.0, 0.0]])  # negative


def test_kmeans_solution_invariants():
    ps = line_points()
    sol = KMeansSolution.from_parts(ps, [{0, 1}, {2}])
    assert sol.cost == 0.5
    assert sol.verify_cost(ps)
    with pytest.raises(ValueError):
        KMeansSolution((frozenset({0, 1}), frozenset({1, 2})), 1.0)
    with pytest.raises(ValueError):
        KMeansSolution((frozenset({0, 2}),), 0.0)  # gap: not 0..n-1
    with pytest.raises(ValueError):
        KMeansSolution((frozenset({0}),), -1.0)


# ----------------------------------------------------------------------
# sums in numpy's own order

# Lengths on both sides of numpy's 8-way unrolled loop and its 128-entry
# pairwise blocks.
SEGMENT_LENGTHS = (0, 1, 7, 8, 9, 127, 128, 129, 1000)


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def _numpy_segment_sums(values, lengths):
    heads = np.cumsum(lengths) - lengths
    return [values[h : h + n].sum() for h, n in zip(heads.tolist(), lengths.tolist())]


@pytest.mark.parametrize("seed", range(4))
def test_segment_sums_match_numpy(seed):
    g = np.random.default_rng(seed)
    lengths = g.permutation(np.repeat(SEGMENT_LENGTHS, 2))
    n = int(lengths.sum())
    # Magnitudes from 1e-300 to 1e300, so that every change of order shows.
    values = g.standard_normal(n) * 10.0 ** g.integers(-300, 301, n)
    values[g.random(n) < 0.05] = -0.0
    assert _hex(_segment_sums(values, lengths)) == _hex(_numpy_segment_sums(values, lengths))


def test_segment_sums_of_empty_and_negative_zero_segments():
    values = np.array([-0.0, -0.0, -0.0, 2.5])
    lengths = np.array([0, 3, 0, 1, 0])
    got = _segment_sums(values, lengths)
    assert _hex(got) == _hex(_numpy_segment_sums(values, lengths))
    assert _hex(got) == _hex([0.0, 0.0, 0.0, 2.5, 0.0])
    assert _hex(_segment_sums(np.empty(0), np.array([0, 0]))) == _hex([0.0, 0.0])


@pytest.mark.parametrize("dim", [1, 2, 33])
def test_group_sums_match_numpy(dim):
    g = np.random.default_rng(dim)
    n = 5
    rows = g.standard_normal((1500, dim)) * 10.0 ** g.integers(-50, 51, (1500, 1))
    rows[g.random((1500, dim)) < 0.05] = -0.0
    # Groups interleave; group 3 is empty, and the rows of group n are left out.
    group = g.integers(0, n + 1, 1500)
    group[group == 3] = n
    got = _group_sums(rows, group, n)
    assert got.shape == (n, dim)
    for k in range(n):
        assert _hex(got[k]) == _hex(rows[group == k].sum(axis=0)), k


def test_segment_and_group_sums_match_numpy_on_drawn_values():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra import numpy as hnp

    # At most a few hundred entries of 1e290 cannot overflow.
    finite = st.floats(-1e290, 1e290, allow_nan=False, allow_infinity=False)

    @st.composite
    def segments(draw):
        lengths = np.array(draw(st.lists(st.integers(0, 300), min_size=1, max_size=5)))
        values = draw(hnp.arrays(np.float64, int(lengths.sum()), elements=finite))
        return values, lengths

    @st.composite
    def groups(draw):
        m = draw(st.integers(0, 300))
        n = draw(st.integers(0, 4))
        rows = draw(hnp.arrays(np.float64, (m, draw(st.integers(1, 4))), elements=finite))
        group = draw(hnp.arrays(np.intp, m, elements=st.integers(0, n)))
        return rows, group, n

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(segments(), groups())
    def check(segment_case, group_case):
        values, lengths = segment_case
        got = _segment_sums(values, lengths)
        assert _hex(got) == _hex(_numpy_segment_sums(values, lengths))
        rows, group, n = group_case
        got = _group_sums(rows, group, n)
        assert got.shape == (n, rows.shape[1])
        for k in range(n):
            assert _hex(got[k]) == _hex(rows[group == k].sum(axis=0))

    check()
