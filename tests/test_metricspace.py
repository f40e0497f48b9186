import itertools

import numpy as np
import pytest

from hierclust import (
    DistanceMatrix,
    PointSet,
    centroid,
    check_metric,
    distance,
    kmeans_cost,
    pairwise_distances,
)
from hierclust import metricspace
from hierclust.metricspace import (
    _BLOCK_ENTRIES,
    _SYMMETRY_ROWS,
    _TRIANGLE_ROWS,
    _distance_blocks,
    _group_sums,
    _row_blocks,
    _segment_sums,
    close,
)


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
        assert not dm.values.flags.writeable


def _full_distances(coords):
    """Every ordered pair from `_distance_blocks`, as the matrix was computed before mirroring."""
    out = np.empty((len(coords), len(coords)))
    for s, block in _distance_blocks(coords, coords):
        out[s : s + len(block)] = block
    return out


@pytest.mark.parametrize(
    "na,nb,dim", [(1, 1, 1), (5000, 1000, 1), (2000, 2000, 1), (300, 300, 1022), (10, 5000, 1000)]
)
def test_row_blocks_tile_the_rows_within_the_entry_cap(na, nb, dim):
    # Equal blocks of as many rows as fit `_BLOCK_ENTRIES` (at least one),
    # the last one shorter; `_distance_blocks` yields exactly these blocks.
    a, b = np.broadcast_to(0.0, (na, dim)), np.broadcast_to(0.0, (nb, dim))
    blocks = list(_row_blocks(na, nb * dim))
    step = max(1, _BLOCK_ENTRIES // (nb * dim))
    assert [r.start for r in blocks] == list(range(0, na, step))
    assert [len(a[r]) for r in blocks][:-1] == [step] * (len(blocks) - 1)
    assert step == 1 or step * nb * dim <= _BLOCK_ENTRIES
    if na * nb * dim <= 4 * _BLOCK_ENTRIES:
        got = [(s, len(block)) for s, block in _distance_blocks(a, b)]
        assert got == [(r.start, len(a[r])) for r in blocks]


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


def _numpy_distances(a, b):
    """numpy's own broadcast expression: the bits every distance kernel must give."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def _blocked(a, b):
    out = np.empty((len(a), len(b)))
    for s, block in _distance_blocks(a, b):
        out[s : s + len(block)] = block
    return out


# Both sides of numpy's 8 lanes, its 128-term blocks and its halvings.
ORACLE_DIMS = [*range(1, 10), 15, 16, 17, 31, 32, 33, 127, 128, 129, 255, 256, 257, 1022]


def _oracle_cases(n, dim):
    g = np.random.default_rng(dim)
    x = g.standard_normal((n, dim))
    signed_zeros = np.where(g.random((n, dim)) < 0.5, -0.0, 0.0)
    signed_zeros[g.random((n, dim)) < 0.3] = 1.5
    return {
        "gaussian": x,
        "coincident": x[np.arange(n) % 3],
        "signed_zeros": signed_zeros,
        "times_2^600": np.ldexp(x, 600),  # squares overflow to inf
        "times_2^-600": np.ldexp(x, -600),  # squares underflow to 0
        "subnormal_squares": np.ldexp(x, -530),
    }


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_distances_match_numpy_expression(dim, monkeypatch):
    # `pairwise_distances` and `_distance_blocks` add coordinate planes in
    # numpy's summation order; here they meet numpy's own expression, not
    # each other. Row counts straddle `_TRIANGLE_ROWS`.
    n = _TRIANGLE_ROWS + 3
    for name, coords in _oracle_cases(n, dim).items():
        a, b = coords, coords[: n - 22]
        with np.errstate(over="ignore"):
            want = _hex(_numpy_distances(a, b))
            assert _hex(_blocked(a, b)) == want, name
            # Blocks of 5 rows, the last one of 2.
            monkeypatch.setattr(metricspace, "_BLOCK_ENTRIES", 5 * len(b) * dim)
            assert _hex(_blocked(a, b)) == want, name
            monkeypatch.undo()
        if name == "times_2^600":
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                pairwise_distances(PointSet(coords))
            continue
        for m in (1, 3, n):
            got = pairwise_distances(PointSet(coords[:m])).values
            assert _hex(got) == _hex(_numpy_distances(coords[:m], coords[:m])), (name, m)
    if dim <= 9:
        # Many triangle blocks, the last one partial.
        x = np.random.default_rng(dim).standard_normal((9 * _TRIANGLE_ROWS + 5, dim))
        assert _hex(pairwise_distances(PointSet(x)).values) == _hex(_numpy_distances(x, x))


def test_distances_match_numpy_expression_on_drawn_points():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra import numpy as hnp

    # Squares of 1e100 and sums of a few hundred of them stay finite.
    finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)

    @st.composite
    def point_pairs(draw):
        dim = draw(st.sampled_from([1, 2, 7, 8, 9, 16, 17, 40, 129, 200]))
        a = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), dim), elements=finite))
        b = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), dim), elements=finite))
        return a, b

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(point_pairs())
    def check(pair):
        a, b = pair
        assert _hex(_blocked(a, b)) == _hex(_numpy_distances(a, b))
        got = pairwise_distances(PointSet(a)).values
        assert _hex(got) == _hex(_numpy_distances(a, a))

    check()


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
    # The symmetry check runs in stripes of `_SYMMETRY_ROWS` rows; one
    # asymmetric entry is caught at the far corner, on both sides of a
    # stripe boundary and inside the last, partial stripe.
    w = _SYMMETRY_ROWS
    for n in (1, 2, w - 1, w, w + 1, 600):
        a = np.random.default_rng(n).random((n, n))
        values = a + a.T
        np.fill_diagonal(values, 0.0)
        assert DistanceMatrix(values).n == n
        assert DistanceMatrix._adopt(values.copy()).n == n
        last = (n - 1) // w * w  # the first row of the last stripe
        cells = {(0, n - 1), (w - 1, w), (w - 2, w + 1), (last, n - 1), (n - 2, n - 1)}
        for i, j in sorted(c for c in cells if 0 <= c[0] < c[1] < n):
            for x, y in ((i, j), (j, i)):
                bad = values.copy()
                bad[x, y] = np.nextafter(bad[x, y], 2.0)
                with pytest.raises(ValueError, match="symmetric"):
                    DistanceMatrix(bad)
                with pytest.raises(ValueError, match="symmetric"):
                    DistanceMatrix._adopt(bad)


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
