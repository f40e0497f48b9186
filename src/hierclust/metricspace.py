"""Euclidean point sets, distance matrices, centroids, and k-means cost primitives.

Everything downstream (objectives, tree builders, ground-truth instances)
works on the two containers defined here: an (n, dim) coordinate array and an
(n, n) symmetric dissimilarity matrix. Both are immutable after construction
and safe to share across threads. Batched code sums through
`_segment_sums` and `_group_sums`, which add in numpy's own order, so a
batch agrees bit for bit with numpy summing each part alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

# Float comparisons throughout the package: relative 1e-9 with an absolute
# floor because distances and costs can legitimately be exactly zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(a: float, b: float, rel: float = REL_TOL, abs_floor: float = ABS_TOL) -> bool:
    """True when a and b agree within relative `rel` or absolute `abs_floor`."""
    return abs(a - b) <= max(abs_floor, rel * max(abs(a), abs(b)))


@dataclass(frozen=True)
class PointSet:
    """Points in Euclidean space as an (n, dim) float64 array, indexed 0..n-1.

    Coincident points are allowed; several constructions rely on them.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"coords must be a 2-D (n, dim) array, got shape {arr.shape}")
        n, dim = arr.shape
        if n < 1:
            raise ValueError("a PointSet needs at least one point")
        if dim < 1:
            raise ValueError("points need at least one coordinate")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return int(self.coords.shape[0])

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    def point(self, i: int) -> np.ndarray:
        return self.coords[i]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative pairwise values with a zero diagonal.

    The same container carries metric dissimilarities d(i, j) and, when the
    caller says so, similarity weights for the minimization objective; the
    semantics are the caller's to flag, the shape constraints are identical.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"values must be a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix must cover at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("entries must be nonnegative")
        if np.any(np.diagonal(arr) != 0.0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix must be symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class KMeansSolution:
    """A k-way partition of 0..n-1 together with its sum-of-squares cost."""

    parts: tuple[frozenset[int], ...]
    cost: float

    def __post_init__(self) -> None:
        parts = tuple(frozenset(int(i) for i in p) for p in self.parts)
        if not parts:
            raise ValueError("at least one part required")
        if any(not p for p in parts):
            raise ValueError("parts must be nonempty")
        total = sum(len(p) for p in parts)
        union = frozenset().union(*parts)
        if len(union) != total:
            raise ValueError("parts must be disjoint")
        if union != frozenset(range(total)):
            raise ValueError("parts must cover exactly the indices 0..n-1")
        if not (self.cost >= 0.0):
            raise ValueError("cost must be nonnegative")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "cost", float(self.cost))

    @classmethod
    def from_parts(cls, points: PointSet, parts: Sequence[Iterable[int]]) -> "KMeansSolution":
        """Build a solution with the cost recomputed from the points."""
        sets = tuple(frozenset(int(i) for i in p) for p in parts)
        return cls(sets, kmeans_cost(points, sets))

    def verify_cost(self, points: PointSet) -> bool:
        """Check the stored cost against a fresh recomputation."""
        return close(self.cost, kmeans_cost(points, self.parts))


def _index_array(indexset: Iterable[int], n: int, what: str = "index set") -> np.ndarray:
    ids = np.array(sorted(int(i) for i in indexset), dtype=np.intp)
    if ids.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if len(np.unique(ids)) != ids.size:
        raise ValueError(f"{what} contains duplicate indices")
    if ids[0] < 0 or ids[-1] >= n:
        raise IndexError(f"{what} has indices outside 0..{n - 1}")
    return ids


def distance(points: PointSet, i: int, j: int) -> float:
    """Euclidean distance between points i and j."""
    n = points.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"point index out of range for n={n}")
    diff = points.coords[i] - points.coords[j]
    return float(np.sqrt((diff * diff).sum()))


def centroid(points: PointSet, indexset: Iterable[int]) -> np.ndarray:
    """Component-wise mean of the selected points."""
    ids = _index_array(indexset, points.n)
    return points.coords[ids].mean(axis=0)


def _one_means_cost(coords: np.ndarray, ids: np.ndarray) -> float:
    pts = coords[ids]
    c = pts.mean(axis=0)
    d = pts - c
    return float((d * d).sum())


def kmeans_cost(points: PointSet, parts: Sequence[Iterable[int]]) -> float:
    """Sum over parts of squared distances to the part centroid.

    `parts` must partition 0..n-1; overlapping or incomplete parts raise.
    """
    n = points.n
    arrays = [_index_array(p, n, "part") for p in parts]
    merged = np.concatenate(arrays)
    if merged.size != n or not np.array_equal(np.sort(merged), np.arange(n)):
        raise ValueError("parts must form a partition of 0..n-1")
    return float(sum(_one_means_cost(points.coords, ids) for ids in arrays))


def _unit_exponent(coords: np.ndarray) -> int:
    """The e with the largest magnitude in `coords` in [2^(e-1), 2^e); 0 when all are 0."""
    return math.frexp(max(float(coords.max()), -float(coords.min())))[1]


def _unit_scaled(coords: np.ndarray) -> np.ndarray:
    """`coords` times the power of two that brings the largest magnitude into [0.5, 1).

    Revenue and 2-means splits are scale-invariant and the scale is exact,
    so normal inputs keep every bit, while tiny or huge ones no longer
    square to 0 or inf.
    """
    exponent = _unit_exponent(coords)
    return coords if exponent == 0 else np.ldexp(coords, -exponent)


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """out[k]: numpy's own `.sum()` of the k-th of consecutive segments of 1-D `values`.

    Segment k holds lengths[k] entries, and an empty one sums to 0.0. numpy
    sums a contiguous run pairwise, starting from 0.0, and np.add.reduceat
    over a segment that starts with 0.0 adds the same; so a 0.0 goes in
    front of every segment and one reduceat sums them all.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    heads = np.cumsum(lengths) - lengths
    return np.add.reduceat(np.insert(values, heads, 0.0), heads + np.arange(len(lengths)))


def _group_sums(rows: np.ndarray, group: np.ndarray, n: int) -> np.ndarray:
    """out[g]: numpy's own `rows[group == g].sum(axis=0)` for each g < n.

    `group` holds a value in 0..n for each row of the (N, dim) `rows`; rows
    of group n are left out. numpy sums the rows of two or more columns one
    after another, starting from 0.0, and np.bincount adds its weights to
    their bins the same way, so one weighted bincount sums every (group,
    column). A single column is summed pairwise instead: its rows are laid
    out group by group, in order, for `_segment_sums`.
    """
    dim = rows.shape[1]
    if dim == 1:
        order = np.argsort(group, kind="stable")
        lengths = np.bincount(group, minlength=n + 1)[:n]
        return _segment_sums(rows[order[: lengths.sum()], 0], lengths)[:, None]
    bins = (group[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(bins, rows.ravel(), (n + 1) * dim)[: n * dim].reshape(n, dim)


# Entries of one temporary of a blocked array pass: about 32 MB of float64.
_BLOCK_ENTRIES = 4_000_000


def _distance_blocks(a: np.ndarray, b: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (first_row, block): Euclidean distances from a row block of `a` to every row of `b`.

    Row blocks cap the (rows, len(b), dim) difference temporary at
    `_BLOCK_ENTRIES` whatever the sizes; one block for all of `a` takes
    gigabytes on a few thousand points or a wide ultrametric embedding. The
    difference is one expression, so no name holds it across the yield.
    """
    step = max(1, _BLOCK_ENTRIES // max(1, len(b) * a.shape[1]))
    for s in range(0, len(a), step):
        yield s, np.sqrt(((a[s : s + step, None, :] - b[None, :, :]) ** 2).sum(axis=2))


# Rows of one block of the upper triangle in `pairwise_distances`. The part
# of a block below the diagonal is computed twice, so short blocks keep the
# work near n(n-1)/2 pairs.
_TRIANGLE_ROWS = 64


def pairwise_distances(points: PointSet) -> DistanceMatrix:
    """Full symmetric matrix of Euclidean distances.

    Each unordered pair is computed once: the upper triangle in row blocks
    of `_distance_blocks`, then mirrored. A pair's squared differences are
    the same floats in either order, so the matrix equals the one a full
    computation gives, bit for bit.
    """
    coords = points.coords
    n = points.n
    out = np.empty((n, n), dtype=np.float64)
    for s in range(0, n, _TRIANGLE_ROWS):
        e = min(s + _TRIANGLE_ROWS, n)
        for r, block in _distance_blocks(coords[s:e], coords[s:]):
            out[s + r : s + r + len(block), s:] = block
        out[s:e, :s] = out[:s, s:e].T
    return DistanceMatrix(out)


def _first_violation(
    v: np.ndarray, combine: np.ufunc, tol: float
) -> Optional[tuple[int, int, int]]:
    """First triple in (x, y, z) order that breaks an inequality on symmetric `v`.

    (x, y, z) breaks it when x < y, z is neither of them, and
    v[x, y] > combine(v[x, z], v[y, z]) + tol. None when no triple does.
    One (y, z) plane per x, so the scan stops at the first x with a violation.
    """
    for x in range(len(v)):
        bad = v[x, :, None] > combine(v[x], v) + tol  # bad[y, z]
        bad[: x + 1] = False
        bad[:, x] = False
        np.fill_diagonal(bad, False)
        if bad.any():
            y, z = np.argwhere(bad)[0].tolist()
            return x, y, z
    return None


def check_metric(
    matrix: DistanceMatrix, tol: float = REL_TOL
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Test the triangle inequality on every triple.

    Returns (True, None) when d(i,k) <= d(i,j) + d(j,k) + tol holds for all
    triples, else (False, (i, j, k)) for the lexicographically first
    violation, ordered by (i, k, j).

    The matrix is symmetric and float addition commutes, so (k, i, j)
    violates whenever (i, k, j) does, and the first violation has i < k.
    """
    found = _first_violation(matrix.values, np.add, tol)
    if found is None:
        return True, None
    i, k, j = found
    return False, (i, j, k)
