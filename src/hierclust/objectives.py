"""Objective functions over dendrograms.

Three objectives are evaluated here:

* revenue -- maximization over Euclidean points. A pair (i, j) separated by
  the split S -> (S1, S2) with i in S1, j in S2 earns
  ``min(d(i,j) / delta, 1)`` where ``delta`` is the larger of the two
  distances to the own-side centroids, ``max(d(i, rho(S1)), d(j, rho(S2)))``.
  When delta is zero the pair earns 1 regardless of d(i, j); this is an
  explicit branch, never a float division by zero, and it is what makes
  instances with coincident points behave. Each pair earns at most one unit,
  so n(n-1)/2 bounds any tree's total.

* ckmm -- maximization over dissimilarities: sum of d(i,j) times the number
  of leaves under the pair's least common ancestor.

* dasgupta -- the same sum with similarity weights, minimized.

Revenue has one route per view: `tree_revenue` scores a tree split by
split, and `pair_revenue` scores one pair, the per-pair view. Summed over
every pair of a tree, the per-pair view gives the per-split values to float
accumulation error; the tests hold the split route to that sum.

Every revenue route works on `_unit_scaled` coordinates and takes a side's
radii, each point's distance to its own side's centroid, from one rule,
`_radii`: the row blocks with the side in leaf order; `pair_revenue` and
the subset DP of `brute_force_opt` with it in index order. The batched small
splits apply the same rule through `metricspace`'s sums, bit for bit. The
pairs that `pair_revenue`, the screened row blocks and the batch gather
take their exact distances and revenues from one kernel,
`_gathered_revenues`, and with it the delta = 0 rule of `_pair_revenues`.

Revenue by splits takes one of two routes per split, chosen by the split's
own size. A split whose |S1|*|S2|*dim is at most `_SMALL_SPLIT_ENTRIES`
(8192) is scored with the other small splits of its tree in one batched
array pass (`_small_split_values`), in batches of at most `_BATCH_ENTRIES`
(2^20) pair-coordinate entries; the many small splits of a tree then cost a
few dozen array calls, not a few dozen each. A larger split is scored in row
blocks of its own (`_split_revenue_blocks`). Both routes give the same
per-split values, bit for bit: the batch takes its centroids and per-split
totals from `metricspace`'s `_group_sums` and `_segment_sums`, which sum as
numpy sums one side or one split alone, and both score a pair by
`_pair_revenues`.

The row blocks skip the exact distance of every pair that provably earns 1.
A lower bound on the pair's squared distance, from the two squared norms
and an `np.einsum` dot product less a slack derived from their float error,
certifies the pair when it clears delta^2 (1 + slack); the pair then gets
exactly the 1.0 its exact distance would give, and every other pair is
scored from its exact distance, so the values do not move by a bit. einsum
rather than `@`: it never calls BLAS, whose threads cost more than blocks
this small are worth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Tuple, Union

import numpy as np

from .hiertree import HierTree, Split, _bipartitions, _divide
from .metricspace import (
    ABS_TOL,
    REL_TOL,
    DistanceMatrix,
    PointSet,
    _distance_blocks,
    _group_sums,
    _row_blocks,
    _segment_sums,
    _unit_scaled,
    pairwise_distances,
)

OBJECTIVE_KINDS = ("revenue", "ckmm", "dasgupta")

# A pair is counted toward a point's high-revenue set when it earns at
# least this much; a point is high-revenue when at least half of the
# opposite side is in its high-revenue set.
HIGH_REVENUE_MIN = 0.1


@dataclass(frozen=True)
class ObjectiveReport:
    """A tree's per-split objective values, root-first, with their bound.

    `values[k]` belongs to the k-th split of `tree.split_arrays()`. The
    total and the per-split view are derived from the two, so they always
    agree. For revenue and ckmm `upper_bound` bounds the total from above;
    for dasgupta the field carries the trivial lower bound instead (twice
    the sum of pairwise weights).
    """

    objective_kind: str
    tree: HierTree
    values: Tuple[float, ...]
    upper_bound: float

    def __post_init__(self) -> None:
        if self.objective_kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.objective_kind!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "upper_bound", float(self.upper_bound))
        if len(self.values) != self.tree.n_leaves - 1:
            raise ValueError(
                f"a tree with {self.tree.n_leaves} leaves needs {self.tree.n_leaves - 1}"
                f" per-split values, got {len(self.values)}"
            )
        if self.objective_kind == "revenue":
            total = self.total
            slack = max(ABS_TOL, REL_TOL * max(1.0, abs(total)))
            for (_, l, r), v in zip(self.tree.split_arrays(), self.values):
                if v < -slack or v > len(l) * len(r) + slack:
                    raise ValueError("per-split revenue must lie in [0, |S1||S2|]")
            if total > self.upper_bound + slack:
                raise ValueError("revenue total exceeds the n(n-1)/2 bound")

    @property
    def total(self) -> float:
        """`math.fsum` of `values`."""
        return math.fsum(self.values)

    @property
    def per_split(self) -> Tuple[Tuple[Split, float], ...]:
        """(split, value) pairs, root-first; builds the tree's `Split` objects."""
        return tuple(zip(self.tree.splits(), self.values))

    def to_csv(self) -> str:
        """One row per split (parent/left/right sizes, value) plus a totals row.

        The value column is named after `objective_kind`, so a report file
        says which objective it holds.
        """
        lines = [f"parent_size,left_size,right_size,{self.objective_kind}"]
        for (_, l, r), v in zip(self.tree.split_arrays(), self.values):
            lines.append(f"{len(l) + len(r)},{len(l)},{len(r)},{v!r}")
        lines.append(f"total,,,{self.total!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HighRevenueStats:
    """Classification of the larger side of a split by revenue earned across it."""

    side_a: frozenset
    side_b: frozenset
    high_revenue_points_in_larger: frozenset
    fraction: float

    def __post_init__(self) -> None:
        if len(self.side_a) < len(self.side_b):
            raise ValueError("side_a must be the larger side")
        if not self.high_revenue_points_in_larger <= self.side_a:
            raise ValueError("high-revenue points must come from the larger side")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")


class TriangleDecomposition(NamedTuple):
    triple_sum: float
    pair_term: float
    reconstructed_total: float


# ----------------------------------------------------------------------
# revenue

# A split whose |S1|*|S2|*dim is at most this many entries is scored with
# other small splits of its tree in one batched pass; a larger one in row
# blocks of its own, whose fixed cost per split is then small beside its
# pair work.
_SMALL_SPLIT_ENTRIES = 1 << 13

# Pair-coordinate entries of one batch of small splits: 8 MB of float64.
_BATCH_ENTRIES = 1 << 20


def _radii(pts: np.ndarray) -> np.ndarray:
    """Distance from each row of `pts` to their centroid, in row order.

    The centroid is `pts.mean(axis=0)`, or the first row when every row
    equals it: a side of equal points then sits exactly on its centroid,
    so its radii are exactly 0, whatever rounding would make of the mean of
    several copies of one value. Every revenue route takes a side's radii
    from here, or (the batched small splits) from the same arithmetic.
    """
    c = pts[0] if (pts == pts[0]).all() else pts.mean(axis=0)
    return np.sqrt(((pts - c) ** 2).sum(axis=1))


def _pair_revenues(dist: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """min(dist / delta, 1) elementwise, or 1 where delta is 0: the revenue of split pairs.

    `dist` holds pair distances and `delta` the larger of each pair's two
    distances to its own side's centroid, in the shape of the result.
    """
    zero = delta == 0.0
    out = dist / np.where(zero, 1.0, delta)
    np.minimum(out, 1.0, out=out)
    np.copyto(out, 1.0, where=zero)
    return out


def pair_revenue(
    points: PointSet,
    left_set: Iterable[int],
    right_set: Iterable[int],
    i: int,
    j: int,
) -> float:
    """Revenue earned by the pair (i, j) split across (left_set, right_set).

    The pair is scored on `_unit_scaled` coordinates with each side's radii
    from `_radii` in index order, by `_gathered_revenues`; so coordinates
    scaled by a power of two give the same bits, huge and tiny ones too.
    """
    split = Split(left_set, right_set)
    if i not in split.left_set:
        raise ValueError(f"point {i} is not in the left side")
    if j not in split.right_set:
        raise ValueError(f"point {j} is not in the right side")
    coords = _unit_scaled(points.coords)
    l, r = sorted(split.left_set), sorted(split.right_set)
    delta = np.maximum(_radii(coords[l])[[l.index(i)]], _radii(coords[r])[[r.index(j)]])
    return float(_gathered_revenues(coords[[i]], coords[[j]], delta)[0])


def _gathered_revenues(a: np.ndarray, b: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Revenue of the pairs (a[k], b[k]) with radii `delta[k]`, from their exact distances.

    numpy sums each contiguous row of the (K, dim) squared differences in
    the order `metricspace._plane_distances` adds its planes, so every
    distance has the bits `_distance_blocks` gives it. `a` is overwritten.
    """
    a -= b
    a *= a
    return _pair_revenues(np.sqrt(a.sum(axis=1)), delta)


def _split_revenue_blocks(
    coords: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Iterator[np.ndarray]:
    """Revenue of every (left x right) pair of one split, one row block of `left` at a time.

    The blocks are `metricspace._row_blocks`, as `_distance_blocks` lays
    them out, and every value has the bits of `_pair_revenues` on the
    block's exact distances. With two or more coordinates, pairs that
    provably earn 1 skip the exact distance.

    The screen. A pair earns exactly 1.0 iff delta = 0 or fl(sqrt(s)) >=
    delta, where s is numpy's sum of the pair's squared differences: if
    d < delta then d / delta <= 1 - 2^-53. As delta is a float and the
    square root is correctly rounded, fl(sqrt(s)) >= delta whenever s >=
    delta^2 in exact arithmetic. Each row block bounds every pair's squared
    distance from below by

        low = fl(a_x + a_y) - <x, 2y>,   a_x = fl(||x||^2 (1 - slack)),

    and gives 1.0 to a pair with low >= fl(delta^2 (1 + slack) + 2^-1000),
    where slack = 8(m + 8)u, m = dim and u = 2^-53; every other pair gets
    `_gathered_revenues`. With D^2 the exact squared distance and A =
    ||x||^2 + ||y||^2, that is sound because the rows are unit-scaled
    (`_unit_scaled`: every |entry| < 1, so nothing overflows) and m u is
    far below 2^-10:

    * Float sums of m nonnegative terms, in any order, lose at most a
      factor (1 - u) per operation, and a square underflows by at most
      2^-1075; so s >= (1 - (m + 2)u) D^2 - m 2^-1075.
    * The norms and the einsum dot product are each within about m u A +
      m 2^-1074 of their exact values (Higham, "Accuracy and Stability of
      Numerical Algorithms", ch. 3, gamma_m; |x_k y_k| <= (x_k^2 + y_k^2)
      / 2), and the float operations of `low` add about 3u A more. The
      (1 - slack) factors take (8m + 64)u A away, more than all of it, so
      low <= D^2 + m 2^-1071.
    * The threshold's own rounding leaves it at least delta^2 (1 + slack)
      (1 - 3u) + 2^-1001. So a certified pair has D^2 >= delta^2 (1 +
      (8m + 60)u) + 2^-1002, hence s >= delta^2: (1 - (m + 2)u)(1 + (8m +
      60)u) >= 1, and 2^-1002 outweighs every m 2^-1075.

    Pairs near the threshold take the exact path, so no value moves by a
    bit; the screen only skips the dim-long difference of the pairs it
    certifies, as Elkan ("Using the triangle inequality to accelerate
    k-means", 2003) skips exact distances that a bound settles. The dot
    products go through `np.einsum`, which never calls BLAS: a threaded
    dgemm on blocks this small costs far more than it saves.
    """
    pl = coords[left]
    pr = coords[right]
    dl = _radii(pl)
    dr = _radii(pr)
    if coords.shape[1] == 1:
        # One coordinate: the exact distance is one subtraction, no dearer
        # than the bound, so the screen saves little where it certifies and
        # costs a gather where it does not. On a 2000x1 random tree, where
        # half the row-block pairs miss the bound, the screen took 1.4x the
        # exact block's time (BENCH_revenue_screen.json).
        for s, cross in _distance_blocks(pl, pr):
            yield _pair_revenues(cross, np.maximum(dl[s : s + len(cross), None], dr[None, :]))
        return
    slack = 8 * (coords.shape[1] + 8) * 2.0**-53
    al = (pl * pl).sum(axis=1) * (1 - slack)
    ar = (pr * pr).sum(axis=1) * (1 - slack)
    tl = dl * dl * (1 + slack) + 2.0**-1000
    tr = dr * dr * (1 + slack) + 2.0**-1000
    twice = 2.0 * pr
    for rows in _row_blocks(len(pl), len(pr) * pl.shape[1]):
        low = al[rows, None] + ar[None, :]
        low -= np.einsum("ik,jk->ij", pl[rows], twice)
        # The threshold grows with delta, so passing both sides' thresholds
        # is passing the threshold of the larger radius.
        sure = low >= tl[rows, None]
        sure &= low >= tr[None, :]
        pending = np.flatnonzero(~sure)
        rev = low  # the bound is spent; its buffer takes the revenues
        rev.fill(1.0)
        # An eighth of the block's pairs at a time keeps the two gathered
        # (pairs, dim) arrays within a quarter of a row block.
        step = max(1, rev.size // 8)
        for k in range(0, len(pending), step):
            flat = pending[k : k + step]
            i, j = np.divmod(flat, len(pr))
            i += rows.start
            delta = np.maximum(dl.take(i), dr.take(j))
            np.put(rev, flat, _gathered_revenues(pl.take(i, axis=0), pr.take(j, axis=0), delta))
        yield rev


def _small_split_values(
    coords: np.ndarray, splits: List[Tuple[np.ndarray, np.ndarray]]
) -> List[float]:
    """Revenue of each (left, right) split in `splits`, all in one array pass.

    Every value equals the sum of `_split_revenue_blocks` over that split,
    bit for bit. The sides' points are laid end to end in split order, and
    `_group_sums` gives every side's column sums, whose quotient by the side
    length is its `mean(axis=0)`. The pairs are laid split by split, each
    split's pairs row-major as `_split_revenue_blocks` yields them, and
    `_segment_sums` gives each split's `rev.sum()`.
    """
    sides = [side for split in splits for side in split]
    length = np.array([len(x) for x in sides])
    head = np.cumsum(length) - length
    pts = coords[np.concatenate(sides)]
    centroid = _group_sums(pts, np.repeat(np.arange(len(sides)), length), len(sides))
    centroid /= length[:, None]
    # A side of equal points is its own centroid, as in `_radii`.
    same = (pts == np.repeat(pts[head], length, axis=0)).all(axis=1)
    equal = np.logical_and.reduceat(same, head)
    centroid[equal] = pts[head[equal]]
    radius = np.sqrt(((pts - np.repeat(centroid, length, axis=0)) ** 2).sum(axis=1))
    width = length[1::2]
    count = length[0::2] * width
    split = np.repeat(np.arange(len(splits)), count)
    t = np.arange(len(split)) - np.repeat(np.cumsum(count) - count, count)
    i = head[2 * split] + t // width[split]
    j = head[2 * split + 1] + t % width[split]
    rev = _gathered_revenues(pts[i], pts[j], np.maximum(radius[i], radius[j]))
    return _segment_sums(rev, count).tolist()


def _revenue_values(coords: np.ndarray, tree: HierTree) -> List[float]:
    """Per-split revenue, root-first.

    A split with |S1|*|S2|*dim at most `_SMALL_SPLIT_ENTRIES` joins a batch
    for `_small_split_values`; a batch is scored once its pairs would pass
    `_BATCH_ENTRIES` coordinate entries. Larger splits sum the row blocks
    of `_split_revenue_blocks`.
    """
    dim = coords.shape[1]
    arrays = tree.split_arrays()
    out = [0.0] * len(arrays)
    batches: List[List[int]] = [[]]
    used = 0
    for k, (_, l, r) in enumerate(arrays):
        entries = len(l) * len(r) * dim
        if entries > _SMALL_SPLIT_ENTRIES:
            for rev in _split_revenue_blocks(coords, l, r):
                out[k] += float(rev.sum())
            continue
        if used + entries > _BATCH_ENTRIES:
            batches.append([])
            used = 0
        batches[-1].append(k)
        used += entries
    for batch in filter(None, batches):
        for k, v in zip(batch, _small_split_values(coords, [arrays[k][1:] for k in batch])):
            out[k] = v
    return out


def _check_leaf_count(instance: Union[PointSet, DistanceMatrix], tree: HierTree) -> None:
    if tree.n_leaves != instance.n:
        raise ValueError(f"tree has {tree.n_leaves} leaves but there are {instance.n} points")


def revenue_upper_bound(n: int) -> float:
    """n(n-1)/2, the revenue of a tree earning one unit from every pair."""
    if n < 1:
        raise ValueError("n must be positive")
    return float(n * (n - 1) // 2)


def tree_revenue(points: PointSet, tree: HierTree) -> ObjectiveReport:
    """Total revenue of a tree, split by split.

    Each split's pairs are scored as arrays. Splits with |S1|*|S2|*dim at
    most 8192 entries are scored together, in batches of at most 2^20
    pair-coordinate entries: the sides of all of them laid end to end in
    split order, one centroid pass over all the sides, one distance and
    revenue pass over all their pairs laid split-major and row-major, and
    one pass that sums each split's pairs. Each larger split is scored alone
    in row blocks. The two layouts give every split the same value, bit for
    bit. In the row blocks a pair whose squared distance is provably at
    least delta^2 earns 1 without its exact distance (a lower bound from
    norms and an einsum dot product, never BLAS), which changes no bit of
    any value. Summing `pair_revenue` over each split's pairs gives the same
    values to float accumulation error.

    A side whose points are all equal has that point as its centroid, so its
    radii are exactly 0; a pair between two such sides earns 1.

    The report holds the tree and its per-split values, root-first; it
    builds no `Split` until its `per_split` is read.
    """
    _check_leaf_count(points, tree)
    values = _revenue_values(_unit_scaled(points.coords), tree)
    return ObjectiveReport("revenue", tree, values, revenue_upper_bound(points.n))


def high_revenue_stats(
    points: PointSet, left_set: Iterable[int], right_set: Iterable[int]
) -> HighRevenueStats:
    """Classify the larger side's points by the revenue they earn across the split.

    A point of the larger side A is high-revenue when it earns at least
    `HIGH_REVENUE_MIN` against at least half of the smaller side B. Sides
    are re-oriented internally so A is always the larger (ties keep the
    caller's left side as A).
    """
    split = Split(left_set, right_set)
    left, right = sorted(split.left_set), sorted(split.right_set)
    if len(left) >= len(right):
        a, b = left, right
    else:
        a, b = right, left
    blocks = _split_revenue_blocks(
        _unit_scaled(points.coords), np.array(a, dtype=np.intp), np.array(b, dtype=np.intp)
    )
    counts = np.concatenate([(rev >= HIGH_REVENUE_MIN).sum(axis=1) for rev in blocks])
    high = frozenset(int(a[k]) for k in range(len(a)) if 2 * int(counts[k]) >= len(b))
    return HighRevenueStats(
        side_a=frozenset(a),
        side_b=frozenset(b),
        high_revenue_points_in_larger=high,
        fraction=len(high) / len(a),
    )


# ----------------------------------------------------------------------
# leaf-count-weighted objectives (ckmm / dasgupta)


def _lca_weighted_values(values: np.ndarray, tree: HierTree) -> List[float]:
    out = []
    for _, l, r in tree.split_arrays():
        size = len(l) + len(r)
        out.append(size * float(values[np.ix_(l, r)].sum()))
    return out


def ckmm_value(dist: DistanceMatrix, tree: HierTree) -> ObjectiveReport:
    """Sum over pairs of d(i,j) times the pair's LCA leaf count (maximized).

    The reported upper bound is the sum of n * d(p, q) over pairs, since no
    LCA holds more than all n leaves.
    """
    _check_leaf_count(dist, tree)
    values = _lca_weighted_values(dist.values, tree)
    return ObjectiveReport("ckmm", tree, values, dist.n * float(dist.values.sum()) / 2.0)


def dasgupta_cost(weights: DistanceMatrix, tree: HierTree) -> ObjectiveReport:
    """Same arithmetic as ckmm_value with similarity weights, minimized.

    The `upper_bound` field carries the trivial lower bound instead: twice
    the sum of pairwise weights (every LCA holds at least two leaves).
    """
    _check_leaf_count(weights, tree)
    values = _lca_weighted_values(weights.values, tree)
    return ObjectiveReport("dasgupta", tree, values, float(weights.values.sum()))


def triangle_decompose(
    matrix: DistanceMatrix, tree: HierTree
) -> TriangleDecomposition:
    """Regroup the LCA-weighted sum into per-triangle terms plus a pair term.

    For each unordered triple one pair stays together strictly deepest; the
    triangle contributes the two cross values involving the point separated
    first. Adding twice the sum of all pairwise values reconstructs the
    ckmm / dasgupta total exactly.
    """
    _check_leaf_count(matrix, tree)
    n = matrix.n
    if n < 3:
        raise ValueError("triangle decomposition needs at least three points")
    d = matrix.values.tolist()
    sizes = [len(l) + len(r) for _, l, r in tree.split_arrays()]
    c = np.array(sizes + [0])[tree._split_index()].tolist()
    terms = []
    for i, j, k in itertools.combinations(range(n), 3):
        cij, cik, cjk = c[i][j], c[i][k], c[j][k]
        if cij < cik:
            terms.append(d[i][k] + d[j][k])
        elif cik < cjk:
            terms.append(d[i][j] + d[j][k])
        else:
            terms.append(d[i][j] + d[i][k])
    triple_sum = math.fsum(terms)
    pair_term = float(matrix.values.sum())
    return TriangleDecomposition(triple_sum, pair_term, triple_sum + pair_term)


# ----------------------------------------------------------------------
# exact optimum

# The largest n `brute_force_opt` and the `enumerate-opt` command serve,
# for a budget of one second per call. On 2 vCPUs the subset DP takes
# 0.4-0.6 s for revenue at n = 12 (3 to 1000 coordinates; the subset radii
# 0.1-0.18 s of it) and 0.1-0.15 s for ckmm and dasgupta; n = 13 takes
# 1.4-1.6 s for revenue.
OPT_MAX_N = 12


def _subset_radii(coords: np.ndarray) -> np.ndarray:
    """out[S, i]: distance from point i to the centroid of the subset with bitmask S.

    Each subset's row is `_radii` of its points in index order, the order
    in which `pair_revenue` takes a side, so a subset of equal points has
    radii exactly 0. Row 0 and the entries of points outside S are never
    read.
    """
    n = len(coords)
    out = np.zeros((1 << n, n))
    bit = 1 << np.arange(n)
    for mask in range(1, 1 << n):
        ids = np.flatnonzero(mask & bit)
        out[mask, ids] = _radii(coords[ids])
    return out


def brute_force_opt(
    instance: Union[PointSet, DistanceMatrix], objective_kind: str
) -> Tuple[HierTree, float]:
    """Exact optimum over every tree topology, by dynamic programming over subsets.

    Revenue takes a PointSet; ckmm and dasgupta take a DistanceMatrix.
    Maximizes revenue and ckmm, minimizes dasgupta. Each objective is a sum
    over splits of a value that depends only on the split's two sides, so

        OPT(S) = best over bipartitions (S1, S2) of S of
                 value(S1, S2) + OPT(S1) + OPT(S2),   OPT({i}) = 0.

    Every subset of two or more points is solved once, from smaller ones,
    with all its bipartitions scored as one array pass: (3^n - 2^(n+1) + 1)/2
    split values in all, in place of (2n-3)!! trees of n-1 splits each.
    n is capped at `OPT_MAX_N`. Revenue takes every subset's radii from
    `_subset_radii`, `_radii` of the subset in index order.

    Ties: S1 always holds the lowest index of S, and a subset's bipartitions
    are visited in increasing order of the bitmask of S1 (bit i for point
    i); a later bipartition replaces the current best only when its sum is
    strictly better. The returned value is not the DP's running sum but the
    `.total` of the report that `tree_revenue`, `ckmm_value` or
    `dasgupta_cost` gives for the returned tree.
    """
    if objective_kind not in OBJECTIVE_KINDS:
        raise ValueError(f"unknown objective kind {objective_kind!r}")
    if objective_kind == "revenue":
        if not isinstance(instance, PointSet):
            raise TypeError("revenue optimization needs a PointSet")
    elif not isinstance(instance, DistanceMatrix):
        raise TypeError(f"{objective_kind} optimization needs a DistanceMatrix")
    n = instance.n
    if n > OPT_MAX_N:
        raise ValueError(f"brute_force_opt is capped at n = {OPT_MAX_N}")
    if isinstance(instance, PointSet):
        coords = _unit_scaled(instance.coords)
        radii = _subset_radii(coords)
        dist = pairwise_distances(PointSet(coords)).values

        def split_values(ids, left, left_mask, right_mask):
            # The arithmetic of `_split_revenue_blocks`, for every bipartition at once.
            r = radii[np.where(left, left_mask[:, None], right_mask[:, None]), ids]
            delta = np.maximum(r[:, :, None], r[:, None, :])
            rev = _pair_revenues(dist[np.ix_(ids, ids)], delta)
            return (rev * (left[:, :, None] & ~left[:, None, :])).sum(axis=(1, 2))

        score = tree_revenue
    else:
        weights = instance.values

        def split_values(ids, left, left_mask, right_mask):
            cross = (left @ weights[np.ix_(ids, ids)]) * ~left
            return len(ids) * cross.sum(axis=1)

        score = ckmm_value if objective_kind == "ckmm" else dasgupta_cost
    pick = np.argmin if objective_kind == "dasgupta" else np.argmax
    bit = 1 << np.arange(n, dtype=np.int64)
    sides = {}
    opt = np.zeros(1 << n)
    choice = [0] * (1 << n)
    for mask in range(3, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        ids = np.flatnonzero(mask & bit)
        k = len(ids)
        if k not in sides:
            sides[k] = _bipartitions(k, 0, (1 << (k - 1)) - 1)
        left = sides[k]
        left_mask = left @ bit[ids]
        right_mask = mask ^ left_mask
        values = split_values(ids, left, left_mask, right_mask)
        totals = values + opt[left_mask] + opt[right_mask]
        best = int(pick(totals))
        opt[mask] = totals[best]
        choice[mask] = int(left_mask[best])

    def expand(mask: int, nid: int):
        if mask & (mask - 1) == 0:
            return mask.bit_length() - 1
        return choice[mask], mask ^ choice[mask]

    tree = HierTree(_divide((1 << n) - 1, expand), 0)
    return tree, score(instance, tree).total
