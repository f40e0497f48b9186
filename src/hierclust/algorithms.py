"""Tree-construction algorithms.

Four builders, all emitting the same dendrogram type:

* bisecting_kmeans -- divisive; recursively applies a 2-means split, solved
  either exactly (every bipartition enumerated) or by restarted Lloyd
  iterations seeded with k-means++. All restarts of a node run as one
  batched array pass, and each leaves the batch when its own centers stop
  moving. The tolerance scales with the node's diameter, which is bracketed
  in [r, 2r] by the largest distance r from the node's first point and
  computed exactly only when a move falls inside the bracket. A 2-point
  node takes its only split without running Lloyd.
* average_linkage / single_linkage -- agglomerative over a distance matrix,
  merging the pair of clusters with minimum mean / minimum single
  inter-cluster distance. Each row caches its nearest live partner and a
  merge rescans only the rows it touches (Muellner's "generic" algorithm),
  so typical cost is O(n^2) time and one n x n working copy of the matrix.
* random_tree -- divisive baseline assigning each point to a side by an
  independent fair coin at every node.

Every algorithm is deterministic given its seed; randomness flows through
`RngStream`, which keys a PCG64 generator by (seed, substream path) so that
independent uses never share draws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple, Union

import numpy as np

from .hiertree import HierTree, Split, _bipartitions, _divide
from .metricspace import (
    DistanceMatrix,
    PointSet,
    _distance_blocks,
    _index_array,
    _one_means_cost,
    _unit_exponent,
    _unit_scaled,
)


@dataclass(frozen=True)
class RngStream:
    """Reproducible randomness: PCG64 keyed by a seed and a substream path.

    Equal (seed, path) gives identical draws on every platform. substream()
    derives an independent child stream without consuming from the parent;
    generator() returns a fresh generator positioned at the stream's start,
    so each stream should feed one consumer.
    """

    seed: int
    path: Tuple[int, ...] = ()

    def _sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._sequence()))

    def substream(self, *keys: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(k) for k in keys))

    def seed_int(self) -> int:
        """A stable 63-bit integer usable as a derived config seed."""
        return int(self._sequence().generate_state(1, np.uint64)[0] >> np.uint64(1))


@dataclass(frozen=True)
class TwoMeansSolverConfig:
    """How a single 2-means split is solved.

    `exhaustive` enumerates all 2^(m-1) - 1 bipartitions and refuses sets
    larger than `max_exhaustive_n`; `lloyd` runs `lloyd_restarts` k-means++
    seeded Lloyd iterations and keeps the best. A Lloyd restart stops once
    no center moves more than `lloyd_tol` times the current set's exact
    diameter; bounds on the diameter settle most moves, so the exact value
    is computed only when they cannot, and never changes the outcome.
    `max_exhaustive_n` is at most 64, the widest set whose 2^(m-1)
    bipartition masks fit in int64.
    """

    kind: str = "exhaustive"
    max_exhaustive_n: int = 20
    lloyd_restarts: int = 10
    lloyd_max_iters: int = 100
    lloyd_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("exhaustive", "lloyd"):
            raise ValueError(f"solver kind must be 'exhaustive' or 'lloyd', got {self.kind!r}")
        if not 1 <= self.max_exhaustive_n <= 64:
            raise ValueError(f"max_exhaustive_n must be in 1..64, got {self.max_exhaustive_n}")
        if self.lloyd_restarts < 1:
            raise ValueError(f"lloyd_restarts must be at least 1, got {self.lloyd_restarts}")
        if self.lloyd_max_iters < 1:
            raise ValueError(f"lloyd_max_iters must be at least 1, got {self.lloyd_max_iters}")
        if not (self.lloyd_tol >= 0.0 and np.isfinite(self.lloyd_tol)):
            raise ValueError(f"lloyd_tol must be finite and nonnegative, got {self.lloyd_tol}")


# ----------------------------------------------------------------------
# 2-means


# A 2-means solver returns (first side, second side, cost): two ascending
# index arrays, the one holding the smallest index first, when its `ids`
# are ascending.
Sides = Tuple[np.ndarray, np.ndarray, float]


def _ordered_split(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Orient two disjoint sides so the one holding the smallest index comes first."""
    return (a, b) if a.min() < b.min() else (b, a)


def _exhaustive_two_means(coords: np.ndarray, ids: np.ndarray) -> Sides:
    m = len(ids)
    pts = coords[ids]
    # Center the subset first: the sum-of-squares shortcut below would lose
    # precision for data far from the origin.
    q = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", q, q)
    sq_total = float(sq.sum())
    col_total = q.sum(axis=0)

    n_masks = (1 << (m - 1)) - 1
    best_cost = np.inf
    best_side: Tuple[int, ...] = ()
    chunk = 1 << 15
    for start in range(0, n_masks, chunk):
        member = _bipartitions(m, start, min(start + chunk, n_masks))
        cnt1 = member.sum(axis=1)
        cnt2 = m - cnt1
        memf = member.astype(np.float64)
        s1 = memf @ q
        sq1 = memf @ sq
        s2 = col_total - s1
        cost = (
            sq1
            - np.einsum("ij,ij->i", s1, s1) / cnt1
            + (sq_total - sq1)
            - np.einsum("ij,ij->i", s2, s2) / cnt2
        )
        lo = float(cost.min())
        if lo > best_cost:
            continue
        candidates = np.flatnonzero(cost == lo)
        side = min(tuple(ids[member[k]].tolist()) for k in candidates)
        if lo < best_cost or (lo == best_cost and side < best_side):
            best_cost, best_side = lo, side

    side1 = np.array(best_side, dtype=np.intp)
    side2 = np.setdiff1d(ids, side1)
    cost = _one_means_cost(coords, side1) + _one_means_cost(coords, side2)
    return side1, side2, float(cost)


# Entries of one difference or masked-sum temporary in the batched Lloyd
# pass: about 32 MB of float64, the cap `_distance_blocks` uses.
_BATCH_ENTRIES = 4_000_000

# `_move_test` trusts its upper bound 2r only for r in this range. There no
# squared distance up to (2r)^2 overflows, and what a square loses to
# underflow is far below its rounding error; outside it, every move above
# the lower bound computes the exact diameter.
_BRACKET_RANGE = (2.0**-460, 2.0**500)


def _batch_blocks(runs: int, rows: int, width: int) -> Iterator[Tuple[slice, slice]]:
    """Cover (runs x rows) by (restart slice, row slice) blocks, rows inner.

    A block holds at most `_BATCH_ENTRIES` entries at `width` entries per
    (restart, row), or one row when a single row is wider than that.
    """
    row_step = max(1, min(rows, _BATCH_ENTRIES // width))
    run_step = max(1, _BATCH_ENTRIES // (row_step * width))
    for a in range(0, runs, run_step):
        for s in range(0, rows, row_step):
            yield slice(a, a + run_step), slice(s, s + row_step)


def _squared_distances(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """out[r, i, k]: squared distance from pts[i] to centers[r, k].

    Each entry sums its squared differences over the last axis, as one
    (m, k, dim) difference would, so it matches that bit for bit. The
    difference is one expression, so no name holds a block while the next
    one is made.
    """
    runs, k, dim = centers.shape
    out = np.empty((runs, len(pts), k))
    for rs, ss in _batch_blocks(runs, len(pts), k * dim):
        out[rs, ss] = ((pts[None, ss, None, :] - centers[rs, None, :, :]) ** 2).sum(axis=3)
    return out


def _side_centroids(pts: np.ndarray, side: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """out[r, k]: pts[side[r] == k].mean(axis=0), bit for bit; `ones` counts side 1.

    numpy sums the rows of a selection of two or more columns one after
    another. Each block here starts from the running sum (-0.0 at first)
    and holds the block's rows with the other side's rows set to -0.0,
    which leaves every partial sum as it is, so its row-by-row sum is the
    same. A single column is summed pairwise instead, so with dim == 1 each
    side's selection is summed by itself.
    """
    runs, m = side.shape
    dim = pts.shape[1]
    sums = np.full((runs, 2, dim), -0.0)
    if dim == 1:
        for r in range(runs):
            for k in (0, 1):
                sums[r, k] = pts[side[r] == k].sum(axis=0)
    else:
        on_side = side[:, None, :, None] == np.arange(2)[:, None, None]
        for rs, ss in _batch_blocks(runs, m, 2 * dim):
            block = np.empty((len(sums[rs]), 2, 1 + len(pts[ss]), dim))
            block[:, :, 0] = sums[rs]
            block[:, :, 1:] = -0.0
            np.copyto(block[:, :, 1:], pts[ss], where=on_side[rs, :, ss])
            sums[rs] = block.sum(axis=2)
            del block  # freed before the next block is made
    return sums / np.stack([m - ones, ones], axis=1)[:, :, None]


def _move_test(pts: np.ndarray, tol: float) -> Callable[[np.ndarray], np.ndarray]:
    """Return a test of `move <= tol * diameter(pts)` for an array of moves.

    With r the largest distance from the first point, the diameter lies in
    [r, 2r]. r is one of the distances the diameter is the maximum of, so a
    move up to tol * r passes. A move above tol * 2r fails once 2r is
    widened by (dim + 4) * 2^-50, more than twice the relative rounding
    error of a computed distance. Only a move in between computes the exact
    O(m^2 dim) diameter, once per set.
    """
    r = max(float(block.max()) for _, block in _distance_blocks(pts[:1], pts))
    low = tol * r
    if _BRACKET_RANGE[0] <= r <= _BRACKET_RANGE[1]:
        high = tol * (2.0 * r) * (1.0 + (pts.shape[1] + 4) * 2.0**-50)
    else:
        high = np.inf
    diameter = None

    def passes(move: np.ndarray) -> np.ndarray:
        nonlocal diameter
        done = move <= low
        unsure = ~done & (move <= high)
        if unsure.any():
            if diameter is None:
                # The maximum over row blocks is exact: sqrt is monotone.
                diameter = max(float(b.max()) for _, b in _distance_blocks(pts, pts))
            done |= unsure & (move <= tol * diameter)
        return done

    return passes


def _lloyd_two_means(
    coords: np.ndarray, ids: np.ndarray, config: TwoMeansSolverConfig, rng: RngStream
) -> Sides:
    """Best of `lloyd_restarts` k-means++ seeded Lloyd runs, run as one batch.

    Restart r seeds from `rng.substream(r)` and leaves the batch when its
    own move test passes; the first restart with the lowest cost wins.
    Splits and costs are bit for bit those of running each restart alone.
    Restart and row blocks cap every batch temporary at `_BATCH_ENTRIES`
    entries (about 32 MB), or at one row when a single row is wider.
    """
    pts = coords[ids]
    m = len(pts)
    if m == 2:
        return ids[:1], ids[1:], 0.0
    runs = config.lloyd_restarts
    gens = [rng.substream(r).generator() for r in range(runs)]
    first = np.array([g.integers(m) for g in gens], dtype=np.intp)
    seed_d2 = _squared_distances(pts, pts[first, None, :])[:, :, 0]
    totals = seed_d2.sum(axis=1)
    # The second seed is g.choice(m, p=d2 / total), drawn as Generator.choice
    # draws it: one g.random(), counted against the normalized cumulative
    # sum of p. A restart whose points all sit on its first seed takes point 0.
    cdf = np.cumsum(seed_d2 / np.where(totals == 0.0, 1.0, totals)[:, None], axis=1)
    cdf /= np.where(totals == 0.0, 1.0, cdf[:, -1])[:, None]
    draws = np.array([g.random() for g in gens])
    second = np.where(totals == 0.0, 0, (cdf <= draws[:, None]).sum(axis=1))
    centers = np.stack([pts[first], pts[second]], axis=1)
    assign = np.zeros((runs, m), dtype=np.intp)
    converged = _move_test(pts, config.lloyd_tol)
    live = np.arange(runs)
    rows = np.arange(m)
    for _ in range(config.lloyd_max_iters):
        dist2 = _squared_distances(pts, centers[live])
        side = dist2.argmin(axis=2)
        ones = side.sum(axis=1)
        for k in np.flatnonzero((ones == 0) | (ones == m)).tolist():
            own = dist2[k, rows, side[k]]
            side[k, int(own.argmax())] = 1 if ones[k] == 0 else 0
            ones[k] += 1 if ones[k] == 0 else -1
        new = _side_centroids(pts, side, ones)
        move = np.sqrt(((new - centers[live]) ** 2).sum(axis=2)).max(axis=1)
        centers[live] = new
        assign[live] = side
        live = live[~converged(move)]
        if live.size == 0:
            break
    # A restart's centers are the means of its final sides, so the squared
    # differences from them sum to `_one_means_cost` of each side, bit for
    # bit. One cost per distinct split: swapping the sides only swaps the
    # two terms, so the key puts point 0 on side 0.
    costs = {}
    best_cost = np.inf
    best_assign = None
    for row, pair in zip(assign, centers):
        key = (row ^ row[0]).tobytes()
        if key not in costs:
            d0 = pts[row == 0] - pair[0]
            d1 = pts[row == 1] - pair[1]
            costs[key] = float((d0 * d0).sum()) + float((d1 * d1).sum())
        if costs[key] < best_cost:
            best_cost, best_assign = costs[key], row
    assert best_assign is not None
    return (*_ordered_split(ids[best_assign == 0], ids[best_assign == 1]), float(best_cost))


def _solve_two_means(
    coords: np.ndarray, ids: np.ndarray, config: TwoMeansSolverConfig, rng: RngStream
) -> Sides:
    if len(ids) < 2:
        raise ValueError("2-means needs at least two points")
    if config.kind == "exhaustive":
        if len(ids) > config.max_exhaustive_n:
            raise ValueError(
                f"exhaustive 2-means refuses sets larger than {config.max_exhaustive_n}"
            )
        return _exhaustive_two_means(coords, ids)
    return _lloyd_two_means(coords, ids, config, rng)


def two_means(
    points: PointSet, indexset, config: TwoMeansSolverConfig
) -> Tuple[Split, float]:
    """Best bipartition of `indexset` under the 2-means cost.

    The exhaustive solver returns the true optimum, breaking ties by the
    lexicographically smallest sorted side containing the minimum index.
    The Lloyd solver returns the best of its restarts; it never beats the
    exhaustive optimum but may fall short of it.
    Both solve on coordinates scaled by an exact power of two, as
    `bisecting_kmeans` does, and report the cost in the original units.
    """
    ids = _index_array(indexset, points.n)
    exponent = _unit_exponent(points.coords)
    first, second, cost = _solve_two_means(
        _unit_scaled(points.coords), ids, config, RngStream(config.seed)
    )
    split = Split(frozenset(first.tolist()), frozenset(second.tolist()))
    try:
        return split, math.ldexp(cost, 2 * exponent)
    except OverflowError:  # a cost past the float range
        return split, math.inf


# ----------------------------------------------------------------------
# divisive builders


def bisecting_kmeans(points: PointSet, config: TwoMeansSolverConfig) -> HierTree:
    """Top-down 2-means splitting until every point stands alone.

    With the exhaustive solver every split in the result is an optimal
    2-means bipartition of its node's point set. Each node draws from its
    own substream, keyed by the node's visit number, so the whole tree is a
    pure function of the input and config.seed.

    The Lloyd solver runs all restarts of a node as one batched pass (each
    restart still seeds from its own substream and stops on its own move
    test), bounds the node's diameter by [r, 2r] with r the largest
    distance from its first point and computes it exactly only for a move
    between the bounds, and returns a 2-point node's only split directly.
    A 2-point node still takes its visit number, so later nodes keep their
    substreams.

    Both solvers work on the coordinates scaled by the power of two that
    brings the largest magnitude into [0.5, 1). The scale is exact, so it
    changes no split of normal inputs, and squares of huge coordinates no
    longer overflow.
    """
    coords = _unit_scaled(points.coords)
    base = RngStream(config.seed)
    visits = itertools.count()

    def expand(ids: np.ndarray, nid: int):
        if len(ids) == 1:
            return int(ids[0])
        left, right, _ = _solve_two_means(coords, ids, config, base.substream(next(visits)))
        return left, right

    return HierTree(_divide(np.arange(points.n, dtype=np.intp), expand), 0)


# Coin flips `random_tree` draws per refill of its buffer.
_FLIP_CHUNK = 1024


def random_tree(n_or_points: Union[int, PointSet], rng: RngStream) -> HierTree:
    """Divisive baseline: each point picks a side by a fair coin at every node.

    A flip leaving one side empty is invalid; the whole node's coin vector
    is redrawn until both sides are nonempty, which realizes the coin
    process conditioned on producing a split.

    The flips come from one buffered `integers(0, 2, size=...)` draw,
    refilled when it runs out and read depth-first, left subtree first,
    redraws included. PCG64 hands out one 32-bit word per flip in sequence
    across calls, so the tree equals the one drawn node by node.
    """
    n = n_or_points if isinstance(n_or_points, (int, np.integer)) else n_or_points.n
    n = int(n)
    if n < 1:
        raise ValueError("need at least one point")
    g = rng.generator()
    buf = np.empty(0, dtype=np.int64)
    pos = 0

    def take(m: int) -> np.ndarray:
        nonlocal buf, pos
        if pos + m > len(buf):
            buf = np.concatenate((buf[pos:], g.integers(0, 2, size=max(m, _FLIP_CHUNK))))
            pos = 0
        pos += m
        return buf[pos - m : pos]

    def expand(ids: np.ndarray, nid: int):
        if len(ids) == 1:
            return int(ids[0])
        while True:
            flips = take(len(ids))
            k = int(flips.sum())
            if 0 < k < len(ids):
                return ids[flips == 1], ids[flips == 0]

    return HierTree(_divide(np.arange(n, dtype=np.intp), expand), 0)


# ----------------------------------------------------------------------
# agglomerative builders


def _agglomerate(dist: DistanceMatrix, mode: str) -> HierTree:
    n = dist.n
    if n == 1:
        return HierTree([0], 0)
    # state[a, b]: total (average mode) or minimum (single mode) cross
    # distance between the live clusters in slots a and b. A merge keeps the
    # lower slot, so every slot's smallest leaf is the slot itself and the
    # tie key (smaller min-leaf, larger min-leaf) is the slot pair (a, b).
    state = dist.values.copy()
    size = np.ones(n, dtype=np.float64)
    alive = np.ones(n, dtype=bool)
    # best[r]: the minimum score over live slots c > r; arg[r]: the first
    # such c, or -1 when there is none. Row-major order over a < b is then
    # the tie order, so the pick is the first row holding the minimum.
    best = np.full(n, np.inf)
    arg = np.full(n, -1, dtype=np.intp)
    node_of = list(range(n))
    nodes: List[Union[int, Tuple[int, int]]] = list(range(n))

    def scores(r: int, cols: np.ndarray) -> np.ndarray:
        if mode == "average":
            return state[r, cols] / (size[r] * size[cols])
        return state[r, cols]

    def refresh(r: int) -> None:
        cols = np.flatnonzero(alive[r + 1 :]) + (r + 1)
        if cols.size == 0:
            best[r], arg[r] = np.inf, -1
            return
        row = scores(r, cols)
        k = int(row.argmin())
        best[r], arg[r] = row[k], cols[k]

    for r in range(n - 1):
        refresh(r)
    for _ in range(n - 1):
        a = int(best.argmin())
        if arg[a] < 0:  # every live score overflowed to inf
            a = int(np.flatnonzero(arg >= 0)[0])
        b = int(arg[a])
        nodes.append((node_of[a], node_of[b]))
        node_of[a] = len(nodes) - 1
        if mode == "average":
            state[a, :] += state[b, :]
        else:
            state[a, :] = np.minimum(state[a, :], state[b, :])
        state[:, a] = state[a, :]
        size[a] += size[b]
        alive[b] = False
        best[b], arg[b] = np.inf, -1
        # Rows whose cached partner was a or b rescan; the other live rows
        # above a only need to compare their cached minimum with (c, a).
        stale = alive & ((arg == a) | (arg == b))
        stale[a] = True
        above = np.flatnonzero(alive[:a] & ~stale[:a])
        new = scores(a, above)
        take = (new < best[above]) | ((new == best[above]) & (a < arg[above]))
        best[above[take]] = new[take]
        arg[above[take]] = a
        for r in np.flatnonzero(stale).tolist():
            refresh(r)
    return HierTree(nodes, len(nodes) - 1)


def average_linkage(dist: DistanceMatrix) -> HierTree:
    """Merge the cluster pair with minimum mean inter-cluster distance.

    Ties go to the pair whose (smaller min-leaf, larger min-leaf) ids are
    lexicographically smallest, so the output is reproducible without
    randomness. Internal nodes are numbered n .. 2n-2 in merge order.
    Typical cost is O(n^2) time (O(n^3) in the worst case, when most merges
    invalidate most cached row minima) and one n x n working copy of `dist`.
    """
    return _agglomerate(dist, "average")


def single_linkage(dist: DistanceMatrix) -> HierTree:
    """As average_linkage, but merging by minimum single inter-cluster distance.

    Same tie rule, node numbering and cost: typical O(n^2) time and one
    n x n working copy of `dist`.
    """
    return _agglomerate(dist, "single")
