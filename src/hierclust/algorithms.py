"""Tree-construction algorithms.

Four builders, all emitting the same dendrogram type:

* bisecting_kmeans -- divisive; recursively applies a 2-means split, solved
  either exactly (every bipartition enumerated) or by restarted Lloyd
  iterations seeded with k-means++.
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
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .hiertree import HierTree, Split, _divide
from .metricspace import DistanceMatrix, PointSet, _distance_blocks, _one_means_cost


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
    seeded Lloyd iterations and keeps the best. `lloyd_tol` is relative to
    the current set's diameter. `max_exhaustive_n` is at most 64, the widest
    set whose 2^(m-1) bipartition masks fit in int64.
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


def _ordered_split(ids_a: np.ndarray, ids_b: np.ndarray) -> Tuple[Split, np.ndarray, np.ndarray]:
    """Orient sides so the one holding the smallest index comes first."""
    if min(ids_a.min(), ids_b.min()) in set(ids_a.tolist()):
        first, second = ids_a, ids_b
    else:
        first, second = ids_b, ids_a
    return Split(frozenset(first.tolist()), frozenset(second.tolist())), first, second


def _exhaustive_two_means(coords: np.ndarray, ids: np.ndarray) -> Tuple[Split, float]:
    m = len(ids)
    pts = coords[ids]
    # Center the subset first: the sum-of-squares shortcut below would lose
    # precision for data far from the origin.
    q = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", q, q)
    sq_total = float(sq.sum())
    col_total = q.sum(axis=0)

    n_masks = (1 << (m - 1)) - 1
    shifts = np.arange(m - 1, dtype=np.int64)
    best_cost = np.inf
    best_side: Tuple[int, ...] = ()
    chunk = 1 << 15
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.int64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(bool)
        member = np.concatenate([np.ones((len(masks), 1), dtype=bool), bits], axis=1)
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
    split, _, _ = _ordered_split(side1, side2)
    return split, float(cost)


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


def _lloyd_two_means(
    coords: np.ndarray, ids: np.ndarray, config: TwoMeansSolverConfig, rng: RngStream
) -> Tuple[Split, float]:
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
    split, _, _ = _ordered_split(ids[best_assign == 0], ids[best_assign == 1])
    return split, float(best_cost)


def _solve_two_means(
    coords: np.ndarray, ids: np.ndarray, config: TwoMeansSolverConfig, rng: RngStream
) -> Tuple[Split, float]:
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
    """
    ids = np.array(sorted(int(i) for i in indexset), dtype=np.intp)
    if len(np.unique(ids)) != len(ids):
        raise ValueError("index set contains duplicates")
    if ids.size and (ids[0] < 0 or ids[-1] >= points.n):
        raise IndexError("index out of range")
    return _solve_two_means(points.coords, ids, config, RngStream(config.seed))


# ----------------------------------------------------------------------
# divisive builders


def bisecting_kmeans(points: PointSet, config: TwoMeansSolverConfig) -> HierTree:
    """Top-down 2-means splitting until every point stands alone.

    With the exhaustive solver every split in the result is an optimal
    2-means bipartition of its node's point set. Each node draws from its
    own substream, keyed by the node's visit number, so the whole tree is a
    pure function of the input and config.seed.
    """
    coords = points.coords
    base = RngStream(config.seed)
    visits = itertools.count()

    def expand(ids: np.ndarray, nid: int):
        if len(ids) == 1:
            return int(ids[0])
        split, _ = _solve_two_means(coords, ids, config, base.substream(next(visits)))
        left = np.array(sorted(split.left_set), dtype=np.intp)
        right = np.array(sorted(split.right_set), dtype=np.intp)
        return left, right

    return HierTree(_divide(np.arange(points.n, dtype=np.intp), expand), 0)


def random_tree(n_or_points: Union[int, PointSet], rng: RngStream) -> HierTree:
    """Divisive baseline: each point picks a side by a fair coin at every node.

    A flip leaving one side empty is invalid; the whole node's coin vector
    is redrawn until both sides are nonempty, which realizes the coin
    process conditioned on producing a split.
    """
    n = n_or_points if isinstance(n_or_points, (int, np.integer)) else n_or_points.n
    n = int(n)
    if n < 1:
        raise ValueError("need at least one point")
    g = rng.generator()

    def expand(ids: np.ndarray, nid: int):
        if len(ids) == 1:
            return int(ids[0])
        while True:
            flips = g.integers(0, 2, size=len(ids))
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
