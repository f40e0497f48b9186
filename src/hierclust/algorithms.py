"""Tree-construction algorithms.

Four builders, all emitting the same dendrogram type:

* bisecting_kmeans -- divisive; recursively applies a 2-means split, solved
  either exactly (every bipartition enumerated) or by restarted Lloyd
  iterations seeded with k-means++. The tree grows one depth at a time, and
  each depth's nodes go to one 2-means entry, `_split_nodes`, as
  `two_means` sends its single node. There the restarts of a node run as
  one batched array pass together with those of every other node whose
  size is within a factor of two; each restart leaves the batch when its
  own centers stop moving. The tolerance scales with the node's diameter,
  which is bracketed in [r, 2r] by the largest distance r from the node's
  first point and computed exactly only when a move falls inside the
  bracket. A 2-point node takes its only split without running Lloyd, and
  a node of equal points the split every restart would end in: its first
  point against the rest.
  The batch sums as a lone restart would, through `metricspace`'s
  `_segment_sums` and `_group_sums`, so its splits and costs are bit for
  bit those of one restart at a time. Each assignment step settles most
  points by which side of the two centers' bisector they lie on, with a
  certified margin for rounding (`_nearer_second`), and computes the two
  squared distances only for the rest.
* average_linkage / single_linkage -- agglomerative over a distance matrix,
  merging the pair of clusters with minimum mean / minimum single
  inter-cluster distance. Each row caches its nearest live partner and a
  merge rescans only the rows it touches (Muellner's "generic" algorithm),
  so typical cost is O(n^2) time and one n x n working copy of the matrix.
  The copy is scaled by the power of two that brings the largest entry
  into [0.5, 1), so every cluster total stays below n^2 and every score is
  finite. A rescan reads the row's contiguous slice, with +inf added at
  the columns of merged-away clusters.
* random_tree -- divisive baseline assigning each point to a side by an
  independent fair coin at every node.

Every algorithm is deterministic given its seed; randomness flows through
`RngStream`, which keys a PCG64 generator by (seed, substream path) so that
independent uses never share draws. Lloyd restarts take their starting
PCG64 states from `RngStream._pcg64_states` in bulk rather than building a
generator each, and compute their two draws from those states with Python
integers as numpy's Generator would (`_restart_draws`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .hiertree import HierTree, Split, _bipartitions, _divide
from .metricspace import (
    DistanceMatrix,
    PointSet,
    _distance_blocks,
    _group_sums,
    _index_array,
    _one_means_cost,
    _row_blocks,
    _segment_sums,
    _unit_exponent,
    _unit_scaled,
)


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 seeding
# (O'Neill, 2014), for `RngStream._pcg64_states`.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _xsl_rr(state: int) -> int:
    """PCG64's 64-bit output of a 128-bit state: xor of its halves, rotated right by its top 6 bits."""
    word = ((state >> 64) ^ state) & _MASK64
    rot = state >> 122
    return ((word >> rot) | (word << (64 - rot))) & _MASK64


def _hash_chain(init: int, mult: int, steps: int) -> List[int]:
    """init, init * mult, init * mult^2, ... mod 2^32: `steps` + 1 hash constants."""
    chain = [init]
    for _ in range(steps):
        chain.append((chain[-1] * mult) & _MASK32)
    return chain


# The hash constants of SeedSequence.generate_state's eight 32-bit words.
_HASH_B = np.array(_hash_chain(_INIT_B, _MULT_B, 8), dtype=np.uint64)[:, None]


def _check_seed(name: str, value) -> None:
    """Refuse a seed that is not a non-negative integer, naming its field."""
    if not (isinstance(value, (int, np.integer)) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Reproducible randomness: PCG64 keyed by a seed and a substream path.

    Equal (seed, path) gives identical draws on every platform. substream()
    derives an independent child stream without consuming from the parent;
    generator() returns a fresh generator positioned at the stream's start,
    so each stream should feed one consumer. `_pcg64_states` gives the
    starting PCG64 state of many substreams at once, without building a
    generator for each: it starts from the `pool` of the stream's own
    SeedSequence and mixes in only the substream keys. The seed must be a
    non-negative integer; any other value is refused when the stream is
    built.
    """

    seed: int
    path: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_seed("seed", self.seed)

    def _sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._sequence()))

    def substream(self, *keys: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(k) for k in keys))

    def seed_int(self) -> int:
        """A stable 63-bit integer usable as a derived config seed."""
        return int(self._sequence().generate_state(1, np.uint64)[0] >> np.uint64(1))

    def _pcg64_states(self, tails: np.ndarray) -> List[Tuple[int, int]]:
        """PCG64 (state, inc) of `self.substream(*row).generator()` for each row of `tails`.

        Every entry of `tails` (an (N, t) integer array, t >= 1) must be
        below 2^32, one SeedSequence word. SeedSequence mixes its words in
        order with a running hash constant, so the seed and path, the prefix
        every row shares, are numpy's own `pool` of `self`, and only the
        last t words are mixed as arrays over the rows. The pool then gives
        four 64-bit words, and PCG64 seeds from them as numpy's C code does.
        """
        tails = np.asarray(tails, dtype=np.int64)
        if tails.size and not (tails.min() >= 0 and tails.max() <= _MASK32):
            raise ValueError("substream keys for bulk seeding must be in 0..2^32-1")
        pool = self._sequence().pool
        # The pool spent four hash constants per 32-bit word of the seed,
        # padded to the pool's four words, and of each path key.
        words = [-(-max(1, int(v).bit_length()) // 32) for v in (self.seed,) + self.path]
        c = 4 * (max(4, words[0]) + sum(words[1:]))
        hashes = _hash_chain(_INIT_A, _MULT_A, c + 4 * tails.shape[1])
        chain = np.array(hashes, dtype=np.uint64)[:, None]

        def mix(x, y):
            z = (_MIX_L * x - _MIX_R * y) & _MASK32
            return z ^ (z >> 16)

        # A row's own words mix into all four pool words at once, as uint64
        # arrays: products of two 32-bit values fit, and a difference that
        # wraps mod 2^64 is still exact mod 2^32 once masked.
        rows = pool.astype(np.uint64)[:, None]
        for column in tails.T.astype(np.uint64):
            value = ((column ^ chain[c : c + 4]) * chain[c + 1 : c + 5]) & _MASK32
            rows = mix(rows, value ^ (value >> 16))
            c += 4
        # generate_state(4, uint64): eight hashed pool words, paired little-endian.
        state = ((rows[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:-1]) * _HASH_B[1:]) & _MASK32
        state ^= state >> 16
        seed_hi, seed_lo, inc_hi, inc_lo = (state[0::2] | (state[1::2] << 32)).tolist()
        out = []
        for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
            # pcg_setseq_128_srandom_r: inc = 2 initseq + 1, and two steps
            # of state = state * mult + inc around adding initstate.
            inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
            out.append((((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
        return out


# The 2-means solvers' fixed settings; `TwoMeansSolverConfig` says what each does.
MAX_EXHAUSTIVE_N = 20
LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-9


@dataclass(frozen=True)
class TwoMeansSolverConfig:
    """How a single 2-means split is solved.

    `exhaustive` enumerates all 2^(m-1) - 1 bipartitions and refuses sets
    larger than `MAX_EXHAUSTIVE_N` (20); `lloyd` runs `lloyd_restarts`
    k-means++ seeded Lloyd iterations and keeps the best. A Lloyd restart
    stops after `LLOYD_MAX_ITERS` (100) iterations, or once no center moves
    more than `LLOYD_TOL` (1e-9) times the current set's exact diameter;
    bounds on the diameter settle most moves, so the exact value is computed
    only when they cannot, and never changes the outcome.
    """

    kind: str = "exhaustive"
    lloyd_restarts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("exhaustive", "lloyd"):
            raise ValueError(f"solver kind must be 'exhaustive' or 'lloyd', got {self.kind!r}")
        if self.lloyd_restarts < 1:
            raise ValueError(f"lloyd_restarts must be at least 1, got {self.lloyd_restarts}")
        _check_seed("seed", self.seed)


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


# `_move_test` trusts its upper bound 2r only for r at least this. Below
# it, what a squared distance loses to underflow may pass its rounding
# error, so every move above the lower bound computes the exact diameter.
# Unit-scaled coordinates keep r below 2 sqrt(dim), so no square overflows.
_BRACKET_MIN = 2.0**-460


def _squared_distances(pts: np.ndarray, owner: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """out[r, i, k]: squared distance from pts[owner[r], i] to centers[r, k].

    `pts` holds one (rows, dim) block of points per node; a single node is
    broadcast to every run rather than copied for each. Each entry sums its squared
    differences over the last axis, as one (m, k, dim) difference would, so
    it matches that bit for bit. The difference is one expression, so no
    name holds a block while the next one is made.
    """
    runs, k, dim = centers.shape
    out = np.empty((runs, pts.shape[1], k))
    for rs in _row_blocks(runs, pts.shape[1] * k * dim):
        own = pts if len(pts) == 1 else pts[owner[rs]]
        out[rs] = ((own[:, :, None, :] - centers[rs, None, :, :]) ** 2).sum(axis=3)
    return out


def _nearer_second(
    pts: np.ndarray, owner: np.ndarray, centers: np.ndarray, sq: np.ndarray
) -> np.ndarray:
    """out[r, i]: d1 < d0 of `_squared_distances(pts, owner, centers)[r, i]`, bit for bit.

    `centers` is (runs, 2, dim) and sq[k, i] the squared norm of pts[k, i].
    The test needs no squared distance when a certified screen settles it.
    With w = c1 - c0 and off = |c0|^2 - |c1|^2, the exact h = 2<x, w> + off
    is d0 - d1. h as computed, h', sends a point to side 1 when h' > T and
    to side 0 when h' < -T, for T = slack * S + 2^-1000 with
    S = |x|^2 + |c0|^2 + |c1|^2. Every other point takes d0 and d1 as
    `_squared_distances` sums them, each over the last axis of its own
    difference, and compares them.

    Why the screen agrees with d1 < d0 as computed. Let n = dim, u = 2^-53
    and g(k) = k u / (1 - k u). Every entry of x, c0 and c1 is at most 1
    (the coordinates are unit-scaled and the centers are points or side
    means), so nothing overflows. A rounded product or square may also
    underflow, by at most 2^-1075; sums and differences never do.
    * Each computed d_k has d'_k = d_k (1 + e) with |e| <= g(n + 2) (a
      rounded difference, its square, then n - 1 additions in any order),
      plus at most n 2^-1074 from underflow; and d_k <= 2 (|x|^2 + |c_k|^2).
      So |d'_0 - d_0| + |d'_1 - d_1| <= 4 g(n + 2) S + 2n 2^-1074.
    * For h: the rounded w_j is w_j (1 + e_j), |e_j| <= u, and
      sum_j |x_j| |w_j| <= |x|^2 + (|c0|^2 + |c1|^2) / 2 <= S, so the dot
      product is off by at most g(n + 1) S; doubling is exact. The two
      squared norms and their difference are off by at most
      g(n + 1) (|c0|^2 + |c1|^2) <= g(n + 1) S, and the final addition by
      u (3 + 3 g(n + 1)) S. Altogether |h' - h| <= 3 g(n + 2) S, plus at
      most 5n 2^-1075 from underflow.
    * So |h' - h| + |d'_0 - d_0| + |d'_1 - d_1| <= 7 g(n + 2) S + 8n 2^-1074.
      If h' > T exceeds that, h > |d'_0 - d_0| + |d'_1 - d_1| and d'_1 < d'_0
      strictly; if h' < -T, d'_1 > d'_0.
    slack = 16 (n + 2) u is more than twice 7 g(n + 2) for n < 2^40, where
    (n + 2) u < 2^-12; that leaves room for the rounding of S and T
    themselves (a factor 1 - O(n u)). 2^-1000 covers the underflow terms
    for n < 2^70. Entries at most 1 serve only to keep 4 S finite, so the
    screen is exact for any coordinates whose 4 S does not overflow.
    """
    runs, _, dim = centers.shape
    width = pts.shape[1]
    slack = 16 * (dim + 2) * 2.0**-53
    w = centers[:, 1] - centers[:, 0]
    norms = np.einsum("rkj,rkj->rk", centers, centers)
    off = norms[:, 0] - norms[:, 1]
    out = np.empty((runs, width), dtype=bool)
    for rs in _row_blocks(runs, width * dim):
        own = owner[rs]
        if len(pts) == 1:
            h = np.einsum("ij,rj->ri", pts[0], w[rs])
        else:
            h = np.einsum("rij,rj->ri", pts[own], w[rs])
        h *= 2.0
        h += off[rs, None]
        bound = sq[own] + (norms[rs, 0] + norms[rs, 1])[:, None]
        bound *= slack
        bound += 2.0**-1000
        out[rs] = h > bound
        run, row = np.nonzero(np.abs(h) <= bound)
        if run.size:
            run += rs.start
            d2 = ((pts[owner[run], row][:, None, :] - centers[run]) ** 2).sum(axis=2)
            out[run, row] = d2[:, 1] < d2[:, 0]
    return out


def _side_sums(
    pts: np.ndarray,
    owner: np.ndarray,
    side: np.ndarray,
    pad: np.ndarray,
    centers: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sums over each run's two sides, each as numpy sums that side alone.

    Run r's rows are pts[owner[r]]; `side` puts each row in side 0 or 1,
    and `pad`, node k's padding rows in pad[k], keeps padding out of every
    sum. Without `centers`, out[r, k] is `.sum(axis=0)` of run r's side-k
    rows, shape (runs, 2, dim). With them, out[r, k] is the `.sum()` of
    those rows' squared differences from centers[r, k], shape (runs, 2), as
    `_one_means_cost` sums them: the rows laid end to end, in point order.
    A block of runs holds about three temporaries of its rows.
    """
    runs, width = side.shape
    dim = pts.shape[2]
    out = np.empty((runs, 2, dim) if centers is None else (runs, 2))
    for rs in _row_blocks(runs, 3 * width * dim):
        count = len(side[rs])
        # Group 2j + k is side k of the block's j-th run; padding is group 2 * count.
        group = np.where(pad[owner[rs]], 2 * count, side[rs] + 2 * np.arange(count)[:, None])
        rows = pts[owner[rs]]
        if centers is None:
            sums = _group_sums(rows.reshape(-1, dim), group.ravel(), 2 * count)
            out[rs] = sums.reshape(count, 2, dim)
            continue
        rows -= centers[rs][np.arange(count)[:, None], side[rs]]
        rows *= rows
        # Rows are sorted by group, not their entries one by one as
        # `_group_sums` would sort a single column: dim times fewer keys.
        order = np.argsort(group, axis=None, kind="stable")
        lengths = np.bincount(group.ravel(), minlength=2 * count + 1)[:-1]
        values = rows.reshape(-1, dim)[order[: lengths.sum()]].ravel()
        out[rs] = _segment_sums(values, lengths * dim).reshape(count, 2)
    return out


def _move_test(
    pts: np.ndarray, sizes: np.ndarray, tol: float
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Return a test of `move <= tol * diameter(node)` for arrays of nodes and moves.

    Node k is the first sizes[k] rows of pts[k]. With r the largest
    distance from a node's first point, its diameter lies in [r, 2r]. r is
    one of the distances the diameter is the maximum of, so a move up to
    tol * r passes. A move above tol * 2r fails once 2r is widened by
    (dim + 4) * 2^-50, more than twice the relative rounding error of a
    computed distance. Only a move in between computes the exact O(m^2 dim)
    diameter of its node, once per node.
    """
    count, width, dim = pts.shape
    d2 = _squared_distances(pts, np.arange(count), pts[:, :1])[:, :, 0]
    d2[np.arange(width) >= sizes[:, None]] = 0.0
    # sqrt is monotone, so the largest distance is the root of the largest square.
    r = np.sqrt(d2.max(axis=1))
    low = tol * r
    high = np.where(r >= _BRACKET_MIN, tol * (2.0 * r) * (1.0 + (dim + 4) * 2.0**-50), np.inf)
    diameter = {}

    def passes(node: np.ndarray, move: np.ndarray) -> np.ndarray:
        done = move <= low[node]
        for j in np.flatnonzero(~done & (move <= high[node])).tolist():
            k = int(node[j])
            if k not in diameter:
                own = pts[k, : sizes[k]]
                # The maximum over row blocks is exact: sqrt is monotone.
                diameter[k] = max(float(b.max()) for _, b in _distance_blocks(own, own))
            done[j] = move[j] <= tol * diameter[k]
        return done

    return passes


def _restart_draws(
    rng: RngStream, keys: np.ndarray, sizes: np.ndarray, restarts: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The first two draws of each restart of each node.

    Run k * restarts + r draws what `rng.substream(*keys[k], r).generator()`
    would: `integers(sizes[k])` and then `random()`. They are computed from
    each run's starting PCG64 state (`RngStream._pcg64_states`) with Python
    integers, as numpy's C code computes them:

    * a step is state = state * mult + inc mod 2^128, and its 64-bit output
      is XSL-RR: the two halves of the state xor-ed, rotated right by the
      state's top 6 bits;
    * `integers(m)` with m - 1 < 2^32 is Lemire's draw on 32-bit words: the
      low half of an output first, and after a rejection the high half of
      the same output. m = 2^32 takes the low half as it is, which is
      Lemire's draw at that bound too (its threshold is 0). A larger m is
      the same draw on whole 64-bit outputs, and m = 1 draws nothing;
    * `random()` is (next output >> 11) * 2^-53; it takes a fresh output
      even when `integers` left a half unused.
    """
    tails = np.column_stack(
        (np.repeat(keys, restarts, axis=0), np.tile(np.arange(restarts), len(keys)))
    )
    first, draws = [], []
    bounds = np.repeat(sizes, restarts).tolist()
    for bound, (state, inc) in zip(bounds, rng._pcg64_states(tails)):
        bits = 32 if bound <= 1 << 32 else 64
        # Lemire rejects a product whose low `bits` bits fall below this.
        threshold = ((1 << bits) - bound) % bound
        low = (1 << bits) - 1
        value, spare = 0, None
        while bound > 1:
            if spare is None:
                state = (state * _PCG_MULT + inc) & _MASK128
                word = _xsl_rr(state)
                value, spare = (word & _MASK32, word >> 32) if bits == 32 else (word, None)
            else:
                value, spare = spare, None
            value *= bound
            if value & low >= threshold:
                break
        first.append(value >> bits)
        state = (state * _PCG_MULT + inc) & _MASK128
        draws.append((_xsl_rr(state) >> 11) * 2.0**-53)
    return np.array(first, dtype=np.intp), np.array(draws)


def _lloyd_batch(
    coords: np.ndarray,
    nodes: List[np.ndarray],
    config: TwoMeansSolverConfig,
    first: np.ndarray,
    draws: np.ndarray,
) -> List[Sides]:
    """Best of `lloyd_restarts` k-means++ seeded Lloyd runs for each of `nodes`.

    `coords` are unit-scaled (`_unit_scaled`), as `bisecting_kmeans` and
    `two_means` pass them: every |entry| is below 1, so every distance is
    below 2 sqrt(dim) and no square overflows. Every node is an ascending
    index array of at least three points. Run
    k * restarts + r is restart r of node k; `first` and `draws` are its
    `integers(m)` and `random()` draws (`_restart_draws`). All runs go as
    one batch, and each leaves it when its node's move test passes; a
    node's first restart with the lowest cost wins. Splits and costs are
    bit for bit those of running each restart alone.

    Nodes may differ in size: each is padded with zero rows to the largest,
    and every sum leaves the padding out. A run's k-means++ total is
    `_segment_sums` of its own seed distances, and its side sums come from
    `_side_sums`, each as a lone restart sums it. Blocks of runs from
    `metricspace._row_blocks` cap every batch temporary at about 4e6
    entries (32 MB), or at a few times a node's points when a single run
    is wider.
    """
    restarts = config.lloyd_restarts
    sizes = np.array([len(ids) for ids in nodes])
    width = int(sizes.max())
    rows = np.arange(width)
    pad = rows >= sizes[:, None]
    pts = np.zeros((len(nodes), width, coords.shape[1]))
    pts[~pad] = coords[np.concatenate(nodes)]
    owner = np.repeat(np.arange(len(nodes)), restarts)
    starts = pts[owner, first]
    seed_d2 = _squared_distances(pts, owner, starts[:, None, :])[:, :, 0]
    real = ~pad[owner]
    totals = _segment_sums(seed_d2[real], sizes[owner])
    # The second seed is g.choice(m, p=d2 / total), drawn as Generator.choice
    # draws it: one g.random(), counted against the normalized cumulative sum
    # of p. Padding trails a run's m rows and is set to 0.0, so it joins no
    # prefix of the sum, and its normalized entries are 1.0, above every
    # draw. A restart whose points all sit on its first seed takes point 0.
    seed_d2[~real] = 0.0
    cdf = np.cumsum(seed_d2 / np.where(totals == 0.0, 1.0, totals)[:, None], axis=1)
    cdf /= np.where(totals == 0.0, 1.0, cdf[:, -1])[:, None]
    second = np.where(totals == 0.0, 0, (cdf <= draws[:, None]).sum(axis=1))
    centers = np.stack([starts, pts[owner, second]], axis=1)
    assign = np.zeros((len(owner), width), dtype=np.intp)
    converged = _move_test(pts, sizes, LLOYD_TOL)
    sq = np.einsum("kij,kij->ki", pts, pts)
    live = np.arange(len(owner))
    for _ in range(LLOYD_MAX_ITERS):
        node = owner[live]
        old = centers[live]
        # argmin over the two centers: side 1 only when strictly nearer.
        side = _nearer_second(pts, node, old, sq).astype(np.intp)
        side[pad[node]] = 0
        ones = side.sum(axis=1)
        for k in np.flatnonzero((ones == 0) | (ones == sizes[node])).tolist():
            dist2 = _squared_distances(pts, node[k : k + 1], old[k : k + 1])[0]
            own = np.where(pad[node[k]], -np.inf, dist2[rows, side[k]])
            side[k, int(own.argmax())] = 1 if ones[k] == 0 else 0
            ones[k] += 1 if ones[k] == 0 else -1
        counts = np.stack([sizes[node] - ones, ones], axis=1)
        new = _side_sums(pts, node, side, pad) / counts[:, :, None]
        shift = np.sqrt(((new - old) ** 2).sum(axis=2))
        move = np.maximum(shift[:, 0], shift[:, 1])
        centers[live] = new
        assign[live] = side
        live = live[~converged(node, move)]
        if live.size == 0:
            break
    # A restart's centers are the means of its final sides, so the squared
    # differences from them sum to `_one_means_cost` of each side.
    cost = _side_sums(pts, owner, assign, pad, centers).sum(axis=1).reshape(len(nodes), restarts)
    best = assign[cost.argmin(axis=1) + restarts * np.arange(len(nodes))]
    out: List[Sides] = []
    for ids, row, value in zip(nodes, best, cost.min(axis=1).tolist()):
        row = row[: len(ids)]
        out.append((*_ordered_split(ids[row == 0], ids[row == 1]), value))
    return out


def _split_nodes(
    coords: np.ndarray,
    nodes: List[np.ndarray],
    keys: np.ndarray,
    config: TwoMeansSolverConfig,
    rng: RngStream,
) -> List[Sides]:
    """The 2-means split of each of `nodes`, by `config`'s solver.

    Every node is an ascending index array of at least two points. The
    exhaustive solver takes the nodes one by one. The Lloyd solver gives a
    2-point node, and a node whose points are all equal, the split of its
    first point from the rest without drawing, and runs the other nodes whose
    sizes share a power-of-two bracket [2^(e-1), 2^e) as one `_lloyd_batch`;
    restart r of node k seeds from `rng.substream(*keys[k], r)`, for an
    (len(nodes), t) integer array `keys`.
    """
    if config.kind == "exhaustive":
        if max(len(ids) for ids in nodes) > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive 2-means refuses sets larger than {MAX_EXHAUSTIVE_N}")
        return [_exhaustive_two_means(coords, ids) for ids in nodes]
    # A node of equal points takes the split a 2-point node has, without
    # drawing: both seeds sit on one point and none is strictly nearer the
    # second, so the empty-side repair moves the first row, and every
    # restart ends in {first point} against the rest.
    settled = [len(ids) == 2 or bool((coords[ids] == coords[ids[0]]).all()) for ids in nodes]
    out: List[Sides] = [
        (ids[:1], ids[1:], _one_means_cost(coords, ids[1:]) if done and len(ids) > 2 else 0.0)
        for ids, done in zip(nodes, settled)
    ]
    restarts = config.lloyd_restarts
    sizes = np.array([len(ids) for ids in nodes])
    lloyd = np.flatnonzero(~np.array(settled, dtype=bool))
    first, draws = _restart_draws(rng, keys[lloyd], sizes[lloyd], restarts)
    scale = np.frexp(sizes[lloyd])[1]
    for e in np.unique(scale).tolist():
        group = np.flatnonzero(scale == e)
        runs = (group[:, None] * restarts + np.arange(restarts)).ravel()
        batch = lloyd[group].tolist()
        sides = _lloyd_batch(coords, [nodes[k] for k in batch], config, first[runs], draws[runs])
        for k, split in zip(batch, sides):
            out[k] = split
    return out


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
    if len(ids) < 2:
        raise ValueError("2-means needs at least two points")
    exponent = _unit_exponent(points.coords)
    no_keys = np.empty((1, 0), dtype=np.int64)
    first, second, cost = _split_nodes(
        _unit_scaled(points.coords), [ids], no_keys, config, RngStream(config.seed)
    )[0]
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

    Visit numbers count the internal nodes depth-first, left subtree
    first, 2-point nodes included. A subtree of k leaves holds k - 1 of
    them, so a node with visit v gives v + 1 to its left child and
    v + |left| to its right one, before either subtree is built. The tree
    therefore grows one depth at a time, and restart r of every node still
    seeds from `RngStream(seed).substream(v, r)`: each depth's nodes go to
    `_split_nodes` at once, keyed by their visit numbers. The Lloyd solver
    there runs the nodes whose sizes share a power-of-two bracket
    [2^(e-1), 2^e) as a single batch (each restart seeds from its own
    substream and stops on its own node's move test), and a 2-point node
    takes its only split without drawing; the exhaustive solver takes the
    nodes one by one. The finished splits are assembled depth-first, so
    node ids are those of a depth-first build.

    Both solvers work on the coordinates scaled by the power of two that
    brings the largest magnitude into [0.5, 1). The scale is exact, so it
    changes no split of normal inputs, and squares of huge coordinates no
    longer overflow.
    """
    coords = _unit_scaled(points.coords)
    base = RngStream(config.seed)
    n = points.n
    # splits[v]: the (left, right) sides of the node with visit number v.
    splits: List[Tuple[np.ndarray, np.ndarray]] = [None] * (n - 1)  # type: ignore[list-item]
    frontier = [(0, np.arange(n, dtype=np.intp))] if n > 1 else []
    while frontier:
        visits = np.array([v for v, _ in frontier], dtype=np.int64)
        solved = _split_nodes(coords, [ids for _, ids in frontier], visits[:, None], config, base)
        frontier = []
        for v, (left, right, _) in zip(visits.tolist(), solved):
            splits[v] = (left, right)
            for w, side in ((v + 1, left), (v + len(left), right)):
                if len(side) > 1:
                    frontier.append((w, side))

    # `_divide` expands the internal nodes in visit order.
    internal = iter(splits)

    def expand(ids: np.ndarray, nid: int):
        return int(ids[0]) if len(ids) == 1 else next(internal)

    return HierTree(_divide(np.arange(n, dtype=np.intp), expand), 0)


# Coin flips `random_tree` draws per refill of its buffer.
_FLIP_CHUNK = 1024


def random_tree(n: int, rng: RngStream) -> HierTree:
    """Divisive baseline: each point picks a side by a fair coin at every node.

    A flip leaving one side empty is invalid; the whole node's coin vector
    is redrawn until both sides are nonempty, which realizes the coin
    process conditioned on producing a split.

    The flips come from one buffered `integers(0, 2, size=...)` draw,
    refilled when it runs out and read depth-first, left subtree first,
    redraws included. PCG64 hands out one 32-bit word per flip in sequence
    across calls, so the tree equals the one drawn node by node.
    """
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
    # distance between the live clusters in slots a and b, on the matrix
    # scaled by the power of two that brings its largest entry into
    # [0.5, 1). Every total is then below n^2, so every score is finite.
    # A merge keeps the lower slot, so every slot's smallest leaf is the
    # slot itself and the tie key (smaller min-leaf, larger min-leaf) is
    # the slot pair (a, b).
    state = np.ldexp(dist.values, -math.frexp(float(dist.values.max()))[1])
    size = np.ones(n, dtype=np.float64)
    # dead[c]: 0.0 while slot c is live, +inf once it has merged away.
    dead = np.zeros(n)
    # best[r]: the minimum score over live slots c > r; arg[r]: the first
    # such c, or -1 when there is none, as for every dead row. Row-major
    # order over a < b is then the tie order, so the pick is the first row
    # holding the minimum.
    best = np.full(n, np.inf)
    arg = np.full(n, -1, dtype=np.intp)
    node_of = list(range(n))
    nodes: List[Union[int, Tuple[int, int]]] = list(range(n))

    def scores(r: int, cols: Union[np.ndarray, slice]) -> np.ndarray:
        if mode == "average":
            return state[r, cols] / (size[r] * size[cols])
        return state[r, cols]

    def refresh(r: int) -> None:
        # Every score is finite and >= 0.0, and x + 0.0 == x, so the slice
        # past r, plus `dead`, holds each live score as it is and +inf at
        # dead columns: its minimum is finite exactly when a live column
        # remains, and its first column is then the first live one.
        row = scores(r, slice(r + 1, None)) + dead[r + 1 :]
        k = int(row.argmin())
        best[r], arg[r] = row[k], r + 1 + k if row[k] < np.inf else -1

    for r in range(n - 1):
        refresh(r)
    for _ in range(n - 1):
        a = int(best.argmin())
        b = int(arg[a])
        nodes.append((node_of[a], node_of[b]))
        node_of[a] = len(nodes) - 1
        if mode == "average":
            state[a, :] += state[b, :]
        else:
            state[a, :] = np.minimum(state[a, :], state[b, :])
        state[:, a] = state[a, :]
        size[a] += size[b]
        dead[b] = np.inf
        best[b], arg[b] = np.inf, -1
        # Rows whose cached partner was a or b rescan. The other live rows
        # above a, which all have a partner since a is live, only need to
        # compare their cached minimum with (c, a).
        stale = (arg == a) | (arg == b)
        above = np.flatnonzero((arg[:a] >= 0) & ~stale[:a])
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

    The working copy is `dist` times the power of two that brings its
    largest entry into [0.5, 1), so no cluster total overflows, however
    large the finite entries. The scale is exact: the tree is that of the
    unscaled matrix, and of `dist` times any power of two, whenever no
    scaled entry, total or mean is subnormal; for example, when the
    smallest nonzero entry is at least 2^-900 of the largest.
    """
    return _agglomerate(dist, "average")


def single_linkage(dist: DistanceMatrix) -> HierTree:
    """As average_linkage, but merging by minimum single inter-cluster distance.

    Same tie rule, node numbering and cost: typical O(n^2) time and one
    n x n working copy of `dist`, scaled as average_linkage scales it.
    Single linkage only compares entries, so its tree keeps to the scale
    rule there whenever no scaled nonzero entry is subnormal.
    """
    return _agglomerate(dist, "single")
