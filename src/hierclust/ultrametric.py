"""Ultrametric ground-truth instances.

An ultrametric satisfies the strong triangle inequality
``d(x,y) <= max(d(x,z), d(y,z))``: every triangle is isosceles with the two
equal sides longest. Such a metric is exactly what a weighted dendrogram
induces: give each internal node a positive weight that never increases away
from the root and read d(x, y) off the weight of the pair's least common
ancestor. `UltrametricSpec` stores that weighted tree; the operations here
validate ultrametrics, generate random specs, embed them isometrically in
Euclidean space, and build / verify trees that cut the largest distances
first at every split.

Specs are written in the tree text format of `hiertree` with the optional
``:weight`` present after every internal node, e.g.
``((0,1):1.0,(2,3):1.0):2.0``; see that module's docstring for the grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .algorithms import RngStream
from .hiertree import HierTree, Split, _divide, _parse_text, _to_text
from .metricspace import DistanceMatrix, PointSet, _first_violation


@dataclass(frozen=True)
class UltrametricSpec:
    """A rooted binary topology with monotone positive internal-node weights.

    Leaves carry weight 0 implicitly; a parent's weight is never below a
    child's, which makes the induced d(x, y) = W(LCA(x, y)) an ultrametric.
    """

    topology: HierTree
    node_weights: Dict[int, float]

    def __post_init__(self) -> None:
        tree = self.topology
        weights = {int(k): float(v) for k, v in self.node_weights.items()}
        internal = set(tree.internal_ids())
        if set(weights) != internal:
            raise ValueError("node_weights must cover exactly the internal nodes")
        for nid, w in weights.items():
            if not (w > 0.0) or not np.isfinite(w):
                raise ValueError("internal node weights must be positive and finite")
        for nid in internal:
            for child in tree.children(nid):
                if not tree.is_leaf(child) and weights[child] > weights[nid]:
                    raise ValueError("weights must be monotone: ancestors never lighter")
        # Positive weights that never decrease toward the root already make
        # the induced distances, copies of those weights, an ultrametric.
        object.__setattr__(self, "node_weights", weights)

    @property
    def n(self) -> int:
        return self.topology.n_leaves

    def induced_matrix(self) -> DistanceMatrix:
        """d(x, y) = weight of the least common ancestor of x and y."""
        n = self.n
        values = np.zeros((n, n), dtype=np.float64)
        for nid, l, r in self.topology.split_arrays():
            w = self.node_weights[nid]
            values[np.ix_(l, r)] = w
            values[np.ix_(r, l)] = w
        return DistanceMatrix._adopt(values)

    def serialize(self) -> str:
        """Annotated tree text with ``:weight`` after each internal node."""
        return _to_text(self.topology, lambda nid: f":{self.node_weights[nid]!r}")

    @classmethod
    def parse(cls, text: str) -> "UltrametricSpec":
        """Inverse of serialize(); raises TreeParseError with a position."""
        return cls(*_parse_text(text, weighted=True))


# ----------------------------------------------------------------------
# operations


def check_ultrametric(
    dist: DistanceMatrix, tol: float = 0.0
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Test the strong triangle inequality on every triple.

    Returns (True, None) when d(x,y) <= max(d(x,z), d(y,z)) + tol for all
    triples, else (False, (x, y, z)) for the lexicographically first
    violating triple.
    """
    found = _first_violation(dist.values, np.maximum, tol)
    return found is None, found


def generate_random(n: int, rng: RngStream, mode: str = "strict") -> UltrametricSpec:
    """A random ground-truth instance over n leaves.

    The topology grows by merging a uniformly random pair of the current
    roots until one remains. Each new internal node weighs
    max(children) + increment, which keeps the weights monotone by
    construction. `strict` draws increments from (0, 1], so all weights are
    distinct almost surely; `with_ties` zeroes the increment with
    probability 1/4 (except where that would make a weight 0), so duplicate
    distances appear.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if mode not in ("strict", "with_ties"):
        raise ValueError(f"mode must be 'strict' or 'with_ties', got {mode!r}")
    if n == 1:
        return UltrametricSpec(HierTree([0], 0), {})
    g = rng.generator()
    nodes: List[Union[int, Tuple[int, int]]] = list(range(n))
    weights: Dict[int, float] = {}
    roots: List[int] = list(range(n))
    root_w: List[float] = [0.0] * n
    while len(roots) > 1:
        a, b = sorted(int(k) for k in g.choice(len(roots), size=2, replace=False))
        base = max(root_w[a], root_w[b])
        if mode == "with_ties" and base > 0.0 and g.random() < 0.25:
            inc = 0.0
        else:
            inc = 1.0 - float(g.random())  # in (0, 1]
        nodes.append((roots[a], roots[b]))
        nid = len(nodes) - 1
        weights[nid] = base + inc
        roots[a] = nid
        root_w[a] = base + inc
        del roots[b], root_w[b]
    return UltrametricSpec(HierTree(nodes, roots[0]), weights)


def embed_euclidean(spec: UltrametricSpec) -> PointSet:
    """Isometric Euclidean realization of the induced ultrametric.

    Every parent-to-child edge owns one coordinate axis; all leaves below
    the child take the value sqrt((W(parent)^2 - W(child)^2) / 2) there
    (leaves weigh 0). Squared distances then telescope along the two paths
    from the LCA, giving d(x, y) = W(LCA(x, y)) exactly: the result has
    2(n-1) dimensions and reproduces the induced matrix to rounding error.
    """
    tree = spec.topology
    n = tree.n_leaves
    if n == 1:
        return PointSet(np.zeros((1, 1)))
    coords = np.zeros((n, 2 * (n - 1)), dtype=np.float64)
    axis = 0
    for nid in tree.internal_ids():
        wp = spec.node_weights[nid]
        for child in tree.children(nid):
            wc = 0.0 if tree.is_leaf(child) else spec.node_weights[child]
            gap = (wp * wp - wc * wc) / 2.0
            if gap < 0.0:
                raise ValueError("weights must be monotone: ancestors never lighter")
            coords[tree.leaf_array(child), axis] = np.sqrt(gap)
            axis += 1
    return PointSet(coords)


def build_generating_tree(dist: DistanceMatrix) -> HierTree:
    """A tree that cuts the largest remaining distances at every split.

    At each node the lexicographically first farthest pair (i, j) seeds the
    two sides; every other point x joins j's side when d(i, x) equals the
    maximum distance (to tolerance), else i's side. On an ultrametric input
    the result passes verify_generating_tree; anything else raises with a
    violating triple.

    The tree is built first and checked by `verify_generating_tree` at the
    same tolerance; only when that fails does the O(n^3) `check_ultrametric`
    run. A passing split check already implies the strong triangle
    inequality within tol: d(x, y) is at most the largest distance dmax
    under LCA(x, y), and any z lies across a split at or above that LCA
    from x or from y, at a cross distance within tol of a dmax at least as
    large.
    """
    v = dist.values
    n = dist.n
    tol = 1e-9 * float(v.max()) if n > 1 else 0.0

    def expand(ids: np.ndarray, nid: int):
        if len(ids) == 1:
            return int(ids[0])
        sub = v[np.ix_(ids, ids)]
        flat = int(sub.argmax())
        pi, pj = divmod(flat, len(ids))
        if pi > pj:
            pi, pj = pj, pi
        dmax = float(sub[pi, pj])
        row = sub[pi]
        to_right = np.abs(row - dmax) <= tol
        to_right[pi] = False
        return ids[~to_right], ids[to_right]

    tree = HierTree(_divide(np.arange(n, dtype=np.intp), expand), 0)
    if not verify_generating_tree(dist, tree, tol)[0]:
        ok, triple = check_ultrametric(dist, tol)
        if not ok:
            raise ValueError(f"input is not an ultrametric: triple {triple} violates the inequality")
    return tree


def verify_generating_tree(
    dist: DistanceMatrix, tree: HierTree, tol: float = 0.0
) -> tuple[bool, Optional[Split]]:
    """Check that every split cuts only the parent set's maximum distance.

    Returns (True, None) when at every split all cross-pair distances equal
    the maximum pairwise distance within the parent set (within tol), else
    (False, first offending split) in root-first order.
    """
    if tree.n_leaves != dist.n:
        raise ValueError("tree and matrix cover different point counts")
    v = dist.values
    for k, (nid, l, r) in enumerate(tree.split_arrays()):
        parent = np.concatenate((l, r))
        dmax = float(v[np.ix_(parent, parent)].max())
        cross = v[np.ix_(l, r)]
        if np.abs(cross - dmax).max() > tol:
            return False, tree.splits()[k]
    return True, None
