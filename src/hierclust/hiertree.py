"""Binary dendrograms over labeled leaves: splits, LCA queries, enumeration, text format.

A tree over n points has n leaf nodes carrying the point indices 0..n-1 and,
for n >= 2, exactly n-1 internal nodes with two children each. Children are
semantically unordered; wherever an order matters (serialization, split
listings) the child containing the smallest leaf index comes first, which
makes the serialized text a topology invariant usable for deduplication.

Node ids: every top-down builder (`HierTree.from_nested`, `parse`,
bisecting 2-means, random splitting, generating trees) numbers nodes the
same way. The root is 0, and each internal node's two children take the
next two free ids, left child first, in depth-first order with the left
subtree expanded before the right one.

Text format::

    tree   := leaf | "(" tree "," tree ")" [":" weight]
    leaf   := point index in ASCII decimal digits
    weight := unsigned decimal number, optionally with an exponent

Whitespace between tokens is ignored, but ``)``, ``:`` and the weight are
written together. `parse` rejects weights; `UltrametricSpec.parse` requires
one after every ``)``. Examples: ``((0,1),2)`` and ``((0,1):1.0,2):2.0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

NodeSpec = Union[int, Tuple[int, int]]
Nested = Union[int, tuple]


class TreeParseError(ValueError):
    """Malformed tree text; `position` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Split:
    """One bipartition S -> (S1, S2) induced by an internal node."""

    left_set: frozenset
    right_set: frozenset

    def __post_init__(self) -> None:
        left = frozenset(int(i) for i in self.left_set)
        right = frozenset(int(i) for i in self.right_set)
        if not left or not right:
            raise ValueError("both sides of a split must be nonempty")
        if left & right:
            raise ValueError("split sides must be disjoint")
        object.__setattr__(self, "left_set", left)
        object.__setattr__(self, "right_set", right)

    @property
    def parent_set(self) -> frozenset:
        return self.left_set | self.right_set


class HierTree:
    """Rooted binary dendrogram; immutable.

    `nodes[k]` is either an int (the point index of a leaf) or a pair of
    child node ids. Construction checks the full shape contract in one walk
    from the root and one sweep back over it: every point index appears on
    exactly one leaf, every internal node has two children, there is one
    root, and everything is reachable exactly once. Every builder in the
    library goes through this one constructor.

    The sweep records the leaves in post-order (each node's first child
    before its second) as one read-only array, so every node's leaves are
    one slice of it: `leaf_array` and `split_arrays` return views into that
    array, O(n) memory in all. `split_arrays` is cached on first use.
    """

    __slots__ = (
        "nodes",
        "root",
        "n_leaves",
        "_parent",
        "_min_leaf",
        "_count_under",
        "_post_order",
        "_leaf_node",
        "_leaf_order",
        "_leaf_start",
        "_split_arrays",
    )

    def __init__(self, nodes: Sequence[NodeSpec], root: int):
        entries = list(nodes)
        n_nodes = len(entries)
        if n_nodes == 0:
            raise ValueError("tree must have at least one node")
        root = int(root)
        if not (0 <= root < n_nodes):
            raise ValueError("root id out of range")
        # The walk meets each node once; a child met before has two parents or closes a cycle.
        parent = [-1] * n_nodes
        walk: List[int] = []
        stack = [root]
        while stack:
            nid = stack.pop()
            walk.append(nid)
            v = entries[nid]
            if isinstance(v, (int, np.integer)):
                entries[nid] = int(v)
                continue
            try:
                a, b = v
                pair = (int(a), int(b))
            except (TypeError, ValueError):
                raise ValueError("node entries must be point indices or (left, right) pairs")
            entries[nid] = pair
            for c in pair:
                if not (0 <= c < n_nodes):
                    raise ValueError(f"child id {c} out of range")
                if c == root or parent[c] != -1:
                    raise ValueError(
                        f"node {c} has two parents" if c != root else "root must not have a parent"
                    )
                parent[c] = nid
            stack += pair
        if len(walk) != n_nodes:
            raise ValueError("all nodes must be reachable from the root")
        # The walk takes second children first, so reversed it is the post-order
        # (first child's subtree first) of a full binary tree: 2n - 1 nodes, n leaves.
        walk.reverse()
        n = (n_nodes + 1) // 2
        min_leaf = [0] * n_nodes
        count = [1] * n_nodes
        start = [0] * n_nodes
        leaf_node = [-1] * n
        order: List[int] = []
        for nid in walk:
            v = entries[nid]
            if isinstance(v, int):
                if not 0 <= v < n or leaf_node[v] != -1:
                    raise ValueError("leaf point indices must be exactly 0..n-1, each once")
                min_leaf[nid] = v
                leaf_node[v] = nid
                order.append(v)
            else:
                a, b = v
                min_leaf[nid] = min(min_leaf[a], min_leaf[b])
                count[nid] = count[a] + count[b]
            start[nid] = len(order) - count[nid]
        self.nodes = tuple(entries)
        self.root = root
        self.n_leaves = n
        self._parent = tuple(parent)
        self._min_leaf = tuple(min_leaf)
        self._count_under = tuple(count)
        self._post_order = tuple(walk)
        self._leaf_node = tuple(leaf_node)
        self._leaf_order = np.array(order, dtype=np.intp)
        self._leaf_order.flags.writeable = False
        self._leaf_start = tuple(start)
        self._split_arrays = None

    # ------------------------------------------------------------------
    # constructors / conversions

    @classmethod
    def from_nested(cls, nested: Nested) -> "HierTree":
        """Build from nested tuples: a leaf index or (left, right) pairs."""
        return cls(_divide(nested, _nested_children), 0)

    def to_nested(self) -> Nested:
        """Nested-tuple view with the canonical (smallest leaf first) order."""
        built: List[Optional[Nested]] = [None] * len(self.nodes)
        for nid in self._post_order:
            v = self.nodes[nid]
            if isinstance(v, int):
                built[nid] = v
            else:
                a, b = self._ordered_children(nid)
                built[nid] = (built[a], built[b])
        return built[self.root]

    def _ordered_children(self, nid: int) -> Tuple[int, int]:
        a, b = self.nodes[nid]
        if self._min_leaf[a] <= self._min_leaf[b]:
            return a, b
        return b, a

    def children(self, nid: int) -> Optional[Tuple[int, int]]:
        v = self.nodes[nid]
        return None if isinstance(v, int) else v

    def is_leaf(self, nid: int) -> bool:
        return isinstance(self.nodes[nid], int)

    def internal_ids(self) -> List[int]:
        return [nid for nid, v in enumerate(self.nodes) if not isinstance(v, int)]

    def leaf_array(self, nid: int) -> np.ndarray:
        """Point indices of the leaves under `nid`, in post-order (first child's first).

        A read-only view into the tree's one leaf order; writing raises ValueError.
        """
        start = self._leaf_start[nid]
        return self._leaf_order[start : start + self._count_under[nid]]

    # ------------------------------------------------------------------
    # derived views

    def split_arrays(self) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """(node id, left leaf indices, right leaf indices), root-first.

        Depth-first, canonical child first: the same order as splits().
        """
        if self._split_arrays is None:
            out: List[Tuple[int, np.ndarray, np.ndarray]] = []
            stack = [self.root]
            while stack:
                nid = stack.pop()
                if self.is_leaf(nid):
                    continue
                a, b = self._ordered_children(nid)
                out.append((nid, self.leaf_array(a), self.leaf_array(b)))
                stack.append(b)
                stack.append(a)
            self._split_arrays = out
        return self._split_arrays

    def splits(self) -> List[Split]:
        """All n-1 bipartitions, root-first; empty for a single leaf.

        Built afresh on each call from `split_arrays`, which every kernel reads.
        """
        return [
            Split(frozenset(l.tolist()), frozenset(r.tolist())) for _, l, r in self.split_arrays()
        ]

    def _split_index(self) -> np.ndarray:
        """out[i, j]: root-first index of the split separating leaves i and j; -1 if i == j.

        A per-split array with one more entry at its end gathers through this
        index into a per-pair matrix whose diagonal takes that last entry.
        """
        n = self.n_leaves
        out = np.full((n, n), -1, dtype=np.intp)
        for s, (_, l, r) in enumerate(self.split_arrays()):
            out[np.ix_(l, r)] = s
            out[np.ix_(r, l)] = s
        return out

    def lca_leaf_count(self, i: int, j: int) -> int:
        """Number of leaves under the least common ancestor of leaves i and j."""
        n = self.n_leaves
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"leaf index out of range for n={n}")
        if i == j:
            raise ValueError("lca_leaf_count needs two distinct leaves")
        ancestors = set()
        node = self._leaf_node[i]
        while node != -1:
            ancestors.add(node)
            node = self._parent[node]
        node = self._leaf_node[j]
        while node not in ancestors:
            node = self._parent[node]
        return self._count_under[node]

    def serialize(self) -> str:
        """Canonical parenthesis text; see the module docstring for the grammar."""
        return _to_text(self, lambda nid: "")

    # ------------------------------------------------------------------
    # equality on topology via the canonical text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierTree):
            return NotImplemented
        return self.serialize() == other.serialize()

    def __hash__(self) -> int:
        return hash(self.serialize())

    def __repr__(self) -> str:
        return f"HierTree({self.serialize()!r})"


# ----------------------------------------------------------------------
# the one top-down builder and the one tree-text codec


def _divide(root: object, expand: Callable[[object, int], object]) -> List[NodeSpec]:
    """Node list of a tree grown top-down from `root`, numbered as the module docstring says.

    `expand(item, nid)` returns the point index of a leaf or a pair of child
    items. It is called once per node, depth-first with the left subtree
    first, which fixes the order in which builders draw random numbers.
    """
    nodes: List[Optional[NodeSpec]] = [None]
    stack: List[Tuple[object, int]] = [(root, 0)]
    while stack:
        item, nid = stack.pop()
        out = expand(item, nid)
        if isinstance(out, tuple):
            left, right = out
            la = len(nodes)
            nodes += [None, None]
            nodes[nid] = (la, la + 1)
            stack.append((right, la + 1))
            stack.append((left, la))
        else:
            nodes[nid] = out  # type: ignore[assignment]
    return nodes  # type: ignore[return-value]


def _bipartitions(k: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, k) bool rows: the S1 side of bipartitions lo..hi-1 of k items.

    Item 0 is always in S1; row t puts item c >= 1 in S1 when bit c - 1 of
    t is set. The 2^(k-1) - 1 bipartitions of k items are t < 2^(k-1) - 1;
    all ones would leave S2 empty.
    """
    t = np.arange(lo, hi, dtype=np.int64)
    rest = (t[:, None] >> np.arange(k - 1)) & 1
    return np.concatenate((np.ones((len(t), 1), dtype=bool), rest.astype(bool)), axis=1)


def _nested_children(spec: Nested, nid: int) -> Union[int, Tuple[Nested, Nested]]:
    if isinstance(spec, (int, np.integer)):
        return int(spec)
    try:
        a, b = spec  # type: ignore[misc]
    except (TypeError, ValueError):
        raise ValueError("nested entries must be ints or (left, right) pairs")
    return a, b


def _to_text(tree: HierTree, suffix: Callable[[int], str]) -> str:
    """Canonical text of `tree`, writing suffix(nid) after each internal node's ')'."""
    out: List[str] = []
    stack: List[Union[int, str]] = [tree.root]  # node ids, or literal text
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        v = tree.nodes[x]
        if isinstance(v, int):
            out.append(str(v))
        else:
            a, b = tree._ordered_children(x)
            out.append("(")
            stack += (")" + suffix(x), b, ",", a)
    return "".join(out)


_INT_RE = re.compile(r"[0-9]+")
_NUM_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _parse_text(text: str, weighted: bool) -> Tuple[HierTree, Dict[int, Optional[float]]]:
    """Parse tree text into a tree and its internal-node weights (None unless `weighted`).

    `weighted` requires ':weight' after every ')'; otherwise a ':' is rejected.
    """
    # Stack items: ("open", pos) | ("comma", pos) | ("val", nested)
    stack: List[Tuple[str, object]] = []
    i = 0
    n_text = len(text)
    seen: set[int] = set()

    def push(kind: str, item: object, pos: int) -> None:
        if stack and stack[-1][0] == "val":
            raise TreeParseError("expected ',' or ')'", pos)
        stack.append((kind, item))

    while i < n_text:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            push("open", i, i)
            i += 1
        elif ch == ",":
            if len(stack) < 2 or stack[-1][0] != "val" or stack[-2][0] != "open":
                raise TreeParseError("unexpected ','", i)
            stack.append(("comma", i))
            i += 1
        elif ch == ")":
            if (
                len(stack) < 4
                or stack[-1][0] != "val"
                or stack[-2][0] != "comma"
                or stack[-3][0] != "val"
                or stack[-4][0] != "open"
            ):
                raise TreeParseError("unexpected ')'", i)
            i += 1
            weight = None
            if weighted:
                if i >= n_text or text[i] != ":":
                    raise TreeParseError("expected ':weight' after ')'", i)
                m = _NUM_RE.match(text, i + 1)
                if not m:
                    raise TreeParseError("expected a weight", i + 1)
                weight = float(m.group())
                i = m.end()
            _, right = stack.pop()
            stack.pop()
            _, left = stack.pop()
            stack[-1] = ("val", (left, right, weight))  # replaces the matching "open"
        else:
            m = _INT_RE.match(text, i)
            if not m:
                raise TreeParseError(f"unexpected character {ch!r}", i)
            value = int(m.group())
            if value in seen:
                raise TreeParseError(f"duplicate leaf index {value}", i)
            seen.add(value)
            push("val", value, i)
            i = m.end()

    if not stack:
        raise TreeParseError("empty input", 0)
    if len(stack) != 1 or stack[0][0] != "val":
        pos = stack[-1][1] if stack[-1][0] != "val" else n_text
        raise TreeParseError("unbalanced tree text", int(pos))  # type: ignore[arg-type]
    n = len(seen)
    missing = sorted(set(range(n)) - seen)
    if missing:
        raise ValueError(f"leaf indices must cover 0..{n - 1}; missing {missing}")

    weights: Dict[int, Optional[float]] = {}

    def expand(item: object, nid: int) -> object:
        if isinstance(item, int):
            return item
        left, right, weight = item  # type: ignore[misc]
        weights[nid] = weight
        return left, right

    return HierTree(_divide(stack[0][1], expand), 0), weights


def parse(text: str) -> HierTree:
    """Parse the parenthesis format back into a tree.

    Syntax errors raise TreeParseError with the offending position; a
    duplicate leaf index is reported at its token, missing indices at the
    end of the text.
    """
    return _parse_text(text, weighted=False)[0]


def _insertions(t: Nested, leaf: int) -> Iterator[Nested]:
    """All trees obtained by attaching `leaf` above one node of `t`."""
    yield (t, leaf)
    if isinstance(t, tuple):
        a, b = t
        for na in _insertions(a, leaf):
            yield (na, b)
        for nb in _insertions(b, leaf):
            yield (a, nb)


def enumerate_trees(n: int) -> Iterator[HierTree]:
    """Every distinct dendrogram topology on leaves 0..n-1, exactly once.

    There are (2n-3)!! of them, so the guard caps n at 7 (10395 trees).
    Each topology on k leaves extends a unique topology on k-1 leaves by
    one leaf insertion, which is what makes the enumeration duplicate-free.
    """
    if not 2 <= n <= 7:
        raise ValueError("enumerate_trees supports 2 <= n <= 7")

    def grow(k: int) -> Iterator[Nested]:
        if k == 1:
            yield 0
            return
        for t in grow(k - 1):
            yield from _insertions(t, k - 1)

    for nested in grow(n):
        yield HierTree.from_nested(nested)
