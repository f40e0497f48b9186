import tracemalloc

import numpy as np
import pytest

from hierclust import (
    HierTree,
    RngStream,
    Split,
    TreeParseError,
    enumerate_trees,
    parse,
    random_tree,
)


def double_factorial_tree_count(n: int) -> int:
    """(2n-3)!!, the number of dendrogram topologies on n labeled leaves."""
    out = 1
    for k in range(1, 2 * n - 2, 2):
        out *= k
    return out


def nested_bipartitions(nested):
    """Independent split oracle: (left leaves, right leaves) per internal node."""
    if isinstance(nested, int):
        return [], {nested}
    out_l, leaves_l = nested_bipartitions(nested[0])
    out_r, leaves_r = nested_bipartitions(nested[1])
    pairs = [(leaves_l, leaves_r)] + out_l + out_r
    return pairs, leaves_l | leaves_r


# ----------------------------------------------------------------------
# splits


def test_splits_two_leaves():
    t = HierTree.from_nested((0, 1))
    [s] = t.splits()
    assert (sorted(s.left_set), sorted(s.right_set)) == ([0], [1])
    assert sorted(s.parent_set) == [0, 1]


def test_splits_caterpillar_example():
    t = HierTree.from_nested(((0, 1), 2))
    got = [(sorted(s.left_set), sorted(s.right_set)) for s in t.splits()]
    assert got == [([0, 1], [2]), ([0], [1])]


def test_single_leaf_has_no_splits():
    t = HierTree([0], 0)
    assert t.splits() == []


def test_splits_cover_each_pair_once_enumerated():
    for n in range(2, 7):
        for tree in enumerate_trees(n):
            seen = {}
            for s in tree.splits():
                for i in s.left_set:
                    for j in s.right_set:
                        key = (min(i, j), max(i, j))
                        seen[key] = seen.get(key, 0) + 1
            assert all(v == 1 for v in seen.values())
            assert len(seen) == n * (n - 1) // 2
            assert sum(len(s.left_set) * len(s.right_set) for s in tree.splits()) == n * (n - 1) // 2


def test_splits_match_nested_oracle_random_n50():
    for k in range(100):
        tree = random_tree(50, RngStream(k))
        expected, _ = nested_bipartitions(tree.to_nested())
        got = [(set(s.left_set), set(s.right_set)) for s in tree.splits()]
        normalize = lambda pairs: sorted(
            (tuple(sorted(min(a, b, key=sorted))), tuple(sorted(max(a, b, key=sorted))))
            for a, b in pairs
        )
        assert normalize(got) == normalize(expected)


# ----------------------------------------------------------------------
# leaf views


def concatenated_leaf_arrays(tree):
    """Oracle: each node's leaves as its children's arrays concatenated, in post-order."""
    arrays = [None] * len(tree.nodes)
    for k in tree._post_order:
        v = tree.nodes[k]
        if isinstance(v, int):
            arrays[k] = np.array([v], dtype=np.intp)
        else:
            a, b = v
            arrays[k] = np.concatenate((arrays[a], arrays[b]))
    return arrays


def scrambled(tree, seed):
    """The same tree with its node ids permuted."""
    perm = np.random.default_rng(seed).permutation(len(tree.nodes)).tolist()
    nodes = [None] * len(tree.nodes)
    for nid, v in enumerate(tree.nodes):
        nodes[perm[nid]] = v if isinstance(v, int) else (perm[v[0]], perm[v[1]])
    return HierTree(nodes, perm[tree.root])


def caterpillar(n):
    nested = 0
    for i in range(1, n):
        nested = (nested, i)
    return HierTree.from_nested(nested)


def balanced(lo, hi):
    if hi - lo == 1:
        return lo
    mid = (lo + hi) // 2
    return (balanced(lo, mid), balanced(mid, hi))


def view_cases():
    trees = [random_tree(n, RngStream(31, (n,))) for n in (1, 2, 3, 9, 40, 97)]
    trees += [caterpillar(n) for n in (2, 5, 33)]
    trees += [HierTree.from_nested(balanced(0, n)) for n in (4, 7, 64)]
    trees += [parse(t.serialize()) for t in trees[:6]]
    trees += [parse("((3,(0,4)),((1,5),2))")]
    return trees + [scrambled(t, seed) for seed, t in enumerate(trees)]


def test_leaf_views_match_concatenation_oracle():
    for tree in view_cases():
        oracle = concatenated_leaf_arrays(tree)
        for nid in range(len(tree.nodes)):
            got = tree.leaf_array(nid)
            assert got.dtype == np.intp
            assert np.array_equal(got, oracle[nid])
        # Root-first, canonical child first.
        expected = []
        stack = [tree.root]
        while stack:
            nid = stack.pop()
            if tree.is_leaf(nid):
                continue
            a, b = tree._ordered_children(nid)
            expected.append((nid, oracle[a], oracle[b]))
            stack += [b, a]
        got = tree.split_arrays()
        assert len(got) == len(expected) == tree.n_leaves - 1
        for (nid, l, r), (e_nid, e_l, e_r) in zip(got, expected):
            assert nid == e_nid
            assert np.array_equal(l, e_l) and np.array_equal(r, e_r)


def test_leaf_views_are_read_only():
    tree = random_tree(12, RngStream(5))
    with pytest.raises(ValueError):
        tree.leaf_array(tree.root)[0] = 3
    _, left, right = tree.split_arrays()[0]
    with pytest.raises(ValueError):
        left[0] = 0
    with pytest.raises(ValueError):
        right += 1
    assert sorted(tree.leaf_array(tree.root).tolist()) == list(range(12))


def test_split_arrays_memory_is_linear_on_a_deep_caterpillar():
    # Concatenated per-node arrays held about n^2 / 2 indices: 97 MiB here.
    tree = caterpillar(5000)
    tracemalloc.start()
    try:
        tree.split_arrays()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ----------------------------------------------------------------------
# lca_leaf_count


def test_lca_two_leaves():
    t = HierTree.from_nested((0, 1))
    assert t.lca_leaf_count(0, 1) == 2


def test_lca_caterpillar_example():
    t = HierTree.from_nested(((0, 1), 2))
    assert t.lca_leaf_count(0, 1) == 2
    assert t.lca_leaf_count(0, 2) == 3
    assert t.lca_leaf_count(1, 2) == 3


def test_lca_equals_parent_set_of_separating_split():
    for k in range(20):
        tree = random_tree(12, RngStream(1000 + k))
        by_pair = {}
        for s in tree.splits():
            for i in s.left_set:
                for j in s.right_set:
                    by_pair[(min(i, j), max(i, j))] = len(s.parent_set)
        for (i, j), size in by_pair.items():
            assert tree.lca_leaf_count(i, j) == size
            assert 2 <= size <= 12


def test_lca_rejects_equal_leaves():
    t = HierTree.from_nested((0, 1))
    with pytest.raises(ValueError):
        t.lca_leaf_count(0, 0)
    with pytest.raises(IndexError):
        t.lca_leaf_count(0, 5)


# ----------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 15), (5, 105), (6, 945)])
def test_enumerate_counts(n, count):
    assert count == double_factorial_tree_count(n)
    assert sum(1 for _ in enumerate_trees(n)) == count


def test_enumerate_no_duplicates():
    for n in range(2, 7):
        texts = [t.serialize() for t in enumerate_trees(n)]
        assert len(set(texts)) == len(texts)


def test_enumerate_guards():
    with pytest.raises(ValueError):
        list(enumerate_trees(1))
    with pytest.raises(ValueError):
        list(enumerate_trees(8))


# ----------------------------------------------------------------------
# serialization


def test_serialize_single_leaf():
    assert HierTree([0], 0).serialize() == "0"
    assert parse("0").serialize() == "0"


def test_roundtrip_examples():
    for text in ("(0,1)", "((0,1),2)", "((0,1),(2,3))"):
        assert parse(text).serialize() == text


def test_balanced_four_leaf_splits():
    t = parse("((0,1),(2,3))")
    got = [(sorted(s.left_set), sorted(s.right_set)) for s in t.splits()]
    assert got == [([0, 1], [2, 3]), ([0], [1]), ([2], [3])]


def test_serialize_is_order_invariant():
    a = HierTree.from_nested(((2, 0), (3, 1)))
    b = HierTree.from_nested(((1, 3), (0, 2)))
    assert a.serialize() == b.serialize() == "((0,2),(1,3))"


def test_whitespace_ignored():
    assert parse(" ( ( 0 , 1 ) , 2 ) ").serialize() == "((0,1),2)"


def test_roundtrip_random_trees():
    for k in range(30):
        t = random_tree(int(2 + k), RngStream(7).substream(k))
        assert parse(t.serialize()) == t


def test_deep_caterpillar_roundtrip():
    # Exercises the iterative parser/serializer: depth ~1500 would overflow
    # a recursive implementation.
    nested = 0
    for i in range(1, 1500):
        nested = (nested, i)
    t = HierTree.from_nested(nested)
    assert parse(t.serialize()) == t
    assert t.n_leaves == 1500


def test_parse_syntax_errors_carry_position():
    with pytest.raises(TreeParseError) as e:
        parse("((0,1)2)")
    assert e.value.position == 6
    with pytest.raises(TreeParseError):
        parse("(0,1")
    with pytest.raises(TreeParseError):
        parse("")
    with pytest.raises(TreeParseError):
        parse("(0,,1)")
    with pytest.raises(TreeParseError):
        parse("(0,1)x")


def test_parse_duplicate_and_missing_leaves():
    with pytest.raises(TreeParseError) as e:
        parse("(0,0)")
    assert "duplicate" in str(e.value)
    with pytest.raises(ValueError) as e2:
        parse("(0,2)")
    assert "missing" in str(e2.value)


# ----------------------------------------------------------------------
# construction validation


def test_tree_validation_rejects_bad_structures():
    with pytest.raises(ValueError):
        HierTree([0, 1], 0)  # two leaves, no internal node
    with pytest.raises(ValueError):
        HierTree([(1, 2), 0, 0], 0)  # duplicate point index
    with pytest.raises(ValueError):
        HierTree([(1, 1), 0], 0)  # both children the same node
    with pytest.raises(ValueError):
        HierTree([(1, 2), 0, 1, (0, 1)], 3)  # node 1 has two parents
    with pytest.raises(ValueError):
        HierTree([(0, 1), 0, 1], 0)  # self-child cycle at root


def test_split_validation():
    with pytest.raises(ValueError):
        Split(frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        Split(frozenset({1}), frozenset({1, 2}))
