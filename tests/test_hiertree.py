import tracemalloc

import numpy as np
import pytest

from hierclust import (
    HierTree,
    PointSet,
    RandomBadInstanceSpec,
    RngStream,
    Split,
    TreeParseError,
    TwoMeansSolverConfig,
    UltrametricSpec,
    average_linkage,
    bisecting_kmeans,
    brute_force_opt,
    build_generating_tree,
    clean_reference_tree,
    enumerate_trees,
    generate_random,
    pairwise_distances,
    parse,
    random_tree,
    single_linkage,
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


def _reference_fields(nodes, root):
    """The constructor before it was one walk: normalise, count leaves, link parents, post-order.

    Returns every field the constructor sets, for comparison with `_fields`.
    """
    normalized = []
    for entry in nodes:
        if isinstance(entry, (int, np.integer)):
            normalized.append(int(entry))
        else:
            try:
                a, b = entry
            except (TypeError, ValueError):
                raise ValueError("node entries must be point indices or (left, right) pairs")
            normalized.append((int(a), int(b)))
    nodes = tuple(normalized)
    root = int(root)
    n_nodes = len(nodes)
    if n_nodes == 0:
        raise ValueError("tree must have at least one node")
    if not (0 <= root < n_nodes):
        raise ValueError("root id out of range")
    leaves = [v for v in nodes if isinstance(v, int)]
    n = len(leaves)
    if n_nodes != 2 * n - 1:
        raise ValueError(f"{n} leaves require {2 * n - 1} nodes, got {n_nodes}")
    if sorted(leaves) != list(range(n)):
        raise ValueError("leaf point indices must be exactly 0..n-1, each once")
    parent = [-1] * n_nodes
    for nid, v in enumerate(nodes):
        if isinstance(v, int):
            continue
        for c in v:
            if not (0 <= c < n_nodes):
                raise ValueError(f"child id {c} out of range")
            if c == nid:
                raise ValueError("node cannot be its own child")
            if parent[c] != -1:
                raise ValueError(f"node {c} has two parents")
            parent[c] = nid
    if parent[root] != -1:
        raise ValueError("root must not have a parent")
    post = []
    stack = [(root, False)]
    seen = 0
    while stack:
        nid, done = stack.pop()
        if done:
            post.append(nid)
            continue
        seen += 1
        stack.append((nid, True))
        v = nodes[nid]
        if not isinstance(v, int):
            stack.append((v[1], False))
            stack.append((v[0], False))
    if seen != n_nodes:
        raise ValueError("all nodes must be reachable from the root")
    min_leaf = [0] * n_nodes
    count = [0] * n_nodes
    start = [0] * n_nodes
    leaf_node = [-1] * n
    order = []
    for nid in post:
        v = nodes[nid]
        if isinstance(v, int):
            min_leaf[nid] = v
            count[nid] = 1
            start[nid] = len(order)
            leaf_node[v] = nid
            order.append(v)
        else:
            a, b = v
            min_leaf[nid] = min(min_leaf[a], min_leaf[b])
            count[nid] = count[a] + count[b]
            start[nid] = start[a]
    return {
        "nodes": nodes,
        "root": root,
        "n_leaves": n,
        "_parent": tuple(parent),
        "_min_leaf": tuple(min_leaf),
        "_count_under": tuple(count),
        "_post_order": tuple(post),
        "_leaf_node": tuple(leaf_node),
        "_leaf_order": order,
        "_leaf_start": tuple(start),
    }


def _fields(tree):
    out = {name: getattr(tree, name) for name in _reference_fields([0], 0)}
    assert out["_leaf_order"].dtype == np.intp and not out["_leaf_order"].flags.writeable
    out["_leaf_order"] = out["_leaf_order"].tolist()
    return out


def builder_trees():
    """The output of every tree builder in the library, on small seeded inputs."""
    g = np.random.default_rng(41)
    points = PointSet(g.standard_normal((40, 3)))
    dist = pairwise_distances(points)
    spec = generate_random(30, RngStream(3), "with_ties")
    trees = [HierTree([0], 0), HierTree.from_nested(((2, 0), (3, 1)))]
    trees += [random_tree(n, RngStream(n)) for n in (1, 2, 3, 17, 156)]
    trees += list(enumerate_trees(4))
    trees += [parse("((3,(0,4)),((1,5),2))"), parse(random_tree(60, RngStream(8)).serialize())]
    trees += [average_linkage(dist), single_linkage(dist)]
    trees += [
        bisecting_kmeans(PointSet(points.coords[:12]), TwoMeansSolverConfig(kind="exhaustive")),
        bisecting_kmeans(points, TwoMeansSolverConfig(kind="lloyd", seed=4)),
    ]
    trees += [generate_random(25, RngStream(2)).topology, spec.topology]
    trees += [build_generating_tree(spec.induced_matrix())]
    trees += [UltrametricSpec.parse(spec.serialize()).topology]
    trees += [brute_force_opt(PointSet(points.coords[:7]), "revenue")[0]]
    trees += [clean_reference_tree(RandomBadInstanceSpec(3))]
    return trees


def test_constructor_matches_reference_on_every_builder():
    trees = builder_trees()
    for seed, tree in enumerate(list(trees)):
        trees.append(scrambled(tree, seed))
    for tree in trees:
        assert _fields(tree) == _reference_fields(tree.nodes, tree.root)


def test_constructor_normalises_numpy_entries():
    tree = HierTree([(np.int64(1), np.int32(2)), np.int64(0), np.intp(1)], np.int64(0))
    assert tree.nodes == ((1, 2), 0, 1) and tree.root == 0
    assert all(type(x) is int for x in (tree.root, tree.nodes[1], tree.nodes[2], *tree.nodes[0]))
    assert _fields(tree) == _reference_fields(tree.nodes, 0)


# (nodes, root, message): one malformed node list per fault.
MALFORMED = [
    ([], 0, "at least one node"),
    ([0], 1, "root id out of range"),
    ([(1, 2), 0, 1], -1, "root id out of range"),
    ([(1, 2, 3), 0, 1], 0, r"point indices or \(left, right\) pairs"),
    ([(1, 2), None, 1], 0, r"point indices or \(left, right\) pairs"),
    ([(1, 5), 0, 1], 0, "child id 5 out of range"),
    ([(1, -1), 0, 1], 0, "child id -1 out of range"),
    ([(0, 1), 0, 1], 0, "root must not have a parent"),  # self-child at the root
    ([(1, 2), (3, 0), 0, 1], 0, "root must not have a parent"),  # a cycle through the root
    ([(1, 2), (1, 3), 0, 1, 2], 0, "node 1 has two parents"),  # self-child below it
    ([(1, 1), 0], 0, "node 1 has two parents"),
    ([(1, 2), 0, 1, (0, 1)], 3, "node 1 has two parents"),
    ([(1, 2), 0, 1, (4, 5), (3, 6), 2, 3], 0, "reachable"),  # nodes 3 and 4 form a cycle
    ([0, 1], 0, "reachable"),  # two leaves, no internal node
    ([(1, 2), 0, 5], 0, "leaf point indices"),
    ([(1, 2), 0, 0], 0, "leaf point indices"),
]


def test_tree_validation_rejects_bad_structures():
    for nodes, root, message in MALFORMED:
        with pytest.raises(ValueError):
            _reference_fields(nodes, root)
        with pytest.raises(ValueError, match=message):
            HierTree(nodes, root)


def test_split_validation():
    with pytest.raises(ValueError):
        Split(frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        Split(frozenset({1}), frozenset({1, 2}))
