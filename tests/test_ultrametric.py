import tracemalloc

import numpy as np
import pytest

from hierclust import (
    DistanceMatrix,
    HierTree,
    PointSet,
    RngStream,
    TreeParseError,
    UltrametricSpec,
    build_generating_tree,
    check_metric,
    check_ultrametric,
    embed_euclidean,
    enumerate_trees,
    generate_random,
    pairwise_distances,
    tree_revenue,
    verify_generating_tree,
)


def four_point_spec():
    """Root weight 2 over two weight-1 pairs: d(a,b) = d(c,d) = 1, cross = 2."""
    topo = HierTree.from_nested(((0, 1), (2, 3)))
    weights = {nid: (2.0 if nid == topo.root else 1.0) for nid in topo.internal_ids()}
    return UltrametricSpec(topo, weights)


def lca_matrix_oracle(spec):
    """Independent W(LCA) matrix via parent-pointer walks, pair by pair."""
    tree = spec.topology
    n = tree.n_leaves
    out = np.zeros((n, n))
    leaf_node = {}
    parents = {}
    for nid in range(len(tree.nodes)):
        ch = tree.children(nid)
        if ch is None:
            leaf_node[tree.nodes[nid]] = nid
        else:
            for c in ch:
                parents[c] = nid
    for i in range(n):
        for j in range(i + 1, n):
            anc = set()
            node = leaf_node[i]
            while node is not None:
                anc.add(node)
                node = parents.get(node)
            node = leaf_node[j]
            while node not in anc:
                node = parents[node]
            out[i, j] = out[j, i] = spec.node_weights[node]
    return out


# ----------------------------------------------------------------------
# check_ultrametric


def test_induced_matrices_are_ultrametric():
    # UltrametricSpec does not re-check its induced matrix: positive weights
    # that never decrease toward the root must be enough, in both modes and
    # after a text round trip.
    for mode in ("strict", "with_ties"):
        for k in range(10):
            spec = generate_random(int(2 + k), RngStream(k), mode)
            for s in (spec, UltrametricSpec.parse(spec.serialize())):
                ok, witness = check_ultrametric(s.induced_matrix(), tol=0.0)
                assert ok and witness is None


def test_equilateral_is_ultrametric():
    dm = DistanceMatrix(np.ones((3, 3)) - np.eye(3))
    assert check_ultrametric(dm)[0]


def test_line_is_not_ultrametric():
    dm = pairwise_distances(PointSet([[0.0], [1.0], [5.0]]))
    ok, witness = check_ultrametric(dm)
    assert not ok
    x, y, z = witness
    assert dm.values[x, y] > max(dm.values[x, z], dm.values[y, z])


def test_ultrametric_matrices_are_metric():
    for k in range(10):
        spec = generate_random(int(3 + k), RngStream(100 + k), "with_ties")
        assert check_metric(spec.induced_matrix(), tol=0.0)[0]


# ----------------------------------------------------------------------
# generate_random


def test_generate_single_leaf():
    spec = generate_random(1, RngStream(0))
    assert spec.n == 1 and spec.node_weights == {}


def test_generate_two_leaves_positive_weight():
    spec = generate_random(2, RngStream(0))
    [w] = spec.node_weights.values()
    assert w > 0.0


def test_generate_strict_weights_distinct():
    spec = generate_random(40, RngStream(9), "strict")
    ws = sorted(spec.node_weights.values())
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_generate_with_ties_produces_duplicate_distances():
    found = False
    for k in range(20):
        spec = generate_random(16, RngStream(500 + k), "with_ties")
        vals = spec.induced_matrix().values
        off = vals[np.triu_indices(spec.n, k=1)]
        if len(np.unique(off)) < len(off):
            found = True
            break
    assert found


def test_induced_matrix_keeps_one_n_by_n_array():
    # The filled array becomes the matrix itself, not a copy beside it: the
    # peak stays near the 8 MiB result at n = 1024, where a copy would add
    # a second 8 MiB.
    spec = generate_random(1024, RngStream(7, (0,)), "strict")
    tracemalloc.start()
    try:
        dist = spec.induced_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * dist.values.nbytes
    # The same matrix as a fill of a fresh array passed to the constructor.
    want = np.zeros((spec.n, spec.n))
    for nid, l, r in spec.topology.split_arrays():
        want[np.ix_(l, r)] = spec.node_weights[nid]
        want[np.ix_(r, l)] = spec.node_weights[nid]
    assert np.array_equal(dist.values, DistanceMatrix(want).values)
    assert not dist.values.flags.writeable
    with pytest.raises(ValueError):
        dist.values[0, 1] = 0.0


def test_generate_mode_guard():
    with pytest.raises(ValueError):
        generate_random(3, RngStream(0), "bogus")
    with pytest.raises(ValueError):
        generate_random(0, RngStream(0))


def test_spec_validation():
    topo = HierTree.from_nested(((0, 1), 2))
    inner = [nid for nid in topo.internal_ids() if nid != topo.root][0]
    with pytest.raises(ValueError):
        UltrametricSpec(topo, {topo.root: 1.0, inner: 2.0})  # not monotone
    with pytest.raises(ValueError):
        UltrametricSpec(topo, {topo.root: 1.0})  # missing weight
    with pytest.raises(ValueError):
        UltrametricSpec(topo, {topo.root: 1.0, inner: 0.0})  # not positive


# ----------------------------------------------------------------------
# embedding


def test_embed_two_points_at_root_weight():
    spec = generate_random(2, RngStream(3))
    [w] = spec.node_weights.values()
    points = embed_euclidean(spec)
    assert points.dim == 2
    d = float(np.linalg.norm(points.coords[0] - points.coords[1]))
    assert abs(d - w) <= 1e-9 * w


def test_embed_four_point_example():
    spec = four_point_spec()
    points = embed_euclidean(spec)
    assert points.dim == 6
    pd = pairwise_distances(points)
    expected = spec.induced_matrix().values
    assert np.allclose(pd.values, expected, rtol=1e-9, atol=1e-12)
    # cross distance squared telescopes to 1.5 + 1.5 + 0.5 + 0.5 = 4
    assert abs(float(((points.coords[0] - points.coords[2]) ** 2).sum()) - 4.0) < 1e-12


def test_embed_matches_lca_oracle():
    for k in range(30):
        n = int(np.random.Generator(np.random.PCG64(k)).integers(2, 33))
        spec = generate_random(n, RngStream(700 + k), "strict" if k % 2 else "with_ties")
        got = pairwise_distances(embed_euclidean(spec)).values
        want = lca_matrix_oracle(spec)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_embed_single_leaf():
    points = embed_euclidean(generate_random(1, RngStream(0)))
    assert points.n == 1


# ----------------------------------------------------------------------
# generating trees


def test_build_two_points():
    spec = generate_random(2, RngStream(1))
    assert build_generating_tree(spec.induced_matrix()).serialize() == "(0,1)"


def test_build_four_point_example():
    tree = build_generating_tree(four_point_spec().induced_matrix())
    _, left, right = tree.split_arrays()[0]
    assert {tuple(sorted(left)), tuple(sorted(right))} == {(0, 1), (2, 3)}


def test_build_equilateral_isolates_first_point():
    dm = DistanceMatrix(np.ones((3, 3)) - np.eye(3))
    assert build_generating_tree(dm).serialize() == "(0,(1,2))"


def test_build_rejects_non_ultrametric():
    dm = pairwise_distances(PointSet([[0.0], [1.0], [5.0]]))
    with pytest.raises(ValueError) as e:
        build_generating_tree(dm)
    assert "ultrametric" in str(e.value)


def test_build_output_verifies():
    for k in range(20):
        spec = generate_random(int(2 + 3 * k), RngStream(300 + k), "with_ties" if k % 2 else "strict")
        dist = spec.induced_matrix()
        tree = build_generating_tree(dist)
        ok, bad = verify_generating_tree(dist, tree, tol=1e-9)
        assert ok and bad is None


def test_verify_rejects_mismatched_tree():
    spec = four_point_spec()
    bad_tree = HierTree.from_nested(((0, 2), (1, 3)))
    ok, offending = verify_generating_tree(spec.induced_matrix(), bad_tree, tol=1e-9)
    assert not ok
    assert offending.parent_set == frozenset(range(4))


def test_verify_two_points_always_true():
    dm = DistanceMatrix([[0.0, 5.0], [5.0, 0.0]])
    assert verify_generating_tree(dm, HierTree.from_nested((0, 1)))[0]


def test_verify_equivalent_to_definition_check():
    # A tree passes verify_generating_tree exactly when a monotone weight
    # recovered from the cross distances reproduces the matrix via LCAs.
    def definition_check(dist, tree):
        v = dist.values
        recovered = {}
        for nid, l, r in tree.split_arrays():
            cross = v[np.ix_(l, r)]
            w = float(cross.max())
            if not np.allclose(cross, w, rtol=0, atol=1e-9):
                return False
            recovered[nid] = w
        # monotone along edges
        for nid in tree.internal_ids():
            for child in tree.children(nid):
                if not tree.is_leaf(child) and recovered[child] > recovered[nid] + 1e-12:
                    return False
        # d = W(LCA) everywhere
        n = tree.n_leaves
        for nid, l, r in tree.split_arrays():
            if not np.allclose(v[np.ix_(l, r)], recovered[nid], rtol=0, atol=1e-9):
                return False
        return True

    for k in range(6):
        spec = generate_random(5, RngStream(900 + k), "with_ties" if k % 2 else "strict")
        dist = spec.induced_matrix()
        agree = 0
        for tree in enumerate_trees(5):
            a = verify_generating_tree(dist, tree, tol=1e-9)[0]
            b = definition_check(dist, tree)
            assert a == b
            agree += a
        assert agree >= 1  # the generating tree itself is in there


def test_recovered_weights_monotone_roundtrip():
    for k in range(10):
        spec = generate_random(int(4 + 4 * k), RngStream(400 + k))
        dist = spec.induced_matrix()
        tree = build_generating_tree(dist)
        v = dist.values
        weight = {}
        for nid, l, r in tree.split_arrays():
            weight[nid] = float(v[np.ix_(l, r)].max())
        for nid in tree.internal_ids():
            for child in tree.children(nid):
                if not tree.is_leaf(child):
                    assert weight[child] <= weight[nid] + 1e-12


def test_generating_tree_full_revenue_smoke():
    for k in range(10):
        spec = generate_random(int(3 + 5 * k), RngStream(600 + k), "with_ties" if k % 2 else "strict")
        n = spec.n
        tree = build_generating_tree(spec.induced_matrix())
        total = tree_revenue(embed_euclidean(spec), tree).total
        assert abs(total - n * (n - 1) / 2.0) <= 1e-6


# ----------------------------------------------------------------------
# annotated text format


def test_spec_serialize_example_shape():
    text = four_point_spec().serialize()
    assert text == "((0,1):1.0,(2,3):1.0):2.0"


def test_spec_roundtrip_random():
    for k in range(10):
        spec = generate_random(int(2 + 2 * k), RngStream(200 + k))
        again = UltrametricSpec.parse(spec.serialize())
        assert np.array_equal(again.induced_matrix().values, spec.induced_matrix().values)
        assert again.topology == spec.topology


def test_spec_parse_errors():
    with pytest.raises(TreeParseError):
        UltrametricSpec.parse("((0,1),2)")  # missing weights
    with pytest.raises(TreeParseError):
        UltrametricSpec.parse("(0,1):")
    with pytest.raises(TreeParseError):
        UltrametricSpec.parse("(0,0):1.0")


def _reference_build_generating_tree(dist):
    """`build_generating_tree` before the check ran only on failure: check every triple, then build."""
    v = dist.values
    n = dist.n
    tol = 1e-9 * float(v.max()) if n > 1 else 0.0
    ok, triple = check_ultrametric(dist, tol)
    if not ok:
        raise ValueError(f"input is not an ultrametric: triple {triple} violates the inequality")

    def split(ids):
        if len(ids) == 1:
            return int(ids[0])
        sub = v[np.ix_(ids, ids)]
        pi, pj = sorted(divmod(int(sub.argmax()), len(ids)))
        to_right = np.abs(sub[pi] - float(sub[pi, pj])) <= tol
        to_right[pi] = False
        return split(ids[~to_right]), split(ids[to_right])

    return HierTree.from_nested(split(np.arange(n)))


def _perturbed(values, scale, seed):
    g = np.random.default_rng(seed)
    noise = np.triu(g.uniform(-scale, scale, values.shape), 1)
    return DistanceMatrix(np.abs(values + noise + noise.T))


def _generating_inputs():
    out = {"zeros_5": DistanceMatrix(np.zeros((5, 5)))}
    for mode in ("strict", "with_ties"):
        for n in (1, 2, 3, 6, 17, 40):
            values = generate_random(n, RngStream(n, (7,)), mode).induced_matrix().values
            out[f"{mode}_{n}"] = DistanceMatrix(values)
            if n < 3:
                continue
            tol = 1e-9 * float(values.max())
            # Noise well inside, near and beyond the tolerance, then gross.
            for k, scale in enumerate((0.3 * tol, 0.9 * tol, 3.0 * tol, 1e-3, 0.5)):
                out[f"{mode}_{n}_noise{k}"] = _perturbed(values, scale, 31 * n + k)
    for n in (3, 8, 25):
        points = PointSet(np.random.default_rng(n).standard_normal((n, 2)))
        out[f"points_{n}"] = pairwise_distances(points)
    # Every triple passes at tol = 1e-9 * max, but the build puts 0 with 2
    # (d(1, 0) is within tol of d(1, 2)), and then d(0, 3) falls more than
    # tol below the root's maximum: the split check fails, the input stands.
    near = np.array(
        [
            [0.0, 1.0, 0.9, 1.0 - 6e-10],
            [1.0, 0.0, 1.0 + 5e-10, 0.6],
            [0.9, 1.0 + 5e-10, 0.0, 1.0],
            [1.0 - 6e-10, 0.6, 1.0, 0.0],
        ]
    )
    out["near_tol_4"] = DistanceMatrix(near)
    return out


GENERATING_INPUTS = _generating_inputs()


@pytest.mark.parametrize("name", sorted(GENERATING_INPUTS))
def test_build_matches_check_first_order(name):
    dist = GENERATING_INPUTS[name]
    try:
        want = _reference_build_generating_tree(dist)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_generating_tree(dist)
        assert str(got.value) == str(exc)
    else:
        got = build_generating_tree(dist)
        assert (got.root, got.nodes) == (want.root, want.nodes)


def test_build_checks_every_triple_only_when_the_split_check_fails(monkeypatch):
    import hierclust.ultrametric as ultrametric

    calls = []

    def counting(dist, tol=0.0):
        calls.append(dist.n)
        return check_ultrametric(dist, tol)

    monkeypatch.setattr(ultrametric, "check_ultrametric", counting)
    spec = generate_random(30, RngStream(5), "with_ties")
    build_generating_tree(spec.induced_matrix())
    assert calls == []
    with pytest.raises(ValueError, match="not an ultrametric"):
        build_generating_tree(GENERATING_INPUTS["points_8"])
    assert calls == [8]
    near = GENERATING_INPUTS["near_tol_4"]
    tree = build_generating_tree(near)
    assert calls == [8, 4]
    assert tree.serialize() == "((0,2),(1,3))"
    assert not verify_generating_tree(near, tree, 1e-9 * float(near.values.max()))[0]
