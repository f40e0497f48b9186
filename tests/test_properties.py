"""Property tests: tree text and ultrametric spec round trips, leaf views.

Skipped where hypothesis is not installed. Examples are derandomized and no
example database is written, so a run repeats exactly. The subset DP's
property test lives beside its oracle in test_objectives.py.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hierclust import HierTree, UltrametricSpec, parse  # noqa: E402

_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def nested_trees(draw, max_n=24):
    """A nested tree over 0..n-1: a random leaf order merged by random pairs, random sides."""
    n = draw(st.integers(1, max_n))
    items = list(draw(st.permutations(range(n))))
    while len(items) > 1:
        a = items.pop(draw(st.integers(0, len(items) - 1)))
        b = items.pop(draw(st.integers(0, len(items) - 1)))
        items.append((a, b))
    return items[0]


@_SETTINGS
@given(nested_trees())
def test_tree_text_round_trips(nested):
    tree = HierTree.from_nested(nested)
    text = tree.serialize()
    again = parse(text)
    assert again == tree
    assert again.serialize() == text
    assert sorted(map(sorted, (s.parent_set for s in again.splits()))) == sorted(
        map(sorted, (s.parent_set for s in tree.splits()))
    )


@_SETTINGS
@given(nested_trees(), st.data())
def test_ultrametric_spec_round_trips(nested, data):
    tree = HierTree.from_nested(nested)
    # Weights grow by a drawn increment per level, so they are monotone;
    # a zero increment above an internal child makes a tie.
    weights = {}
    for nid in reversed(range(len(tree.nodes))):
        children = tree.children(nid)
        if children is None:
            continue
        below = max((weights.get(c, 0.0) for c in children), default=0.0)
        step = data.draw(st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
        weights[nid] = below + step if below + step > 0.0 else 1.0
    spec = UltrametricSpec(tree, weights)
    text = spec.serialize()
    again = UltrametricSpec.parse(text)
    assert again.serialize() == text
    assert again.topology == tree
    assert np.array_equal(again.induced_matrix().values, spec.induced_matrix().values)


@_SETTINGS
@given(nested_trees(), st.data())
def test_leaf_views_concatenate_children_under_any_node_ids(nested, data):
    base = HierTree.from_nested(nested)
    perm = data.draw(st.permutations(range(len(base.nodes))))
    nodes = [None] * len(base.nodes)
    for nid, v in enumerate(base.nodes):
        nodes[perm[nid]] = v if isinstance(v, int) else (perm[v[0]], perm[v[1]])
    tree = HierTree(nodes, perm[base.root])
    for nid, v in enumerate(tree.nodes):
        got = tree.leaf_array(nid)
        assert not got.flags.writeable
        if isinstance(v, int):
            assert got.tolist() == [v]
        else:
            expected = np.concatenate((tree.leaf_array(v[0]), tree.leaf_array(v[1])))
            assert np.array_equal(got, expected)
    for nid, l, r in tree.split_arrays():
        a, b = tree.children(nid)
        pair = (tree.leaf_array(a), tree.leaf_array(b))
        if pair[0].min() > pair[1].min():
            pair = pair[::-1]
        assert np.array_equal(l, pair[0]) and np.array_equal(r, pair[1])
