"""The per-pair view of revenue as a plain loop, and the check that holds the split route to it.

The paper defines revenue pair by pair and scores a tree split by split;
`assert_split_route_matches_pair_view` keeps "the per-split view equals the
per-pair view" a runnable check for `tests/test_objectives.py` and
`tests/test_acceptance.py` alike.
"""

import math

import numpy as np

from hierclust import HierTree, PointSet, tree_revenue
from hierclust.metricspace import REL_TOL, _unit_scaled, close


def _centroid(pts):
    return pts[0] if (pts == pts[0]).all() else pts.mean(axis=0)


def loop_pair_revenue_values(coords: np.ndarray, tree: HierTree):
    """Per-split revenue as a Python loop over the n(n-1)/2 pairs, in (i, j) order.

    Each pair is scored as `pair_revenue` scores it, bit for bit, on
    `coords` as given.
    """
    arrays = tree.split_arrays()
    n = len(coords)
    radius = np.zeros((len(arrays), n))
    for s, (_, l, r) in enumerate(arrays):
        for side in (np.sort(l), np.sort(r)):
            q = coords[side] - _centroid(coords[side])
            radius[s, side] = np.sqrt((q * q).sum(axis=1))
    radii = radius.tolist()
    values = [0.0] * len(arrays)
    for i, row in enumerate(tree._split_index().tolist()):
        diff = coords[i] - coords[i + 1 :]
        dist = np.sqrt((diff * diff).sum(axis=1)).tolist()
        for j in range(i + 1, n):
            s = row[j]
            delta = max(radii[s][i], radii[s][j])
            values[s] += 1.0 if delta == 0.0 else min(dist[j - i - 1] / delta, 1.0)
    return values


def pair_view_values(points: PointSet, tree: HierTree):
    """Per-split sums of the per-pair view, on the unit-scaled coordinates revenue uses."""
    return loop_pair_revenue_values(_unit_scaled(points.coords), tree)


def assert_split_route_matches_pair_view(points: PointSet, tree: HierTree, rel: float = REL_TOL):
    """`tree_revenue`'s per-split values and total agree with the per-pair view within `rel`."""
    report = tree_revenue(points, tree)
    want = pair_view_values(points, tree)
    assert len(report.values) == len(want)
    for got, value in zip(report.values, want):
        assert close(got, value, rel=rel), (got, value)
    assert close(report.total, math.fsum(want), rel=rel), (report.total, want)
