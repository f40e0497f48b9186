"""A first look at the split-revenue objective on a three-point line.

Points sit at 0, 1, and 5. A good dendrogram peels off the far point first
and keeps {0, 1} together; a bad one separates the close pair at the root.
Each separated pair earns min(d(i,j) / delta, 1), where delta is the larger
of the two points' distances to their own side's centroid, so revenue
rewards splits whose cross distances dominate the within-side spread.
"""

from hierclust import (
    HierTree,
    PointSet,
    brute_force_opt,
    pair_revenue,
    revenue_upper_bound,
    tree_revenue,
)

points = PointSet([[0.0], [1.0], [5.0]])
print("points:", points.coords.ravel().tolist())
print("upper bound C(3,2) =", revenue_upper_bound(3))

print("\n-- a single pair --")
# Split ({0,1} | {5}) separates the pairs (0,5) and (1,5).
r = pair_revenue(points, {0, 1}, {2}, 0, 2)
print("rev(0, 5) at split {0,1}|{5}:", r, " (d=5 dwarfs delta=0.5, capped at 1)")

print("\n-- whole trees --")
for text, nested in [("((0,1),2)", ((0, 1), 2)), ("((0,2),1)", ((0, 2), 1)), ("((1,2),0)", ((1, 2), 0))]:
    tree = HierTree.from_nested(nested)
    rep = tree_revenue(points, tree)
    per = [round(v, 3) for _, v in rep.per_split]
    print(f"tree {text}: total {rep.total:.3f}  per-split {per}")

print("\n-- exhaustive optimum --")
best_tree, best_value = brute_force_opt(points, "revenue")
print("optimal tree:", best_tree.serialize(), "value:", best_value)
print("the natural tree earns the full bound:", best_value == revenue_upper_bound(3))

print("\n-- the two evaluation routes agree --")
tree = HierTree.from_nested(((0, 1), 2))
print("split_sum:", tree_revenue(points, tree).total)
# The per-pair view: every pair scored in the split that separates it.
pair_sum = sum(
    pair_revenue(points, s.left_set, s.right_set, i, j)
    for s in tree.splits()
    for i in s.left_set
    for j in s.right_set
)
print("pair_sum: ", pair_sum)
