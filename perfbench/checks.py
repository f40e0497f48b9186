"""Correctness checks on a round's outputs, computed apart from hierclust.

This module never imports hierclust. It reads the input files a round's
set-up wrote and the outputs its calls wrote, and recomputes what it can
with its own code: tree-text parsing and canonical printing, Euclidean
distances, split revenue, the leaf-count-weighted sums, the strong
triangle inequality. Every check function returns a list of
(name, passed, detail) triples; each triple is one operation of the round.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

from params import DIVISIVE_TREES, OBJECTIVES, ULTRAMETRIC_MODES

REL = 1e-9


def close(a, b, rel=REL, floor=1e-12):
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))


# ----------------------------------------------------------------------
# tree text: leaf = decimal index, internal = "(" tree "," tree ")",
# optionally followed by ":weight" in the ultrametric spec format

_TOKEN = re.compile(r"\s*(?:(\d+)|([(),])|:([0-9.eE+-]+))")


class Tree:
    """A parsed binary tree: `kids[v]` is None for a leaf, else (a, b)."""

    def __init__(self, text, weighted=False):
        self.leaf = []
        self.kids = []
        self.weight = []
        stack = []  # node ids and "(" / "," markers
        pos = 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"bad tree text at {pos}")
            pos = m.end()
            number, punct, weight = m.groups()
            if number is not None:
                stack.append(self._node(int(number), None))
            elif weight is not None:
                if not weighted or not stack or isinstance(stack[-1], str) \
                        or self.kids[stack[-1]] is None:
                    raise ValueError(f"unexpected weight at {pos}")
                self.weight[stack[-1]] = float(weight)
            elif punct == ")":
                if len(stack) < 4 or stack[-2] != "," or stack[-4] != "(":
                    raise ValueError(f"unbalanced ')' at {pos}")
                b, _, a, _ = stack.pop(), stack.pop(), stack.pop(), stack.pop()
                stack.append(self._node(-1, (a, b)))
            else:
                stack.append(punct)
        if len(stack) != 1 or isinstance(stack[0], str):
            raise ValueError("unbalanced tree text")
        self.root = stack[0]
        leaves = sorted(x for x in self.leaf if x >= 0)
        self.n = len(leaves)
        if leaves != list(range(self.n)):
            raise ValueError("leaves are not exactly 0..n-1")
        if weighted and any(
            k is not None and not w > 0 for k, w in zip(self.kids, self.weight)
        ):
            raise ValueError("an internal node has no positive weight")
        self._leaf_sets()

    def _node(self, leaf, kids):
        self.leaf.append(leaf)
        self.kids.append(kids)
        self.weight.append(None)
        return len(self.leaf) - 1

    def _leaf_sets(self):
        # Children are created before their parents, so one pass in id
        # order sees every child first.
        self.under = []
        for v, kids in enumerate(self.kids):
            if kids is None:
                self.under.append(np.array([self.leaf[v]], dtype=np.intp))
            else:
                self.under.append(np.concatenate([self.under[kids[0]], self.under[kids[1]]]))
        self.min_leaf = [int(u.min()) for u in self.under]

    def splits(self):
        """(node, left leaves, right leaves) for every internal node."""
        return [(v, self.under[k[0]], self.under[k[1]])
                for v, k in enumerate(self.kids) if k is not None]

    def canonical(self):
        """The text with the child holding the smaller leaf first at every node."""
        out = []
        todo = [self.root]
        while todo:
            v = todo.pop()
            if isinstance(v, str):
                out.append(v)
            elif self.kids[v] is None:
                out.append(str(self.leaf[v]))
            else:
                a, b = sorted(self.kids[v], key=lambda c: self.min_leaf[c])
                todo.extend([")", b, ",", a])
                out.append("(")
        return "".join(out)


# ----------------------------------------------------------------------
# reference arithmetic


def distances(x):
    """Euclidean distance matrix from coordinate differences, in row blocks."""
    n, dim = x.shape
    out = np.empty((n, n))
    step = max(1, int(2**22 // max(1, n * dim)))
    for s in range(0, n, step):
        diff = x[s:s + step, None, :] - x[None, :, :]
        out[s:s + step] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def split_revenues(x, d, tree):
    """Revenue of every split: pairs earn min(d(i,j) / delta, 1), 1 when delta is 0."""
    values = []
    for _, left, right in tree.splits():
        to_left = np.linalg.norm(x[left] - x[left].mean(axis=0), axis=1)
        to_right = np.linalg.norm(x[right] - x[right].mean(axis=0), axis=1)
        delta = np.maximum(to_left[:, None], to_right[None, :])
        cross = d[np.ix_(left, right)]
        earned = np.ones_like(cross)
        pos = delta > 0
        earned[pos] = np.minimum(cross[pos] / delta[pos], 1.0)
        values.append(math.fsum(earned.ravel()))
    return values


def lca_weighted(d, tree):
    """Sum over pairs of d(i, j) times the leaf count under their common ancestor."""
    return math.fsum(
        (len(left) + len(right)) * float(d[np.ix_(left, right)].sum())
        for _, left, right in tree.splits()
    )


def _read(path):
    with open(path) as fh:
        return fh.read()


def _points(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


# ----------------------------------------------------------------------
# table1


def _table1_report(text):
    raw, summary = {}, {}
    lines = text.splitlines()
    cut = lines.index("# summary")
    for row in csv.reader(lines[1:cut]):
        raw.setdefault((row[0], row[1]), {})[int(row[2])] = float(row[3])
    for row in csv.reader(lines[cut + 2:]):
        summary[(row[0], row[1])] = (float(row[2]), float(row[3]))
    return raw, summary


def check_table1(p, seed, inputs, out):
    x = _points(os.path.join(inputs, "points.csv"))
    raw, summary = _table1_report(_read(os.path.join(out, "report.csv")))
    m, runs = p["subsample"], p["runs"]
    pairs = m * (m - 1) // 2
    algos = ("bkm", "avg", "single", "random")  # random last, see the ranking check
    checks = []

    ub = raw.get(("upper_bound", "revenue"), {})
    checks.append(("revenue upper-bound row",
                   sorted(ub) == list(range(runs)) and all(v == pairs for v in ub.values())
                   and summary.get(("upper_bound", "revenue")) == (float(pairs), 0.0),
                   f"want ({pairs}, 0) in every run"))

    revenue = [raw.get((a, "revenue"), {}) for a in algos]
    checks.append(("revenue values in [0, m(m-1)/2]",
                   all(sorted(r) == list(range(runs)) for r in revenue)
                   and all(0.0 <= v <= pairs for r in revenue for v in r.values()), ""))

    # The subsample of run r, drawn as the harness documents it: without
    # replacement from a PCG64 seeded with SeedSequence(seed + r), sorted.
    pair_sums = []
    for r in range(runs):
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed + r)))
        idx = np.sort(g.choice(len(x), size=m, replace=False))
        pair_sums.append(float(distances(x[idx]).sum()) / 2.0)
    ub = raw.get(("upper_bound", "ckmm"), {})
    checks.append(("ckmm upper-bound row is m * sum of pair distances",
                   sorted(ub) == list(range(runs))
                   and all(close(ub[r], m * pair_sums[r]) for r in range(runs)), ""))
    ckmm = [raw.get((a, "ckmm"), {}) for a in algos]
    checks.append(("ckmm values between 2 and m times the pair-distance sum",
                   all(sorted(c) == list(range(runs)) for c in ckmm)
                   and all(2 * pair_sums[r] * (1 - REL) <= c[r] <= m * pair_sums[r] * (1 + REL)
                           for c in ckmm for r in range(runs)), ""))

    def mean_std(values):
        mean = math.fsum(values) / len(values)
        return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))

    ok = set(summary) == set(raw)
    for key, runs_of in raw.items():
        mean, std = mean_std(list(runs_of.values()))
        got = summary.get(key, (math.nan, math.nan))
        ok = ok and close(got[0], mean) and abs(got[1] - std) <= REL * max(1.0, abs(mean))
    checks.append(("summary rows are mean and population std of raw rows", ok, ""))

    ok = all(revenue[3][r] < min(rev[r] for rev in revenue[:3]) for r in range(runs))
    checks.append(("random has the lowest revenue in every run", ok, ""))
    return checks


# ----------------------------------------------------------------------
# divisive


def _eval_total(path):
    last = _read(path).strip().splitlines()[-1].split(",")
    if last[0] != "total":
        raise ValueError(f"{path} has no totals row")
    return float(last[-1])


def check_divisive(p, seed, inputs, out):
    x = _points(os.path.join(inputs, "points.csv"))
    d = distances(x)
    checks = []
    for algo in DIVISIVE_TREES:
        text = _read(os.path.join(out, f"{algo}.txt")).strip()
        tree = Tree(text)
        checks.append((f"{algo} tree text is canonical over 0..n-1",
                       tree.n == len(x) and tree.canonical() == text, ""))
        own = {"revenue": math.fsum(split_revenues(x, d, tree))}
        own["ckmm"] = own["dasgupta"] = lca_weighted(d, tree)
        for objective in OBJECTIVES:
            got = _eval_total(os.path.join(out, f"{algo}.{objective}.csv"))
            checks.append((f"{algo} {objective} total", close(got, own[objective]),
                           f"eval {got!r}, recomputed {own[objective]!r}"))
    return checks


# ----------------------------------------------------------------------
# ultrametric


def _strong_triangle(d):
    """d(x, y) <= max(d(x, z), d(y, z)) for every triple."""
    for z in range(len(d)):
        col = d[:, z]
        if (d > np.maximum(col[:, None], col[None, :])).any():
            return False
    return True


def check_ultrametric(p, seed, inputs, out):
    n = p["n"]
    checks = []
    for mode in ULTRAMETRIC_MODES:
        text = _read(os.path.join(out, f"{mode}.spec.txt"))
        checks.append((f"{mode} spec text round trip",
                       _read(os.path.join(out, f"{mode}.roundtrip.txt")) == text, ""))

        spec = Tree(text, weighted=True)
        induced = np.load(os.path.join(out, f"{mode}.induced.npy"))
        want = np.zeros((n, n))
        monotone = True
        for v, left, right in spec.splits():
            want[np.ix_(left, right)] = want[np.ix_(right, left)] = spec.weight[v]
            for kid in spec.kids[v]:
                if spec.kids[kid] is not None and spec.weight[kid] > spec.weight[v]:
                    monotone = False
        checks.append((f"{mode} induced matrix holds the spec's LCA weights",
                       spec.n == n and monotone and np.array_equal(induced, want), ""))

        emb = np.load(os.path.join(out, f"{mode}.embedding.npy"))
        got = distances(emb)
        off = ~np.eye(n, dtype=bool)
        err = float((np.abs(got - induced)[off] / induced[off]).max())
        err = max(err, float(np.abs(np.diagonal(got)).max()))
        checks.append((f"{mode} embedding reproduces the induced matrix", err <= REL,
                       f"largest error {err:.3g}"))

        checks.append((f"{mode} induced matrix is an ultrametric", _strong_triangle(induced), ""))

        result = json.loads(_read(os.path.join(out, f"{mode}.result.json")))
        tree = Tree(_read(os.path.join(out, f"{mode}.tree.txt")))
        ok = bool(result["verified"]) and tree.n == n
        for _, left, right in tree.splits():
            parent = np.concatenate([left, right])
            top = induced[np.ix_(parent, parent)].max()
            ok = ok and bool((np.abs(induced[np.ix_(left, right)] - top) <= 1e-12 * top).all())
        checks.append((f"{mode} generating tree cuts only the largest distance", ok, ""))

        full = n * (n - 1) / 2.0
        checks.append((f"{mode} generating tree earns n(n-1)/2",
                       abs(result["revenue"] - full) <= 1e-6,
                       f"{result['revenue']!r} of {full!r}"))
    return checks


# ----------------------------------------------------------------------
# claims


def _sides(left, right):
    return frozenset((frozenset(np.asarray(left).tolist()), frozenset(np.asarray(right).tolist())))


def check_claims(p, seed, inputs, out):
    with np.load(os.path.join(inputs, "instances.npz")) as z:
        arrays = {k: z[k] for k in z.files}
    result = json.loads(_read(os.path.join(out, "claims.json")))
    checks = []

    x = arrays["bf"]
    d = distances(x)
    brute = result["brute_force"]
    own = {}
    for name, entry in brute.items():
        tree = Tree(entry["tree"])
        own[name] = (lca_weighted(d, tree) if name in ("ckmm", "dasgupta")
                     else math.fsum(split_revenues(x, d, tree)))
    checks.append(("brute-force, bkm and random values recompute",
                   all(close(brute[k]["value"], own[k]) for k in brute), ""))
    opt = brute["revenue"]["value"]
    checks.append(("brute-force revenue optimum beats bkm and random",
                   all(opt >= brute[k]["value"] * (1 - REL) for k in ("bkm", "random")),
                   ", ".join(f"{k} {brute[k]['value']!r}" for k in ("revenue", "bkm", "random"))))

    for i, entry in enumerate(result["bkm"]):
        x = arrays[f"bkm{i}"]
        tree = Tree(entry["tree"])
        recomputed = {_sides(left, right): v for (_, left, right), v in
                      zip(tree.splits(), split_revenues(x, distances(x), tree))}
        ok = tree.n == len(x) and len(entry["splits"]) == tree.n - 1
        for s in entry["splits"]:
            left, right = s["left"], s["right"]
            ok = (ok and close(s["revenue"], recomputed.get(_sides(left, right), math.nan))
                  and s["revenue"] >= len(left) * len(right) / 35.0 - REL
                  and s["larger"] == max(len(left), len(right))
                  and 7 * s["high"] >= 4 * s["larger"])
        checks.append((f"bkm instance {i}: every split earns |S1||S2|/35, 4/7 high", ok, ""))

    for i, entry in enumerate(result["triangle"]):
        x = arrays[f"tri{i}"]
        want = lca_weighted(distances(x), Tree(entry["tree"]))
        checks.append((f"triangle instance {i}: identity reconstructs ckmm",
                       close(entry["reconstructed"], want) and close(entry["ckmm"], want),
                       f"{entry['reconstructed']!r} vs {want!r}"))

    rows = list(csv.DictReader(_read(os.path.join(out, "random_bad.csv")).splitlines()))
    sizes = [int(r["n"]) for r in rows]
    means = [float(r["mean_ratio"]) for r in rows]
    checks.append(("random-bad reference ratios are 1",
                   sizes == list(p["bad_sizes"])
                   and all(abs(float(r["reference_ratio"]) - 1.0) <= REL for r in rows), ""))
    checks.append(("random-bad mean ratios fall with n",
                   all(a > b for a, b in zip(means, means[1:])), f"{means}"))
    return checks


CHECKS = {
    "table1": check_table1,
    "divisive": check_divisive,
    "ultrametric": check_ultrametric,
    "claims": check_claims,
}
