"""The four workloads: inputs made from a seed, and the calls into hierclust.

Each workload has a `setup` that makes and writes its input files and a
`run` that makes every call into hierclust and writes every output the
checks in checks.py read. worker.py runs both in a fresh interpreter.
`hierclust` is always reached through the package attribute at call time
(`hc.name`), so that the wrappers spans.py installs are the ones called.
"""

from __future__ import annotations

import json
import os

import numpy as np

import hierclust as hc
from params import DIVISIVE_TREES, OBJECTIVES, SEPARATION, ULTRAMETRIC_MODES


def _cli(argv):
    rc = hc.cli_main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"hierclust {' '.join(map(str, argv))} exited with {rc}")


def _synth(p, seed, path):
    _cli(["synth", "--k", p["k"], "--n", p["n"], "--dim", p["dim"],
          "--separation", SEPARATION, "--seed", seed, "--out", path])


# ----------------------------------------------------------------------
# table1: the paper's algorithms x objectives table through the CLI


def setup_table1(p, seed, inputs):
    _synth(p, seed, os.path.join(inputs, "points.csv"))


def run_table1(p, seed, inputs, out):
    _cli(["experiment", "table1", "--points", os.path.join(inputs, "points.csv"),
          "--subsample", p["subsample"], "--runs", p["runs"], "--seed", seed,
          "--algo", "bkm,avg,single,random", "--objective", "revenue,ckmm",
          "--out", os.path.join(out, "report.csv")])


# ----------------------------------------------------------------------
# divisive: cluster and eval through the CLI, no agglomerative work


def setup_divisive(p, seed, inputs):
    _synth(p, seed, os.path.join(inputs, "points.csv"))


def run_divisive(p, seed, inputs, out):
    points = os.path.join(inputs, "points.csv")
    for algo in DIVISIVE_TREES:
        extra = ["--solver", "lloyd"] if algo == "bkm" else []
        _cli(["cluster", "--points", points, "--algo", algo, *extra,
              "--seed", seed, "--out", os.path.join(out, f"{algo}.txt")])
    for algo in DIVISIVE_TREES:
        for objective in OBJECTIVES:
            _cli(["eval", "--objective", objective, "--points", points,
                  "--tree-file", os.path.join(out, f"{algo}.txt"),
                  "--out", os.path.join(out, f"{algo}.{objective}.csv")])


# ----------------------------------------------------------------------
# ultrametric: the ground-truth path, in both weight modes


def setup_ultrametric(p, seed, inputs):
    # generate_random draws the instance itself from (seed, mode); there
    # is no input file beyond the parameters.
    with open(os.path.join(inputs, "params.json"), "w") as fh:
        json.dump({"n": p["n"], "seed": seed, "modes": ULTRAMETRIC_MODES}, fh)


def run_ultrametric(p, seed, inputs, out):
    for k, mode in enumerate(ULTRAMETRIC_MODES):
        spec = hc.generate_random(p["n"], hc.RngStream(seed, (k,)), mode)
        text = spec.serialize()
        again = hc.UltrametricSpec.parse(text)
        points = hc.embed_euclidean(again)
        induced = again.induced_matrix()
        tree = hc.build_generating_tree(induced)
        verified, _ = hc.verify_generating_tree(induced, tree)
        revenue = hc.tree_revenue(points, tree).total
        with open(os.path.join(out, f"{mode}.spec.txt"), "w") as fh:
            fh.write(text)
        with open(os.path.join(out, f"{mode}.roundtrip.txt"), "w") as fh:
            fh.write(again.serialize())
        with open(os.path.join(out, f"{mode}.tree.txt"), "w") as fh:
            fh.write(tree.serialize())
        np.save(os.path.join(out, f"{mode}.embedding.npy"), points.coords)
        np.save(os.path.join(out, f"{mode}.induced.npy"), induced.values)
        with open(os.path.join(out, f"{mode}.result.json"), "w") as fh:
            json.dump({"verified": bool(verified), "revenue": revenue}, fh)


# ----------------------------------------------------------------------
# claims: the paper's small-n theorems as thousands of tiny calls


def setup_claims(p, seed, inputs):
    # Only the coordinates depend on the seed. The instance sizes cycle
    # through fixed values, so every seed does the same amount of work.
    g = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 4])))
    lo, hi = p["bkm_n"]
    arrays = {"bf": g.standard_normal((p["bf_n"], 3))}
    for i in range(p["bkm_instances"]):
        arrays[f"bkm{i}"] = g.standard_normal((lo + i % (hi - lo + 1), 1 + i % 4))
    for i in range(p["tri_instances"]):
        arrays[f"tri{i}"] = g.standard_normal((p["tri_n"], 3))
    np.savez(os.path.join(inputs, "instances.npz"), **arrays)


def run_claims(p, seed, inputs, out):
    with np.load(os.path.join(inputs, "instances.npz")) as z:
        arrays = {k: z[k] for k in z.files}
    result = {}

    bf = hc.PointSet(arrays["bf"])
    dist = hc.pairwise_distances(bf)
    brute = {}
    for objective in OBJECTIVES:
        tree, value = hc.brute_force_opt(bf if objective == "revenue" else dist, objective)
        brute[objective] = {"tree": tree.serialize(), "value": value}
    exhaustive = hc.TwoMeansSolverConfig(kind="exhaustive", seed=seed)
    for name, tree in (("bkm", hc.bisecting_kmeans(bf, exhaustive)),
                       ("random", hc.random_tree(bf.n, hc.RngStream(seed, (1,))))):
        brute[name] = {"tree": tree.serialize(), "value": hc.tree_revenue(bf, tree).total}
    result["brute_force"] = brute

    bkm = []
    for i in range(p["bkm_instances"]):
        pts = hc.PointSet(arrays[f"bkm{i}"])
        config = hc.TwoMeansSolverConfig(kind="exhaustive", seed=seed + i)
        tree = hc.bisecting_kmeans(pts, config)
        splits = []
        for split, value in hc.tree_revenue(pts, tree).per_split:
            stats = hc.high_revenue_stats(pts, split.left_set, split.right_set)
            splits.append({
                "left": sorted(split.left_set),
                "right": sorted(split.right_set),
                "revenue": value,
                "larger": len(stats.side_a),
                "high": len(stats.high_revenue_points_in_larger),
            })
        bkm.append({"tree": tree.serialize(), "splits": splits})
    result["bkm"] = bkm

    tri = []
    for i in range(p["tri_instances"]):
        pts = hc.PointSet(arrays[f"tri{i}"])
        dist = hc.pairwise_distances(pts)
        tree = hc.random_tree(pts.n, hc.RngStream(seed, (2, i)))
        td = hc.triangle_decompose(dist, tree)
        tri.append({"tree": tree.serialize(), "reconstructed": td.reconstructed_total,
                    "ckmm": hc.ckmm_value(dist, tree).total})
    result["triangle"] = tri

    rows = hc.run_random_bad(list(p["bad_sizes"]), p["bad_trials"], hc.RngStream(seed, (3,)))
    with open(os.path.join(out, "random_bad.csv"), "w") as fh:
        fh.write(hc.random_bad_report_csv(rows))
    with open(os.path.join(out, "claims.json"), "w") as fh:
        json.dump(result, fh)


SETUP = {
    "table1": setup_table1,
    "divisive": setup_divisive,
    "ultrametric": setup_ultrametric,
    "claims": setup_claims,
}
RUN = {
    "table1": run_table1,
    "divisive": run_divisive,
    "ultrametric": run_ultrametric,
    "claims": run_claims,
}
