"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload once at its tiny size on seed 11 and on seed 29 (a
seed not used while the benchmark was written) and requires every check to
pass. Then it plants faults in the seed-11 outputs, one at a time, and
requires each to make at least one check fail. Exits 0 when all of that
holds. Takes under a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import time

import numpy as np

from params import WORKLOADS
from run import OUT, Bench

SEEDS = (11, 29)


def edit(path, change):
    with open(path) as fh:
        text = fh.read()
    new = change(text)
    if new == text:
        raise AssertionError(f"planted fault left {path} unchanged")
    with open(path, "w") as fh:
        fh.write(new)


def nudge_line(prefix, factor=1 + 1e-6):
    """Multiply the last field of the first line starting with `prefix`."""
    def change(text):
        lines = text.splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        head, value = lines[k].rsplit(",", 1)
        lines[k] = f"{head},{float(value) * factor!r}"
        return "\n".join(lines) + "\n"
    return change


def swap_outer_leaves(text):
    """Swap the first and last leaf of a tree text: they sit on opposite sides of the root."""
    tokens = list(re.finditer(r"\d+", text))
    first, last = tokens[0], tokens[-1]
    return (text[:first.start()] + last.group() + text[first.end():last.start()]
            + first.group() + text[last.end():])


def swap_table1_algorithms(text):
    """Relabel bkm's revenue rows as random's and the other way round."""
    swap = {"bkm,revenue,": "random,revenue,", "random,revenue,": "bkm,revenue,"}
    return "\n".join(
        next((swap[p] + line[len(p):] for p in swap if line.startswith(p)), line)
        for line in text.splitlines()) + "\n"


def edit_json(path, change):
    with open(path) as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def nudge_npy(path):
    a = np.load(path)
    a[0, 1] *= 1 + 1e-6
    a[1, 0] = a[0, 1]
    np.save(path, a)


def swap_mean_ratios(text):
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[0][1], rows[-1][1] = rows[-1][1], rows[0][1]
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def claims_fault(change):
    def plant(out):
        edit_json(os.path.join(out, "claims.json"), change)
    return plant


def _nudge_triangle(data):
    data["triangle"][0]["reconstructed"] *= 1 + 1e-6


def _swap_bkm_tree(data):
    data["bkm"][0]["tree"] = swap_outer_leaves(data["bkm"][0]["tree"])


def _nudge_brute(data):
    data["brute_force"]["ckmm"]["value"] *= 1 + 1e-6


def _nudge_ultrametric_revenue(data):
    data["revenue"] *= 1 - 1e-6


# workload -> [(fault name, function planting it in the out directory)]
FAULTS = {
    "table1": [
        ("bkm revenue nudged by 1e-6", lambda out: edit(
            os.path.join(out, "report.csv"), nudge_line("bkm,revenue,0,"))),
        ("ckmm upper bound nudged by 1e-6", lambda out: edit(
            os.path.join(out, "report.csv"), nudge_line("upper_bound,ckmm,0,"))),
        ("random and bkm revenue rows exchanged", lambda out: edit(
            os.path.join(out, "report.csv"), swap_table1_algorithms)),
    ],
    "divisive": [
        ("bkm tree with two leaves swapped", lambda out: edit(
            os.path.join(out, "bkm.txt"), swap_outer_leaves)),
        ("bkm revenue total nudged by 1e-6", lambda out: edit(
            os.path.join(out, "bkm.revenue.csv"), nudge_line("total,"))),
        ("random dasgupta total nudged by 1e-6", lambda out: edit(
            os.path.join(out, "random.dasgupta.csv"), nudge_line("total,"))),
    ],
    "ultrametric": [
        ("induced distance nudged by 1e-6", lambda out: nudge_npy(
            os.path.join(out, "strict.induced.npy"))),
        ("generating tree with two leaves swapped", lambda out: edit(
            os.path.join(out, "with_ties.tree.txt"), swap_outer_leaves)),
        ("generating-tree revenue nudged by 1e-6", lambda out: edit_json(
            os.path.join(out, "strict.result.json"), _nudge_ultrametric_revenue)),
        ("round-trip text with one weight changed", lambda out: edit(
            os.path.join(out, "with_ties.roundtrip.txt"),
            lambda t: re.sub(r":(\d)", lambda m: f":{(int(m.group(1)) + 1) % 10}", t, count=1))),
    ],
    "claims": [
        ("triangle reconstruction nudged by 1e-6", claims_fault(_nudge_triangle)),
        ("bkm tree with two leaves swapped", claims_fault(_swap_bkm_tree)),
        ("brute-force ckmm optimum nudged by 1e-6", claims_fault(_nudge_brute)),
        ("random-bad mean ratios out of order", lambda out: edit(
            os.path.join(out, "random_bad.csv"), swap_mean_ratios)),
    ],
}


def main():
    problems = []
    work = os.path.join(OUT, f"selftest-{os.getpid()}")
    try:
        for workload in WORKLOADS:
            for seed in SEEDS:
                bench = Bench(workload, seed, "tiny", os.path.join(work, f"{workload}-{seed}"),
                              time.monotonic() + 300.0)
                os.makedirs(bench.work)
                if bench.start("off") is None or bench.failed or not bench.attempted:
                    problems.append(f"{workload} seed {seed}: checks failed {bench.failures}")
                    continue
                print(f"{workload} seed {seed}: {bench.attempted} checks pass")
                if seed != SEEDS[0]:
                    continue
                pristine = bench.out + ".pristine"
                shutil.copytree(bench.out, pristine)
                for name, plant in FAULTS[workload]:
                    shutil.rmtree(bench.out)
                    shutil.copytree(pristine, bench.out)
                    plant(bench.out)
                    seen = len(bench.failures)
                    bench.check()
                    caught = [f.splitlines()[-1] for f in bench.failures[seen:]]
                    if caught:
                        print(f"  planted '{name}': caught by {caught}")
                    else:
                        problems.append(f"{workload}: planted '{name}' not caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
