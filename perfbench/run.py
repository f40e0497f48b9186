"""Benchmark entry point: whole rounds of one workload, then one JSON line.

    python3 perfbench/run.py --workload table1 --seed 11 --seconds 20 --trace 0

Run it from the root of a checkout; it uses `src/` as it is, with no
install. Every round starts worker.py in a fresh interpreter, which makes
the workload's inputs from the seed and calls hierclust; this process then
checks the round's outputs with checks.py. Rounds repeat until --seconds
have passed (at least one round, and never past the 180 s limit).

--trace 0 prints the end-to-end metrics, medians over the run:
  wall_s       time from the first call into hierclust to the last output
  setup_s      interpreter start, import hierclust, and writing the inputs;
               SETUP_PROBES set-up-only starts plus one per round
  peak_rss_mb  ru_maxrss of the worker process
--trace 1 runs untraced and traced rounds in pairs, adds one tracemalloc
round, and prints the per-layer metrics of spans.py.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; each
check of a round's outputs is one attempted operation. A fuller result and
the spans of the last traced round are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import numpy as np

import checks
import spans
from params import SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
SETUP_PROBES = 3
DEADLINE_S = 170.0
# Workers use one BLAS thread per CPU, whatever the caller's environment says.
BLAS_THREADS = os.cpu_count() or 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A traced round fails its check when more of its window than this lies
# outside every span, that is, when the layers do not account for the time.
MAX_UNATTRIBUTED_SHARE = 0.02


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Bench:
    """Rounds of one workload at one size and seed, in a scratch directory."""

    def __init__(self, workload, seed, size, work_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.params = SIZES[size][workload]
        self.work = work_dir
        self.inputs = os.path.join(work_dir, "inputs")
        self.out = os.path.join(work_dir, "out")
        self.deadline = deadline
        self.env = worker_env()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.last_round_s = 0.0

    def time_left(self):
        return self.deadline - time.monotonic()

    def start(self, kind, trace_file=None):
        """One worker: kind is "setup" (set-up only), "off", "spans" or "alloc".

        Returns the worker's result dict with "setup_s" added, or None if
        it failed, which counts as a failed operation.
        """
        for d in (self.inputs, self.out):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
        job = {
            "workload": self.workload, "seed": self.seed, "params": self.params,
            "inputs": self.inputs, "out": self.out, "setup_only": kind == "setup",
            "trace": "off" if kind == "setup" else kind, "trace_file": trace_file,
            "result": os.path.join(self.work, "result.json"),
        }
        job_path = os.path.join(self.work, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        if os.path.exists(job["result"]):
            os.remove(job["result"])
        began = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), job_path],
                env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=max(1.0, self.time_left()),
            )
            stderr = proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            stderr = "worker ran past the time limit"
        self.last_round_s = time.monotonic() - began
        result = {}
        if os.path.exists(job["result"]):
            with open(job["result"]) as fh:
                result = json.load(fh)
        if "setup_end" not in result or "error" in result or (
                kind != "setup" and "wall_s" not in result):
            self.fail(f"{kind} worker failed: {result.get('error', '')}{stderr}")
            return None
        result["setup_s"] = result["setup_end"] - began
        if kind != "setup":
            self.check()
        return result

    def fail(self, message):
        self.record(message.strip(), False)

    def record(self, name, ok, detail=""):
        """Count one attempted operation, failed unless `ok`."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
            print(f"check failed: {self.failures[-1]}", file=sys.stderr)

    def check(self):
        """Check the round's outputs."""
        try:
            verdicts = checks.CHECKS[self.workload](self.params, self.seed, self.inputs, self.out)
        except Exception:  # a check that cannot run is a failed check
            verdicts = [("checks ran", False, traceback.format_exc())]
        for name, ok, detail in verdicts:
            self.record(name, ok, detail)

    def room_for_another(self, started, seconds):
        """Another round fits: measuring time is left and the deadline allows it."""
        return (time.monotonic() - started < seconds
                and self.time_left() > 1.5 * self.last_round_s + 5.0)


def measure(bench, seconds):
    """End-to-end metrics: medians over untraced rounds."""
    started = time.monotonic()
    setups, walls, rss = [], [], []
    for _ in range(SETUP_PROBES):
        r = bench.start("setup")
        if r:
            setups.append(r["setup_s"])
    while True:
        r = bench.start("off")
        if r:
            setups.append(r["setup_s"])
            walls.append(r["wall_s"])
            rss.append(r["maxrss_kb"] / 1024.0)
        if not bench.room_for_another(started, seconds):
            break
    detail = dict(zip(END_TO_END, (walls, setups, rss)))
    if not walls:
        return {}, detail
    metrics = {name: statistics.median(values) for name, values in detail.items()}
    return metrics, detail


def measure_layers(bench, seconds, trace_path):
    """Per-layer metrics: untraced and traced rounds in pairs, and one tracemalloc round."""
    started = time.monotonic()
    pairs, totals, traced = [], Counter(), 0
    alloc_tried, peak_bytes = False, None
    alloc_path = trace_path + ".alloc"
    while True:
        off = bench.start("off")
        if bench.start("spans", trace_path):
            round_totals = spans.layer_totals(*spans.load(trace_path))
            totals.update(round_totals)
            traced += 1
            wall, outside = round_totals["trace.wall_s"], round_totals["trace.unattributed_s"]
            bench.record("layers account for the traced window",
                         outside <= MAX_UNATTRIBUTED_SHARE * wall,
                         f"{outside!r} of {wall!r} s lies outside every span")
            if off:
                pairs.append((off["wall_s"], round_totals["trace.wall_s"]))
        # tracemalloc slows a round up to six times over, so its one round
        # comes early, while the deadline is far. If it does not end, that
        # is a failed operation and the peak_alloc_mb metrics are left out.
        if not alloc_tried:
            alloc_tried = True
            if bench.start("alloc", alloc_path):
                # Only the header counts: tracemalloc slows this round's spans.
                with open(alloc_path) as fh:
                    peak_bytes = json.loads(fh.readline())["peak_bytes"]
                os.remove(alloc_path)
        if not bench.room_for_another(started, seconds):
            break
    if not (pairs and traced):
        return {}, {}
    metrics = spans.layer_metrics(totals, traced, pairs, peak_bytes)
    return metrics, {"untraced_and_traced_wall_s": pairs, "traced_rounds": traced}


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "hierclust", "__init__.py")):
        print(f"no hierclust sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, as an install would, so that no timed set-up
    # pays for compiling.
    if not (compileall.compile_dir(SRC, quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("sources do not compile", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        bench = Bench(args.workload, args.seed, "full", work, deadline)
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl")
            metrics, detail = measure_layers(bench, args.seconds, trace_path)
            names = spans.LAYER_METRICS
        else:
            metrics, detail = measure(bench, args.seconds)
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("no round completed", file=sys.stderr)
        return 1

    line = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n], "unit": spans.unit_of(n)}
                    for n in names if n in metrics},
    }
    with open(os.path.join(OUT, f"result-{name}.json"), "w") as fh:
        json.dump({**line, "rounds": detail, "failures": bench.failures[:50],
                   "machine": machine_facts(), "args": vars(args)}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
