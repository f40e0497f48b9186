"""Spans and counts around the public functions of each hierclust module.

The wrappers live here, in the benchmark, not in the program: `install`
replaces each function in WRAPPED, wherever a hierclust module or the
package binds it, by a wrapper that records a span (name, start, end,
parent, phase) and the work counts of COUNTERS. Spans stay in memory and
`Tracer.dump` writes them out when the worker ends.

Time spent in a function that is not wrapped (a private helper, a
generator) counts as self time of the nearest wrapped caller.

With `alloc=True` the tracer also runs tracemalloc and records, per module,
the largest allocation peak of one outermost call into that module above
what was allocated when the call began. That slows every allocation, so
the benchmark makes a separate round for it and ignores its times.

The second half of the file turns dumped spans into per-layer metrics; it
does not import hierclust.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
import tracemalloc
from collections import Counter

MODULES = ("metricspace", "hiertree", "algorithms", "objectives", "ultrametric", "harness")

# (module, function or Class.method, span key). Functions sharing a key are
# one span kind; a span nested in one of its own kind adds no time to it.
WRAPPED = (
    ("metricspace", "pairwise_distances", "pairwise_distances"),
    ("metricspace", "distance", "distance"),
    ("metricspace", "centroid", "centroid"),
    ("metricspace", "kmeans_cost", "kmeans_cost"),
    ("metricspace", "check_metric", "check_metric"),
    ("metricspace", "close", "close"),
    ("metricspace", "PointSet.__post_init__", "construct"),
    ("metricspace", "DistanceMatrix.__post_init__", "construct"),
    ("hiertree", "HierTree.__init__", "construct"),
    ("hiertree", "HierTree.from_nested", "construct"),
    ("hiertree", "HierTree.split_arrays", "split_arrays"),
    ("hiertree", "HierTree.splits", "splits"),
    ("hiertree", "HierTree.serialize", "serialize"),
    ("hiertree", "HierTree.to_nested", "to_nested"),
    ("hiertree", "HierTree.lca_leaf_count", "lca_leaf_count"),
    ("hiertree", "parse", "parse"),
    ("algorithms", "bisecting_kmeans", "bisecting_kmeans"),
    ("algorithms", "two_means", "two_means"),
    ("algorithms", "average_linkage", "average_linkage"),
    ("algorithms", "single_linkage", "single_linkage"),
    ("algorithms", "random_tree", "random_tree"),
    ("objectives", "tree_revenue", "tree_revenue"),
    ("objectives", "pair_revenue", "pair_revenue"),
    ("objectives", "ckmm_value", "ckmm_value"),
    ("objectives", "dasgupta_cost", "dasgupta_cost"),
    ("objectives", "triangle_decompose", "triangle_decompose"),
    ("objectives", "high_revenue_stats", "high_revenue_stats"),
    ("objectives", "brute_force_opt", "brute_force_opt"),
    ("objectives", "ObjectiveReport.__post_init__", "report"),
    ("objectives", "ObjectiveReport.to_csv", "report"),
    ("ultrametric", "generate_random", "generate_random"),
    ("ultrametric", "check_ultrametric", "check_ultrametric"),
    ("ultrametric", "embed_euclidean", "embed_euclidean"),
    ("ultrametric", "build_generating_tree", "build_generating_tree"),
    ("ultrametric", "verify_generating_tree", "verify_generating_tree"),
    ("ultrametric", "UltrametricSpec.parse", "spec_parse"),
    ("ultrametric", "UltrametricSpec.serialize", "spec_serialize"),
    ("ultrametric", "UltrametricSpec.induced_matrix", "induced_matrix"),
    ("ultrametric", "UltrametricSpec.__post_init__", "spec_construct"),
    ("harness", "cli_main", "cli_main"),
    ("harness", "ingest_csv", "ingest_csv"),
    ("harness", "ingest_csv_report", "ingest_csv"),
    ("harness", "synth_gaussian_mixture", "synth"),
    ("harness", "run_table1", "run_table1"),
    ("harness", "run_random_bad", "run_random_bad"),
    ("harness", "random_bad_report_csv", "random_bad_report_csv"),
    ("harness", "build_random_bad_instance", "build_random_bad_instance"),
    ("harness", "clean_reference_tree", "clean_reference_tree"),
)


def _double_factorial_odd(k):
    return math.prod(range(1, k + 1, 2)) if k > 0 else 1


def _count_pairwise(c, args, kwargs, result):
    c["metricspace.pairwise_distances_calls"] += 1
    c["metricspace.distance_entries"] += result.n * result.n


def _count_tree(c, args, kwargs, result):
    c["hiertree.trees_constructed"] += 1


def _count_serialize(c, args, kwargs, result):
    c["hiertree.text_bytes"] += len(result)


def _count_parse(c, args, kwargs, result):
    c["hiertree.text_bytes"] += len(args[0])


def _count_linkage(c, args, kwargs, result):
    c["algorithms.merges"] += result.n_leaves - 1


def _count_bkm(c, args, kwargs, result):
    c["algorithms.bkm_splits"] += result.n_leaves - 1


def _count_revenue(c, args, kwargs, result):
    n = args[1].n_leaves
    c["objectives.tree_revenue_calls"] += 1
    c["objectives.revenue_pairs"] += n * (n - 1) // 2


def _count_brute(c, args, kwargs, result):
    # Every topology on n leaves is scored: (2n-3)!! trees.
    c["objectives.trees_scored"] += _double_factorial_odd(2 * result[0].n_leaves - 3)


def _count_triangle(c, args, kwargs, result):
    c["objectives.triples"] += math.comb(args[1].n_leaves, 3)


def _count_check_ultrametric(c, args, kwargs, result):
    c["ultrametric.check_ultrametric_calls"] += 1


def _count_ingest(c, args, kwargs, result):
    c["harness.rows_ingested"] += result.points.n


def _count_table1(c, args, kwargs, result):
    c["harness.report_bytes"] += len(result[1])


def _count_text_report(c, args, kwargs, result):
    c["harness.report_bytes"] += len(result)


COUNTERS = {
    ("metricspace", "pairwise_distances"): _count_pairwise,
    ("hiertree", "HierTree.__init__"): _count_tree,
    ("hiertree", "HierTree.serialize"): _count_serialize,
    ("hiertree", "parse"): _count_parse,
    ("algorithms", "average_linkage"): _count_linkage,
    ("algorithms", "single_linkage"): _count_linkage,
    ("algorithms", "bisecting_kmeans"): _count_bkm,
    ("objectives", "tree_revenue"): _count_revenue,
    ("objectives", "brute_force_opt"): _count_brute,
    ("objectives", "triangle_decompose"): _count_triangle,
    ("objectives", "ObjectiveReport.to_csv"): _count_text_report,
    ("ultrametric", "check_ultrametric"): _count_check_ultrametric,
    ("harness", "ingest_csv_report"): _count_ingest,
    ("harness", "run_table1"): _count_table1,
    ("harness", "random_bad_report_csv"): _count_text_report,
}


class Tracer:
    """In-memory spans and counts for one worker process."""

    def __init__(self, alloc=False):
        self.spans = []  # [key, start, end, parent index, phase]
        self.stack = []
        self.counts = Counter()
        self.phase = "setup"
        self.window = None
        self.alloc = alloc
        self.peak_bytes = Counter()
        self._alloc_frames = []  # [module, base, highest peak seen]
        self._module_depth = Counter()
        if alloc:
            tracemalloc.start()

    def wrap(self, module, key, fn, count):
        tracer = self
        span_key = f"{module}.{key}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_key, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.phase]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            outermost = tracer.alloc and tracer._module_depth[module] == 0
            tracer._module_depth[module] += 1
            if outermost:
                tracer._alloc_enter(module)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                tracer._module_depth[module] -= 1
                if outermost:
                    tracer._alloc_exit()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _alloc_enter(self, module):
        # Resetting the peak would hide it from the calls still open, so
        # fold it into them first.
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._alloc_frames:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._alloc_frames.append([module, current, current])

    def _alloc_exit(self):
        module, base, seen = self._alloc_frames.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.peak_bytes[module] = max(self.peak_bytes[module], peak - base)

    def dump(self, path):
        head = {"window": self.window, "counts": dict(self.counts),
                "peak_bytes": dict(self.peak_bytes), "call_cost_s": wrapper_call_cost()}
        with open(path, "w") as fh:
            fh.write(json.dumps(head) + "\n")
            for key, start, end, parent, phase in self.spans:
                fh.write(json.dumps([key, start, end, parent, phase]) + "\n")


def _noop():
    return None


def wrapper_call_cost(calls=20000, repeats=5):
    """Seconds one wrapped call costs over a plain call, on a no-op.

    The best of `repeats` timings of `calls` calls each, for the wrapped
    and the plain no-op alike, so that a pause of the machine does not count.
    """
    wrapped = Tracer().wrap("trace", "noop", _noop, None)

    def best(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, (best(wrapped) - best(_noop)) / calls)


def install(tracer):
    """Replace every function in WRAPPED by its traced wrapper."""
    package = importlib.import_module("hierclust")
    modules = {name: importlib.import_module(f"hierclust.{name}") for name in MODULES}
    namespaces = [package, *modules.values()]
    for module, path, key in WRAPPED:
        owner = modules[module]
        count = COUNTERS.get((module, path))
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(module, key, raw.__func__, count)))
            else:
                setattr(cls, attr, tracer.wrap(module, key, raw, count))
            continue
        fn = getattr(owner, path)
        wrapper = tracer.wrap(module, key, fn, count)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, name, wrapper)


# ----------------------------------------------------------------------
# per-layer metrics from dumped spans

# Span keys whose outermost spans give an inclusive-time metric "<key>_s".
INCLUSIVE = (
    "metricspace.pairwise_distances",
    "hiertree.construct",
    "hiertree.split_arrays",
    "hiertree.splits",
    "hiertree.serialize",
    "hiertree.parse",
    "algorithms.average_linkage",
    "algorithms.single_linkage",
    "algorithms.bisecting_kmeans",
    "algorithms.random_tree",
    "objectives.tree_revenue",
    "objectives.ckmm_value",
    "objectives.dasgupta_cost",
    "objectives.brute_force_opt",
    "objectives.triangle_decompose",
    "objectives.high_revenue_stats",
    "ultrametric.generate_random",
    "ultrametric.spec_parse",
    "ultrametric.embed_euclidean",
    "ultrametric.build_generating_tree",
    "ultrametric.verify_generating_tree",
    "ultrametric.check_ultrametric",
    "harness.ingest_csv",
    "harness.synth",
)
# Span keys whose self time is a metric "<key>_self_s".
SELF = ("harness.run_table1", "harness.run_random_bad")
COUNTS = (
    "metricspace.pairwise_distances_calls",
    "metricspace.distance_entries",
    "hiertree.trees_constructed",
    "hiertree.text_bytes",
    "objectives.tree_revenue_calls",
    "ultrametric.check_ultrametric_calls",
    "harness.rows_ingested",
    "harness.report_bytes",
)
# rate metric -> (work count, span keys whose inclusive time is the busy time)
RATES = {
    "algorithms.merges_per_s": ("algorithms.merges",
                                ("algorithms.average_linkage", "algorithms.single_linkage")),
    "algorithms.bkm_splits_per_s": ("algorithms.bkm_splits", ("algorithms.bisecting_kmeans",)),
    "objectives.revenue_pairs_per_s": ("objectives.revenue_pairs", ("objectives.tree_revenue",)),
    "objectives.trees_scored_per_s": ("objectives.trees_scored", ("objectives.brute_force_opt",)),
    "objectives.triples_per_s": ("objectives.triples", ("objectives.triangle_decompose",)),
}
PEAKS = ("algorithms", "objectives")
TRACE = ("trace.wall_s", "trace.unattributed_s", "trace.untraced_wall_s", "trace.overhead_pct",
         "trace.spans", "trace.wrapper_cost_s")
LAYER_METRICS = (
    *(f"{key}_s" for key in INCLUSIVE),
    *(f"{key}_self_s" for key in SELF),
    *COUNTS, *RATES,
    *(f"{module}.self_s" for module in MODULES),
    *(f"{module}.peak_alloc_mb" for module in PEAKS),
    *TRACE,
)


def load(path):
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return head, spans


def layer_totals(head, spans):
    """Additive per-layer quantities of one traced round.

    Module self times count only work-phase spans, which lie inside the
    timed window; the unattributed time is the part of the window outside
    every span. The wrapper cost is the work-phase spans times the cost of
    one wrapped call.
    """
    totals = Counter(head["counts"])
    child_time = [0.0] * len(spans)
    for key, start, end, parent, phase in spans:
        if parent >= 0:
            child_time[parent] += end - start
    rooted = 0.0
    for idx, (key, start, end, parent, phase) in enumerate(spans):
        duration = end - start
        own = duration - child_time[idx]
        if phase == "work":
            totals["trace.spans"] += 1
            totals[key.split(".")[0] + ".self_s"] += own
            if parent < 0:
                rooted += duration
        totals["self:" + key] += own
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == key:
                outer = False
                break
            p = spans[p][3]
        if outer:
            totals["incl:" + key] += duration
    start, end = head["window"]
    totals["trace.wall_s"] = end - start
    totals["trace.unattributed_s"] = (end - start) - rooted
    totals["trace.wrapper_cost_s"] = totals["trace.spans"] * head["call_cost_s"]
    return totals


def layer_metrics(totals, rounds, pairs, peak_bytes):
    """Per-round per-layer metrics from `rounds` traced rounds' summed totals.

    `pairs` holds (untraced, traced) wall times of rounds run one after
    the other; the overhead is the median of their relative differences.
    `peak_bytes` is None when the tracemalloc round did not finish, and
    the peak_alloc_mb metrics are then left out.
    """
    out = {}
    for key in INCLUSIVE:
        out[f"{key}_s"] = totals["incl:" + key] / rounds
    for key in SELF:
        out[f"{key}_self_s"] = totals["self:" + key] / rounds
    for name in COUNTS:
        out[name] = totals[name] / rounds
    for name, (count, times) in RATES.items():
        busy = sum(totals["incl:" + key] for key in times)
        out[name] = totals[count] / busy if busy > 0 else 0.0
    for module in MODULES:
        out[f"{module}.self_s"] = totals[f"{module}.self_s"] / rounds
    if peak_bytes is not None:
        for module in PEAKS:
            out[f"{module}.peak_alloc_mb"] = peak_bytes.get(module, 0) / 2**20
    for name in ("trace.wall_s", "trace.unattributed_s", "trace.spans", "trace.wrapper_cost_s"):
        out[name] = totals[name] / rounds
    out["trace.untraced_wall_s"] = statistics.median(off for off, _ in pairs)
    out["trace.overhead_pct"] = statistics.median(
        100.0 * (traced - off) / off for off, traced in pairs)
    return out


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"), ("_bytes", "bytes"))


def unit_of(name):
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"
