"""Experiments, data plumbing, and the command-line interface.

The two experiments mirror the benchmark tables this library exists to
reproduce at desk scale:

* `run_table1` subsamples a dataset, runs a selection of the four tree
  builders over several seeded runs, evaluates the requested objectives, and
  reports per-run values plus mean / population-std summaries together with
  the objective upper bounds.
* `run_random_bad` builds the unbalanced two-cluster instance (n^2 points at
  one spot, n at another) on which random splitting provably loses most of
  the achievable revenue, and measures the revenue ratio of random trees
  against the exact optimum.

Experiments take their data and return their report text; only the CLI
reads and writes files. All CSV output is byte-stable for fixed inputs:
floats are written with repr and rows are emitted in sorted order.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algorithms import (
    RngStream,
    _check_seed,
    TwoMeansSolverConfig,
    average_linkage,
    bisecting_kmeans,
    random_tree,
    single_linkage,
)
from .hiertree import HierTree, TreeParseError, parse
from .metricspace import DistanceMatrix, PointSet, pairwise_distances
from .objectives import (
    OBJECTIVE_KINDS,
    OPT_MAX_N,
    ObjectiveReport,
    brute_force_opt,
    ckmm_value,
    dasgupta_cost,
    revenue_upper_bound,
    tree_revenue,
)
from .ultrametric import UltrametricSpec, embed_euclidean, generate_random

ALGORITHMS = ("bkm", "avg", "single", "random")

_ALGO_KEY = {name: k for k, name in enumerate(ALGORITHMS)}


class DataError(ValueError):
    """Bad input data or an unrunnable configuration (CLI exit code 2)."""


# The largest n x n float64 distance matrix, or n x 2(n-1) ultrametric
# embedding, an experiment or CLI command may allocate; the linkage builders
# hold one working copy of a distance matrix of the same size.
_MAX_DISTANCE_BYTES = 1 << 30


def _check_size(rows: int, cols: int, what: str) -> None:
    """Refuse a rows x cols float64 array over `_MAX_DISTANCE_BYTES` before it is allocated."""
    nbytes = rows * cols * 8
    if nbytes > _MAX_DISTANCE_BYTES:
        raise DataError(
            f"a {rows}x{cols} {what} needs {nbytes} bytes,"
            f" over the limit of {_MAX_DISTANCE_BYTES} bytes"
        )


def _distances(points: PointSet) -> DistanceMatrix:
    """The points' distance matrix, refused before allocation when too large."""
    _check_size(points.n, points.n, "distance matrix")
    return pairwise_distances(points)


# ----------------------------------------------------------------------
# CSV ingestion


@dataclass(frozen=True)
class IngestOptions:
    """Column selection and parsing options for points CSV files.

    With `columns=None` every column that parses as a number in every row is
    kept and the rest are dropped. With explicit columns, rows where a
    selected cell fails to parse are rejected (dropped and reported).
    A row's number is the 1-based file line it starts on, counting a skipped
    header, blank lines and newlines inside quoted cells. A leading UTF-8
    byte-order mark is not part of the first cell.
    """

    columns: Optional[Tuple[int, ...]] = None
    skip_header: bool = False
    delimiter: str = ","


@dataclass(frozen=True)
class IngestResult:
    points: PointSet
    used_columns: Tuple[int, ...]
    dropped_columns: Tuple[int, ...]
    rejected_rows: Tuple[int, ...]


def _parse_cell(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def ingest_csv_report(path: str, options: IngestOptions = IngestOptions()) -> IngestResult:
    """Load a points CSV and report which columns and rows were used."""
    rows: List[List[str]] = []
    line: List[int] = []  # the file line each row starts on
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=options.delimiter)
            if options.skip_header:
                next(reader, None)
            start = reader.line_num + 1
            for row in reader:
                if row:
                    rows.append(row)
                    line.append(start)
                start = reader.line_num + 1
    except (OSError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} has no data rows")
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"inconsistent column count at row {line[k]}: expected {width}, got {len(row)}"
            )

    # A row is parsed in one pass; only a row where float() refuses some
    # cell is parsed again cell by cell, with None for the refused cells.
    parsed: List[List[Optional[float]]] = []
    slow: List[int] = []
    for k, row in enumerate(rows):
        try:
            parsed.append(list(map(float, row)))
        except ValueError:
            parsed.append([_parse_cell(c) for c in row])
            slow.append(k)
    if options.columns is None:
        used = tuple(j for j in range(width) if all(parsed[k][j] is not None for k in slow))
        dropped = tuple(j for j in range(width) if j not in used)
        if not used:
            raise DataError("no numeric columns found")
        data = [[row[j] for j in used] for row in parsed] if dropped else parsed
        rejected: Tuple[int, ...] = ()
    else:
        used = tuple(int(j) for j in options.columns)
        if not used:
            raise DataError("empty column selection")
        for j in used:
            if not 0 <= j < width:
                raise DataError(f"selected column {j} out of range for width {width}")
        dropped = ()
        bad = [k for k in slow if any(parsed[k][j] is None for j in used)]
        rejected = tuple(line[k] for k in bad)
        if bad:
            skip = set(bad)
            parsed = [row for k, row in enumerate(parsed) if k not in skip]
        data = parsed if used == tuple(range(width)) else [[row[j] for j in used] for row in parsed]
        if not data:
            raise DataError("every row was rejected; no points left")
    return IngestResult(
        points=PointSet(np.array(data, dtype=np.float64)),
        used_columns=used,
        dropped_columns=dropped,
        rejected_rows=rejected,
    )


def ingest_csv(path: str, options: IngestOptions = IngestOptions()) -> PointSet:
    """Load a points CSV: one point per accepted row."""
    return ingest_csv_report(path, options).points


# ----------------------------------------------------------------------
# synthetic instances


def synth_gaussian_mixture(
    k: int, n: int, dim: int, separation: float, rng: RngStream
) -> PointSet:
    """n points from k unit-variance spherical clusters, sizes balanced to +-1.

    Centers sit at pairwise distance at least `separation`: on scaled
    coordinate axes when k <= dim, else on a one-axis lattice.
    """
    if k < 1 or n < 1 or dim < 1:
        raise ValueError("k, n, and dim must all be positive")
    centers = np.zeros((k, dim))
    if k <= dim:
        for c in range(k):
            centers[c, c] = separation
    else:
        centers[:, 0] = separation * np.arange(k)
    sizes = [n // k + (1 if c < n % k else 0) for c in range(k)]
    g = rng.generator()
    blocks = []
    for c in range(k):
        if sizes[c]:
            blocks.append(centers[c] + g.standard_normal((sizes[c], dim)))
    return PointSet(np.concatenate(blocks, axis=0))


@dataclass(frozen=True)
class RandomBadInstanceSpec:
    """The unbalanced two-location instance: n^2 points at A, n points at B.

    B sits at distance 1 from A; revenue is scale-invariant, so the
    distance changes no ratio.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")

    @property
    def total_points(self) -> int:
        return self.n * self.n + self.n

    def optimal_revenue(self) -> float:
        return revenue_upper_bound(self.total_points)


def build_random_bad_instance(spec: RandomBadInstanceSpec) -> PointSet:
    """n^2 coincident points at the origin, n more at 1 on the axis."""
    coords = np.zeros((spec.total_points, 1))
    coords[spec.n * spec.n :, 0] = 1.0
    return PointSet(coords)


def _chain(ids: Sequence[int]):
    nested: object = ids[0]
    for x in ids[1:]:
        nested = (nested, x)
    return nested


def clean_reference_tree(spec: RandomBadInstanceSpec) -> HierTree:
    """Separate the two locations at the root, then finish each side any way.

    Every split of this tree is clean, so it earns the full n(n-1)/2 units:
    the exact optimum for the instance.
    """
    a = spec.n * spec.n
    nested = (_chain(range(a)), _chain(range(a, spec.total_points)))
    return HierTree.from_nested(nested)


# ----------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class GaussianMixtureSpec:
    k: int
    n: int
    dim: int
    separation: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_seed("seed", self.seed)

    def build(self) -> PointSet:
        return synth_gaussian_mixture(self.k, self.n, self.dim, self.separation, RngStream(self.seed))


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark-table run: subsample size, runs, algorithms, objectives."""

    subsample_size: int
    num_runs: int = 5
    algorithms: Tuple[str, ...] = ALGORITHMS
    objectives: Tuple[str, ...] = ("revenue", "ckmm")
    base_seed: int = 0
    solver: str = "lloyd"
    lloyd_restarts: int = 10

    def __post_init__(self) -> None:
        if self.num_runs < 1:
            raise ValueError("num_runs must be at least 1")
        if self.subsample_size < 1:
            raise ValueError("subsample_size must be positive")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        for o in self.objectives:
            if o not in OBJECTIVE_KINDS:
                raise ValueError(f"unknown objective {o!r}")
        # A repeated name would be run again and filed under the same key.
        for field, names in (("algorithms", self.algorithms), ("objectives", self.objectives)):
            if len(set(names)) < len(names):
                raise ValueError(f"{field} must not repeat a name, got {','.join(names)}")
        _check_seed("base_seed", self.base_seed)
        self._solver_config(seed=0)  # validates the solver fields

    def _solver_config(self, seed: int) -> TwoMeansSolverConfig:
        return TwoMeansSolverConfig(kind=self.solver, lloyd_restarts=self.lloyd_restarts, seed=seed)


@dataclass(frozen=True)
class StatsRow:
    """Mean and population standard deviation of one (algorithm, objective) cell."""

    algorithm: str
    objective: str
    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (self.std >= 0.0):
            raise ValueError("std must be nonnegative")


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    arr = np.array(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _build_tree(
    name: str,
    points: PointSet,
    dist: Optional[DistanceMatrix],
    solver: TwoMeansSolverConfig,
    rng: RngStream,
) -> HierTree:
    """One algorithm's tree; `dist` must be the points' distances for avg and single."""
    if name == "bkm":
        return bisecting_kmeans(points, solver)
    if name == "random":
        return random_tree(points.n, rng)
    assert dist is not None
    if name == "avg":
        return average_linkage(dist)
    if name == "single":
        return single_linkage(dist)
    raise ValueError(f"unknown algorithm {name!r}")


def _objective_report(objective: str, points: PointSet, dist: Optional[DistanceMatrix], tree: HierTree) -> ObjectiveReport:
    """One objective's report; `dist` must be the points' distances for ckmm and dasgupta."""
    if objective == "revenue":
        return tree_revenue(points, tree)
    assert dist is not None
    if objective == "ckmm":
        return ckmm_value(dist, tree)
    return dasgupta_cost(dist, tree)


def run_table1(data: PointSet, config: ExperimentConfig) -> Tuple[List[StatsRow], str]:
    """Run the benchmark-table experiment on `data`; returns summary rows and the CSV text.

    Each run subsamples `subsample_size` points without replacement (seeded
    with base_seed + run), builds every requested algorithm's tree, and
    evaluates every requested objective. Upper-bound rows are emitted for
    revenue (the pair count, identical each run) and ckmm (m times the sum
    of pairwise distances of the run's subsample).
    """
    m = config.subsample_size
    if m > data.n:
        raise DataError(f"subsample size {m} exceeds dataset size {data.n}")
    needs_dist = any(o in ("ckmm", "dasgupta") for o in config.objectives) or "avg" in config.algorithms or "single" in config.algorithms

    raw: Dict[Tuple[str, str], List[float]] = {}
    for r in range(config.num_runs):
        g = RngStream(config.base_seed + r).generator()
        idx = np.sort(g.choice(data.n, size=m, replace=False))
        sub = PointSet(data.coords[idx])
        dist = _distances(sub) if needs_dist else None
        for name in config.algorithms:
            rng = RngStream(config.base_seed).substream(r, _ALGO_KEY[name])
            tree = _build_tree(name, sub, dist, config._solver_config(rng.seed_int()), rng)
            for objective in config.objectives:
                raw.setdefault((name, objective), []).append(
                    _objective_report(objective, sub, dist, tree).total
                )
        if "revenue" in config.objectives:
            raw.setdefault(("upper_bound", "revenue"), []).append(revenue_upper_bound(m))
        if "ckmm" in config.objectives:
            assert dist is not None
            raw.setdefault(("upper_bound", "ckmm"), []).append(m * float(dist.values.sum()) / 2.0)

    stats = [
        StatsRow(name, objective, *_mean_std(values))
        for (name, objective), values in sorted(raw.items())
    ]
    lines = ["algorithm,objective,run,value"]
    for (name, objective), values in sorted(raw.items()):
        for r, v in enumerate(values):
            lines.append(f"{name},{objective},{r},{v!r}")
    lines.append("# summary")
    lines.append("algorithm,objective,mean,std")
    for row in stats:
        lines.append(f"{row.algorithm},{row.objective},{row.mean!r},{row.std!r}")
    return stats, "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RandomBadRow:
    n: int
    mean_ratio: float
    std_ratio: float
    reference_ratio: float


def run_random_bad(sizes: Sequence[int], trials: int, rng: RngStream) -> List[RandomBadRow]:
    """Revenue ratio of random trees on the unbalanced instance, per size.

    For each n the instance has n^2 + n points and a known exact optimum;
    `trials` independent random trees are scored against it. The clean
    reference tree's ratio is reported alongside and should always be 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out = []
    for n in sizes:
        spec = RandomBadInstanceSpec(int(n))
        points = build_random_bad_instance(spec)
        opt = spec.optimal_revenue()
        ref = tree_revenue(points, clean_reference_tree(spec)).total / opt
        ratios = []
        for t in range(trials):
            tree = random_tree(points.n, rng.substream(int(n), t))
            ratios.append(tree_revenue(points, tree).total / opt)
        mean, std = _mean_std(ratios)
        out.append(RandomBadRow(int(n), mean, std, ref))
    return out


def random_bad_report_csv(rows: Sequence[RandomBadRow]) -> str:
    lines = ["n,mean_ratio,std_ratio,reference_ratio"]
    for row in rows:
        lines.append(f"{row.n},{row.mean_ratio!r},{row.std_ratio!r},{row.reference_ratio!r}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CLI


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _points_csv_text(points: PointSet) -> str:
    lines = [",".join(repr(float(x)) for x in row) for row in points.coords]
    return "\n".join(lines) + "\n"


def _write_or_print(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from exc


def _ingest_options(args: argparse.Namespace) -> IngestOptions:
    columns = None
    if args.columns:
        columns = tuple(int(c) for c in args.columns.split(","))
    return IngestOptions(columns=columns, skip_header=args.skip_header, delimiter=args.delimiter)


def _load_points(args: argparse.Namespace) -> PointSet:
    result = ingest_csv_report(args.points, _ingest_options(args))
    if result.dropped_columns:
        print(
            f"dropped {len(result.dropped_columns)} non-numeric column(s):"
            f" {list(result.dropped_columns)}",
            file=sys.stderr,
        )
    if result.rejected_rows:
        print(f"rejected {len(result.rejected_rows)} row(s): {list(result.rejected_rows)}", file=sys.stderr)
    return result.points


def _add_points_arguments(p: argparse.ArgumentParser, required: bool) -> None:
    what = "points CSV, one point per row" if required else "points CSV (else use --synth-*)"
    p.add_argument("--points", required=required, help=what)
    p.add_argument("--columns", default=None, help="comma-separated column indices to use")
    p.add_argument("--skip-header", action="store_true", help="skip the first row")
    p.add_argument("--delimiter", default=",")


def _build_cli() -> _Parser:
    parser = _Parser(prog="hierclust", description="Hierarchical clustering objectives and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a Gaussian mixture points CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("gen-ultrametric", help="generate a random ultrametric spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("strict", "with-ties"), default="strict")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_gen_ultrametric)

    p = sub.add_parser("embed", help="embed an ultrametric spec as a points CSV")
    p.add_argument("--spec", required=True, help="annotated tree file")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_embed)

    p = sub.add_parser("cluster", help="build a tree from a points CSV")
    _add_points_arguments(p, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--solver", choices=("exhaustive", "lloyd"), default="lloyd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_cluster)

    p = sub.add_parser("eval", help="evaluate an objective for a tree over points")
    _add_points_arguments(p, required=True)
    p.add_argument("--objective", choices=OBJECTIVE_KINDS, required=True)
    p.add_argument("--tree-file", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser(
        "enumerate-opt", help=f"exact optimum over all trees (n <= {OPT_MAX_N})"
    )
    _add_points_arguments(p, required=True)
    p.add_argument("--objective", choices=OBJECTIVE_KINDS, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_enumerate_opt)

    p = sub.add_parser("experiment", help="run a benchmark experiment")
    esub = p.add_subparsers(dest="experiment", required=True)

    t = esub.add_parser("table1", help="algorithms x objectives summary table")
    _add_points_arguments(t, required=False)
    t.add_argument("--synth-k", type=int, default=None)
    t.add_argument("--synth-n", type=int, default=None)
    t.add_argument("--synth-dim", type=int, default=None)
    t.add_argument("--synth-separation", type=float, default=10.0)
    t.add_argument("--synth-seed", type=int, default=0)
    t.add_argument("--subsample", type=int, required=True)
    t.add_argument("--runs", type=int, default=5)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--algo", default="bkm,avg,single,random", help="comma-separated algorithms")
    t.add_argument("--objective", default="revenue,ckmm", help="comma-separated objectives")
    t.add_argument("--solver", choices=("exhaustive", "lloyd"), default="lloyd")
    t.add_argument("--restarts", type=int, default=10)
    t.add_argument("--out", default=None)
    t.set_defaults(run=_cmd_table1)

    rb = esub.add_parser("random-bad", help="revenue ratio decay of random trees")
    rb.add_argument("--sizes", default="4,8,12", help="comma-separated values of n")
    rb.add_argument("--trials", type=int, default=200)
    rb.add_argument("--seed", type=int, default=0)
    rb.add_argument("--out", default=None)
    rb.set_defaults(run=_cmd_random_bad)

    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    points = GaussianMixtureSpec(args.k, args.n, args.dim, args.separation, args.seed).build()
    _write_or_print(_points_csv_text(points), args.out)
    return 0


def _cmd_gen_ultrametric(args: argparse.Namespace) -> int:
    _check_size(args.n, 2 * (args.n - 1), "embedding")
    mode = args.mode.replace("-", "_")
    spec = generate_random(args.n, RngStream(args.seed), mode)
    _write_or_print(spec.serialize() + "\n", args.out)
    return 0


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read().strip()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _cmd_embed(args: argparse.Namespace) -> int:
    spec = UltrametricSpec.parse(_read_text(args.spec))
    _check_size(spec.n, 2 * (spec.n - 1), "embedding")
    _write_or_print(_points_csv_text(embed_euclidean(spec)), args.out)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    points = _load_points(args)
    solver = TwoMeansSolverConfig(kind=args.solver, lloyd_restarts=args.restarts, seed=args.seed)
    dist = _distances(points) if args.algo in ("avg", "single") else None
    tree = _build_tree(args.algo, points, dist, solver, RngStream(args.seed))
    _write_or_print(tree.serialize() + "\n", args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    points = _load_points(args)
    tree = parse(_read_text(args.tree_file))
    dist = None if args.objective == "revenue" else _distances(points)
    _write_or_print(_objective_report(args.objective, points, dist, tree).to_csv(), args.out)
    return 0


def _cmd_enumerate_opt(args: argparse.Namespace) -> int:
    points = _load_points(args)
    if points.n > OPT_MAX_N:
        raise DataError(f"enumerate-opt is capped at {OPT_MAX_N} points")
    tree, value = brute_force_opt(
        points if args.objective == "revenue" else _distances(points), args.objective
    )
    text = f"objective,{args.objective}\noptimal_value,{value!r}\ntree,{tree.serialize()}\n"
    _write_or_print(text, args.out)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    synthetic = None
    if args.points is None:
        if args.synth_k is None or args.synth_n is None or args.synth_dim is None:
            raise _UsageError("table1 needs --points or all of --synth-k/--synth-n/--synth-dim")
        synthetic = GaussianMixtureSpec(
            k=args.synth_k,
            n=args.synth_n,
            dim=args.synth_dim,
            separation=args.synth_separation,
            seed=args.synth_seed,
        )
    # The config is checked before any data is read or drawn.
    config = ExperimentConfig(
        subsample_size=args.subsample,
        num_runs=args.runs,
        algorithms=tuple(args.algo.split(",")),
        objectives=tuple(args.objective.split(",")),
        base_seed=args.seed,
        solver=args.solver,
        lloyd_restarts=args.restarts,
    )
    data = _load_points(args) if synthetic is None else synthetic.build()
    _write_or_print(run_table1(data, config)[1], args.out)
    return 0


def _cmd_random_bad(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = run_random_bad(sizes, args.trials, RngStream(args.seed))
    _write_or_print(random_bad_report_csv(rows), args.out)
    return 0


def cli_main(argv: Sequence[str]) -> int:
    """Entry point: 0 on success, 1 on usage errors, 2 on data errors and out of memory."""
    parser = _build_cli()
    try:
        args = parser.parse_args(list(argv))
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (DataError, TreeParseError, ValueError, TypeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's error names the allocation it refused
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
