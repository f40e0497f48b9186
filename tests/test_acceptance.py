"""End-to-end acceptance criteria at their stated tolerances.

Each test prints one ``ACCEPTANCE <n> <name>: PASS`` line on success (run
``pytest -s tests/test_acceptance.py`` to see them); a failing assertion
marks the criterion FAIL. Runtime limits are asserted where the criterion
states one.
"""

import time

import numpy as np
import pytest

from hierclust import (
    PointSet,
    RngStream,
    TwoMeansSolverConfig,
    bisecting_kmeans,
    brute_force_opt,
    build_generating_tree,
    ckmm_value,
    check_metric,
    cli_main,
    dasgupta_cost,
    embed_euclidean,
    enumerate_trees,
    generate_random,
    high_revenue_stats,
    pairwise_distances,
    random_tree,
    run_random_bad,
    tree_revenue,
    triangle_decompose,
)
from hierclust.metricspace import close
from revenue_oracle import assert_split_route_matches_pair_view


def report(number, name, detail=""):
    print(f"\nACCEPTANCE {number} {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def specs_to_64():
    """100 random ultrametric specs up to n=64, both weight modes."""
    g = np.random.Generator(np.random.PCG64(99))
    out = []
    for k in range(100):
        n = int(g.integers(2, 65))
        mode = "strict" if k % 2 == 0 else "with_ties"
        out.append(generate_random(n, RngStream(5000 + k), mode))
    return out


@pytest.fixture(scope="module")
def metric_instances_n6():
    """50 random Euclidean instances with n=6 plus all 945 topologies."""
    g = np.random.Generator(np.random.PCG64(555))
    instances = []
    for _ in range(50):
        pts = PointSet(g.standard_normal((6, 3)))
        dm = pairwise_distances(pts)
        ok, _ = check_metric(dm, tol=1e-9)
        assert ok
        instances.append(dm)
    return instances, list(enumerate_trees(6))


def test_criterion_1_mode_equivalence():
    g = np.random.Generator(np.random.PCG64(777))
    started = time.perf_counter()
    for k in range(200):
        n = int(g.integers(2, 31))
        dim = int(g.integers(1, 6))
        pts = PointSet(g.standard_normal((n, dim)))
        for t in range(5):
            tree = random_tree(n, RngStream(1000 + k).substream(t))
            assert_split_route_matches_pair_view(pts, tree, rel=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, "mode equivalence", f"(200 instances x 5 trees, {elapsed:.1f}s)")


def test_criterion_2_generating_tree_full_revenue(specs_to_64):
    started = time.perf_counter()
    for spec in specs_to_64:
        n = spec.n
        tree = build_generating_tree(spec.induced_matrix())
        total = tree_revenue(embed_euclidean(spec), tree).total
        assert abs(total - n * (n - 1) / 2.0) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, "generating-tree full revenue", f"(100 specs to n=64, {elapsed:.1f}s)")


def test_criterion_3_embedding_exactness(specs_to_64):
    for spec in specs_to_64:
        want = spec.induced_matrix().values
        got = pairwise_distances(embed_euclidean(spec)).values
        denom = np.where(want == 0.0, 1.0, want)
        assert float(np.abs((got - want) / denom).max()) <= 1e-9
    report(3, "embedding exactness", "(same 100 specs, 1e-9 relative)")


def test_criterion_4_bisecting_per_split_bounds():
    g = np.random.Generator(np.random.PCG64(4242))
    started = time.perf_counter()
    for k in range(500):
        n = int(g.integers(2, 13))
        dim = int(g.integers(1, 5))
        pts = PointSet(g.standard_normal((n, dim)))
        tree = bisecting_kmeans(pts, TwoMeansSolverConfig(kind="exhaustive", seed=k))
        rep = tree_revenue(pts, tree)
        for split, value in rep.per_split:
            pairs = len(split.left_set) * len(split.right_set)
            assert value >= pairs / 35.0 - 1e-9
            stats = high_revenue_stats(pts, split.left_set, split.right_set)
            assert 7 * len(stats.high_revenue_points_in_larger) >= 4 * len(stats.side_a)
        assert rep.total >= n * (n - 1) / 2.0 / 35.0 - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, "bisecting 2-means bounds", f"(500 instances, {elapsed:.1f}s)")


def test_criterion_5_every_tree_approximations(metric_instances_n6):
    instances, trees = metric_instances_n6
    started = time.perf_counter()
    for dm in instances:
        values = [ckmm_value(dm, t).total for t in trees]
        _, opt = brute_force_opt(dm, "ckmm")
        assert min(values) >= 0.5 * opt - 1e-9
        costs = [dasgupta_cost(dm, t).total for t in trees]
        assert max(costs) <= 2.0 * min(costs) + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, "ckmm 1/2- and dasgupta 2-approximation", f"(50 x 945 trees, {elapsed:.1f}s)")


def test_criterion_6_triangle_decomposition(metric_instances_n6):
    instances, trees = metric_instances_n6
    for dm in instances:
        for tree in trees:
            td = triangle_decompose(dm, tree)
            assert close(td.reconstructed_total, ckmm_value(dm, tree).total, rel=1e-9)
            assert close(td.reconstructed_total, dasgupta_cost(dm, tree).total, rel=1e-9)
    g = np.random.Generator(np.random.PCG64(606))
    for k in range(100):
        dm = pairwise_distances(PointSet(g.standard_normal((40, 3))))
        tree = random_tree(40, RngStream(6000 + k))
        td = triangle_decompose(dm, tree)
        assert close(td.reconstructed_total, ckmm_value(dm, tree).total, rel=1e-9)
    report(6, "triangle decomposition identity", "(47250 small trees + 100 n=40)")


def test_criterion_7_random_is_bad_trend():
    started = time.perf_counter()
    rows = run_random_bad([4, 8, 12], trials=200, rng=RngStream(2024))
    elapsed = time.perf_counter() - started
    for row in rows:
        assert abs(row.reference_ratio - 1.0) <= 1e-9
    assert rows[0].mean_ratio > rows[1].mean_ratio > rows[2].mean_ratio
    assert elapsed < 60.0
    means = ", ".join(f"n={r.n}: {r.mean_ratio:.3f}" for r in rows)
    report(7, "random-is-bad decay", f"({means}, {elapsed:.1f}s)")


def _summary_rows(report_text):
    lines = report_text.splitlines()
    cut = lines.index("# summary")
    out = {}
    for line in lines[cut + 2 :]:
        algo, objective, mean, std = line.split(",")
        out[(algo, objective)] = (float(mean), float(std))
    return out


def test_criterion_8_table_upper_bound_and_ranking(tmp_path, capsys):
    # Exact upper-bound row at subsample 1000, through the CLI.
    data_csv = tmp_path / "data.csv"
    assert (
        cli_main(
            ["synth", "--k", "8", "--n", "2000", "--dim", "8", "--separation", "20",
             "--seed", "11", "--out", str(data_csv)]
        )
        == 0
    )
    report_csv = tmp_path / "table1.csv"
    assert (
        cli_main(
            ["experiment", "table1", "--points", str(data_csv), "--subsample", "1000",
             "--runs", "5", "--seed", "100", "--algo", "random", "--objective", "revenue",
             "--out", str(report_csv)]
        )
        == 0
    )
    rows = _summary_rows(report_csv.read_text())
    assert rows[("upper_bound", "revenue")] == (499500.0, 0.0)

    # Ranking on the separated mixture at m=500: bisecting within 1% of the
    # bound, random strictly lowest of the four.
    mix_report = tmp_path / "mix.csv"
    assert (
        cli_main(
            ["experiment", "table1", "--points", str(data_csv), "--subsample", "500",
             "--runs", "5", "--seed", "100", "--algo", "bkm,avg,single,random",
             "--objective", "revenue", "--out", str(mix_report)]
        )
        == 0
    )
    capsys.readouterr()
    mix_rows = _summary_rows(mix_report.read_text())
    bound = 500 * 499 / 2.0
    assert mix_rows[("bkm", "revenue")][0] >= 0.99 * bound
    random_mean = mix_rows[("random", "revenue")][0]
    for algo in ("bkm", "avg", "single"):
        assert random_mean < mix_rows[(algo, "revenue")][0]
    ratio = mix_rows[("bkm", "revenue")][0] / bound
    report(8, "table upper bound and ranking", f"(ub=(499500,0), bkm/bound={ratio:.4f})")


def test_criterion_9_determinism(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    assert (
        cli_main(
            ["synth", "--k", "4", "--n", "300", "--dim", "4", "--separation", "15",
             "--seed", "6", "--out", str(data_csv)]
        )
        == 0
    )
    table_args = [
        "experiment", "table1", "--points", str(data_csv), "--subsample", "120",
        "--runs", "3", "--seed", "77", "--algo", "bkm,avg,single,random",
        "--objective", "revenue,ckmm",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(table_args + ["--out", str(a)]) == 0
    assert cli_main(table_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    bad_args = ["experiment", "random-bad", "--sizes", "4,8", "--trials", "50", "--seed", "3"]
    ra, rb = tmp_path / "ra.csv", tmp_path / "rb.csv"
    assert cli_main(bad_args + ["--out", str(ra)]) == 0
    assert cli_main(bad_args + ["--out", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()
    capsys.readouterr()
    report(9, "determinism", "(byte-identical reports on repeat)")
