"""Command-line contract: subcommands, output formats, exit codes.

Exit codes: 0 success, 1 usage errors, 2 data errors.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hierclust
from hierclust import cli_main, harness


@pytest.fixture
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("0.0\n1.0\n5.0\n")
    return str(path)


def run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# exit codes


def test_unknown_flag_is_usage_error(capsys, line_csv):
    code, _, err = run(capsys, ["cluster", "--points", line_csv, "--algo", "bkm", "--bogus"])
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1


def test_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, ["cluster", "--points", "/no/such.csv", "--algo", "avg"])
    assert code == 2
    assert "error" in err


def test_bad_tree_file_is_data_error(capsys, tmp_path, line_csv):
    bad = tmp_path / "t.txt"
    bad.write_text("((0,1)")
    code, _, err = run(
        capsys, ["eval", "--objective", "revenue", "--points", line_csv, "--tree-file", str(bad)]
    )
    assert code == 2


def test_enumerate_opt_size_cap(capsys, tmp_path):
    big = tmp_path / "big.csv"
    big.write_text("\n".join(str(float(i)) for i in range(hierclust.OPT_MAX_N + 1)) + "\n")
    code, _, err = run(capsys, ["enumerate-opt", "--objective", "revenue", "--points", str(big)])
    assert code == 2
    assert err == f"error: enumerate-opt is capped at {hierclust.OPT_MAX_N} points\n"
    at_cap = tmp_path / "at_cap.csv"
    at_cap.write_text("\n".join(str(float(i)) for i in range(hierclust.OPT_MAX_N)) + "\n")
    code, out, _ = run(capsys, ["enumerate-opt", "--objective", "ckmm", "--points", str(at_cap)])
    assert code == 0
    assert out.splitlines()[0] == "objective,ckmm"


@pytest.mark.parametrize("solver", ["lloyd", "exhaustive"])
def test_bkm_on_coordinates_whose_squares_overflow(capsys, tmp_path, solver):
    huge = tmp_path / "huge.csv"
    huge.write_text("0,0\n1e200,1e200\n-1e200,5\n3,4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys,
            ["cluster", "--points", str(huge), "--algo", "bkm", "--solver", solver, "--seed", "1"],
        )
    assert (code, err) == (0, "")
    hierclust.parse(out.strip())


def test_embed_size_guard_names_bytes_and_limit(capsys, monkeypatch, tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("((0,1):1.0,(2,3):1.0):2.0\n")
    monkeypatch.setattr(harness, "_MAX_DISTANCE_BYTES", 192)  # 4 x 6 float64
    code, out, _ = run(capsys, ["embed", "--spec", str(spec_file)])
    assert code == 0 and len(out.splitlines()) == 4
    monkeypatch.setattr(harness, "_MAX_DISTANCE_BYTES", 191)
    code, out, err = run(capsys, ["embed", "--spec", str(spec_file)])
    assert (code, out) == (2, "")
    assert err == "error: a 4x6 embedding needs 192 bytes, over the limit of 191 bytes\n"


def test_gen_ultrametric_size_guard_refuses_before_drawing(capsys, monkeypatch):
    # n = 8193 is the first size whose n x 2(n-1) embedding exceeds the
    # default limit; the spec is refused before any draw.
    def never(*args, **kwargs):
        raise AssertionError("generate_random must not run")

    monkeypatch.setattr(harness, "generate_random", never)
    code, out, err = run(capsys, ["gen-ultrametric", "--n", "8193"])
    assert (code, out) == (2, "")
    assert err == (
        "error: a 8193x16384 embedding needs 1073872896 bytes,"
        " over the limit of 1073741824 bytes\n"
    )


# ----------------------------------------------------------------------
# pipelines


def test_cluster_emits_tree(capsys, line_csv):
    code, out, _ = run(
        capsys, ["cluster", "--points", line_csv, "--algo", "bkm", "--solver", "exhaustive"]
    )
    assert code == 0
    assert out.strip() == "((0,1),2)"


def test_eval_prints_per_split_csv(capsys, tmp_path, line_csv):
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("((0,1),2)\n")
    code, out, _ = run(
        capsys,
        ["eval", "--objective", "revenue", "--points", line_csv, "--tree-file", str(tree_file)],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parent_size,left_size,right_size,revenue"
    assert lines[-1] == "total,,,3.0"


def test_eval_ckmm(capsys, tmp_path, line_csv):
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("((0,1),2)\n")
    code, out, _ = run(
        capsys,
        ["eval", "--objective", "ckmm", "--points", line_csv, "--tree-file", str(tree_file)],
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "total,,,29.0"


def test_enumerate_opt_output(capsys, line_csv):
    code, out, _ = run(capsys, ["enumerate-opt", "--objective", "revenue", "--points", line_csv])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "objective,revenue"
    assert lines[1] == "optimal_value,3.0"
    assert lines[2] == "tree,((0,1),2)"


def test_gen_ultrametric_embed_cluster_roundtrip(capsys, tmp_path):
    spec_file = tmp_path / "spec.txt"
    points_file = tmp_path / "pts.csv"
    code, _, _ = run(
        capsys, ["gen-ultrametric", "--n", "6", "--seed", "5", "--out", str(spec_file)]
    )
    assert code == 0
    assert ":" in spec_file.read_text()
    code, _, _ = run(capsys, ["embed", "--spec", str(spec_file), "--out", str(points_file)])
    assert code == 0
    rows = points_file.read_text().strip().splitlines()
    assert len(rows) == 6 and len(rows[0].split(",")) == 10
    code, out, _ = run(
        capsys,
        ["cluster", "--points", str(points_file), "--algo", "bkm", "--solver", "exhaustive"],
    )
    assert code == 0


def test_python_m_hierclust_runs_the_cli(line_csv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hierclust.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hierclust",
         "cluster", "--points", line_csv, "--algo", "bkm"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "((0,1),2)\n"
    assert proc.stderr == ""


def test_python_m_hierclust_help_is_clean():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hierclust.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hierclust", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "usage" in proc.stdout


def test_synth_writes_points(capsys, tmp_path):
    out_file = tmp_path / "pts.csv"
    code, _, _ = run(
        capsys,
        ["synth", "--k", "2", "--n", "10", "--dim", "3", "--seed", "4", "--out", str(out_file)],
    )
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert len(rows) == 10 and len(rows[0].split(",")) == 3


def test_synth_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["synth", "--k", "3", "--n", "30", "--dim", "2", "--seed", "8"]
    assert run(capsys, args + ["--out", str(a)])[0] == 0
    assert run(capsys, args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_random_algo_seeded(capsys, line_csv):
    code, out1, _ = run(capsys, ["cluster", "--points", line_csv, "--algo", "random", "--seed", "5"])
    code2, out2, _ = run(capsys, ["cluster", "--points", line_csv, "--algo", "random", "--seed", "5"])
    assert code == code2 == 0
    assert out1 == out2


def test_experiment_table1(capsys, tmp_path):
    report = tmp_path / "rep.csv"
    args = [
        "experiment", "table1",
        "--synth-k", "2", "--synth-n", "50", "--synth-dim", "2", "--synth-seed", "1",
        "--subsample", "20", "--runs", "2", "--seed", "3",
        "--algo", "random", "--objective", "revenue",
        "--out", str(report),
    ]
    code, _, _ = run(capsys, args)
    assert code == 0
    text = report.read_text()
    assert "# summary" in text
    assert "upper_bound,revenue,190.0,0.0" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--algo", "bkm", "--restarts", "0"],
        ["experiment", "table1", "--synth-k", "2", "--synth-n", "20", "--synth-dim", "2",
         "--subsample", "10", "--restarts", "-1"],
    ],
)
def test_invalid_restarts_is_data_error(capsys, line_csv, argv):
    if argv[0] == "cluster":
        argv = argv + ["--points", line_csv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "lloyd_restarts" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,field",
    [
        (["cluster", "--algo", "bkm", "--seed", "-1"], "seed"),
        (["cluster", "--algo", "bkm", "--solver", "exhaustive", "--seed", "-1"], "seed"),
        (["synth", "--k", "2", "--n", "10", "--dim", "2", "--seed", "-1"], "seed"),
        (["experiment", "table1", "--synth-k", "2", "--synth-n", "20", "--synth-dim", "2",
          "--subsample", "10", "--seed", "-5"], "base_seed"),
        (["experiment", "table1", "--synth-k", "2", "--synth-n", "20", "--synth-dim", "2",
          "--subsample", "10", "--synth-seed", "-3"], "seed"),
        (["gen-ultrametric", "--n", "5", "--seed", "-1"], "seed"),
        (["experiment", "random-bad", "--sizes", "3", "--trials", "2", "--seed", "-1"], "seed"),
    ],
)
def test_negative_seed_is_data_error_naming_the_seed(capsys, line_csv, argv, field):
    # Refused when the config is built, not by numpy deep inside the build.
    if argv[0] == "cluster":
        argv = argv + ["--points", line_csv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} must be a non-negative integer, got -")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "algo,objective,field",
    [("random,random", "revenue", "algorithms"), ("random", "revenue,ckmm,revenue", "objectives")],
)
def test_table1_repeated_name_is_data_error_naming_the_field(capsys, algo, objective, field):
    argv = ["experiment", "table1", "--synth-k", "2", "--synth-n", "30", "--synth-dim", "2",
            "--subsample", "10", "--runs", "1", "--algo", algo, "--objective", objective]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} must not repeat a name, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_out_of_memory_is_one_line_exit_2(capsys, monkeypatch, line_csv, message):
    # The builder is patched to raise: a real allocation that size could
    # succeed on a machine that overcommits memory, and then fill it.
    def refuse(points, solver):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "bisecting_kmeans", refuse)
    code, out, err = run(capsys, ["cluster", "--points", line_csv, "--algo", "bkm"])
    assert code == 2
    assert out == ""
    assert err == ("error: out of memory" + (f": {message}" if message else "") + "\n")


def test_byte_order_marked_files_read_as_unmarked(capsys, tmp_path):
    points, tree = tmp_path / "p.csv", tmp_path / "t.txt"
    points.write_bytes(b"\xef\xbb\xbf0,9\n1,9\n5,9\n")
    tree.write_bytes(b"\xef\xbb\xbf((0,1),2)\n")
    argv = ["eval", "--objective", "revenue", "--columns", "0,1",
            "--points", str(points), "--tree-file", str(tree)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "total,,,3.0"


def test_blank_lines_count_in_reported_rows(capsys, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n\n3,x\n4,5\n")
    code, _, err = run(capsys, ["cluster", "--points", str(path), "--algo", "single", "--columns", "0,1"])
    assert (code, err) == (0, "rejected 1 row(s): [3]\n")
    path.write_text("1,2\n\n3\n")
    code, _, err = run(capsys, ["cluster", "--points", str(path), "--algo", "single"])
    assert (code, err) == (2, "error: inconsistent column count at row 3: expected 2, got 1\n")


def test_distance_matrix_guard_names_bytes_and_limit(monkeypatch):
    monkeypatch.setattr(harness, "_MAX_DISTANCE_BYTES", 71)
    assert harness._distances(hierclust.PointSet(np.zeros((2, 1)))).n == 2  # 32 bytes
    with pytest.raises(hierclust.DataError, match="3x3 distance matrix needs 72 bytes, over the limit of 71 bytes"):
        harness._distances(hierclust.PointSet(np.zeros((3, 1))))


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--algo", "avg"],
        ["cluster", "--algo", "single"],
        ["eval", "--objective", "ckmm"],
        ["eval", "--objective", "dasgupta"],
        ["enumerate-opt", "--objective", "ckmm"],
        ["experiment", "table1", "--synth-k", "2", "--synth-n", "20", "--synth-dim", "2",
         "--subsample", "10", "--algo", "bkm,random"],
    ],
)
def test_distance_matrix_guard_exits_2(capsys, monkeypatch, tmp_path, line_csv, argv):
    monkeypatch.setattr(harness, "_MAX_DISTANCE_BYTES", 71)
    if argv[0] != "experiment":
        argv = argv + ["--points", line_csv]
    if argv[0] == "eval":
        tree_file = tmp_path / "t.txt"
        tree_file.write_text("((0,1),2)\n")
        argv = argv + ["--tree-file", str(tree_file)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "over the limit of 71 bytes" in err
    assert err.count("\n") == 1


# Every command that takes --out, with arguments under which it succeeds;
# {points}, {spec} and {tree} name input files the test writes.
OUT_COMMANDS = {
    "synth": ["synth", "--k", "2", "--n", "10", "--dim", "2"],
    "gen-ultrametric": ["gen-ultrametric", "--n", "4"],
    "embed": ["embed", "--spec", "{spec}"],
    "cluster": ["cluster", "--points", "{points}", "--algo", "avg"],
    "eval": ["eval", "--objective", "revenue", "--points", "{points}", "--tree-file", "{tree}"],
    "enumerate-opt": ["enumerate-opt", "--objective", "revenue", "--points", "{points}"],
    "table1": ["experiment", "table1", "--points", "{points}", "--subsample", "3", "--runs", "1"],
    "random-bad": ["experiment", "random-bad", "--sizes", "2", "--trials", "2"],
}


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_failed_out_write_is_one_line_data_error(capsys, tmp_path, line_csv, command, target):
    spec, tree = tmp_path / "spec.txt", tmp_path / "tree.txt"
    spec.write_text("((0,1):1.0,2):2.0\n")
    tree.write_text("((0,1),2)\n")
    argv = [a.format(points=line_csv, spec=spec, tree=tree) for a in OUT_COMMANDS[command]]
    assert cli_main(argv + ["--out", str(tmp_path / "ok.txt")]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
    code, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert code == 2 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: "), err


def test_experiment_table1_needs_input(capsys):
    code, _, err = run(capsys, ["experiment", "table1", "--subsample", "10"])
    assert code == 1


def test_experiment_random_bad(capsys):
    code, out, _ = run(
        capsys, ["experiment", "random-bad", "--sizes", "3,4", "--trials", "10", "--seed", "2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,mean_ratio,std_ratio,reference_ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[3] == "1.0"


@pytest.mark.parametrize(
    "sizes,message",
    [("12,1", "error: n must be at least 2"), ("12,12", "error: sizes must not repeat a value")],
)
def test_random_bad_checks_every_size_before_drawing(capsys, monkeypatch, sizes, message):
    drawn = []

    def refuse(*args):
        drawn.append(args)
        raise AssertionError("random_tree was called")

    monkeypatch.setattr(harness, "random_tree", refuse)
    argv = ["experiment", "random-bad", "--sizes", sizes, "--trials", "200"]
    code, out, err = run(capsys, argv)
    assert (code, out, drawn) == (2, "", [])
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), err


def test_ingest_reporting_on_stderr(capsys, tmp_path):
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("1.0,red\n2.0,blue\n")
    code, out, err = run(capsys, ["cluster", "--points", str(mixed), "--algo", "single"])
    assert code == 0
    assert "dropped 1" in err


def test_table1_points_reports_dropped_columns(capsys, tmp_path):
    # table1 --points loads through the same path as cluster: the text
    # column is dropped with cluster's note, and the report is that of the
    # numeric-only file.
    rows = [f"{0.5 * k!r},{(k * 7) % 5 - 2.25!r}" for k in range(12)]
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("".join(f"{r},label{k}\n" for k, r in enumerate(rows)))
    numeric = tmp_path / "numeric.csv"
    numeric.write_text("".join(f"{r}\n" for r in rows))
    argv = ["experiment", "table1", "--subsample", "8", "--runs", "2", "--seed", "5",
            "--objective", "revenue,ckmm"]
    code, want, err = run(capsys, argv + ["--points", str(numeric)])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, argv + ["--points", str(mixed)])
    assert code == 0
    assert err == "dropped 1 non-numeric column(s): [2]\n"
    assert out == want
