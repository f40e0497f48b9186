import csv

import numpy as np
import pytest

from hierclust import (
    DataError,
    ExperimentConfig,
    GaussianMixtureSpec,
    IngestOptions,
    PointSet,
    RandomBadInstanceSpec,
    RngStream,
    StatsRow,
    build_random_bad_instance,
    clean_reference_tree,
    cli_main,
    ingest_csv,
    ingest_csv_report,
    random_bad_report_csv,
    run_random_bad,
    run_table1,
    synth_gaussian_mixture,
    tree_revenue,
)


# ----------------------------------------------------------------------
# CSV ingestion


def test_ingest_basic(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    points = ingest_csv(str(path))
    assert points.n == 3 and points.dim == 2
    assert points.coords[2].tolist() == [5.0, 6.0]


def test_ingest_skip_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    points = ingest_csv(str(path), IngestOptions(skip_header=True))
    assert points.n == 2


def test_ingest_drops_text_column_and_reports(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,red,2.0\n3.0,blue,4.0\n")
    result = ingest_csv_report(str(path))
    assert result.points.dim == 2
    assert result.dropped_columns == (1,)
    assert result.used_columns == (0, 2)


def test_ingest_explicit_columns_reject_bad_rows(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,a\n2.0,3.0\nbad,4.0\n")
    result = ingest_csv_report(str(path), IngestOptions(columns=(0,)))
    assert result.points.n == 2
    assert result.rejected_rows == (3,)
    # selecting the text column rejects rows 1 and... row 2/3 parse
    result2 = ingest_csv_report(str(path), IngestOptions(columns=(0, 1)))
    assert result2.rejected_rows == (1, 3)
    assert result2.points.n == 1


def _reference_ingest_csv_report(path, options=IngestOptions()):
    """The per-cell parser that `ingest_csv_report` replaced: one float() call per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=options.delimiter))
    first_data_line = 1
    if options.skip_header:
        rows = rows[1:]
        first_data_line = 2
    rows = [r for r in rows if r]
    width = len(rows[0])

    def parse_cell(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    parsed = [[parse_cell(c) for c in row] for row in rows]
    if options.columns is None:
        used = tuple(
            j for j in range(width) if all(parsed[k][j] is not None for k in range(len(rows)))
        )
        dropped = tuple(j for j in range(width) if j not in used)
        data = [[parsed[k][j] for j in used] for k in range(len(rows))]
        rejected = ()
    else:
        used = tuple(int(j) for j in options.columns)
        dropped = ()
        data = []
        bad = []
        for k in range(len(rows)):
            values = [parsed[k][j] for j in used]
            if any(v is None for v in values):
                bad.append(first_data_line + k)
            else:
                data.append(values)
        rejected = tuple(bad)
    return PointSet(np.array(data, dtype=np.float64)), used, dropped, rejected


INGEST_CASES = {
    "plain": ("1.0,2.0\n3.0,4.0\n", IngestOptions()),
    "header": ("x,y,z\n1,2,3\n4,5,6\n", IngestOptions(skip_header=True)),
    "text_columns": ("1.0,red,2.0,x\n3.0,blue,4.0,5\n6,7,8,9\n", IngestOptions()),
    "spaces_and_underscores": (" 1.5 ,1_0,-0\n2e3, -4 ,+7\n", IngestOptions()),
    "selected_with_rejects": (
        "1.0,a,2\n2.0,3.0,x\nbad,4.0,5\n6,7,8\n", IngestOptions(columns=(0, 2))
    ),
    "selected_repeated": ("1,2\n3,oops\n5,6\n", IngestOptions(columns=(0, 0, 1))),
    "selected_all": ("1,2\n3,oops\n5,6\n", IngestOptions(columns=(0, 1))),
    "header_rejects": (
        "a;b\n1;2\n;4\n5;6\n", IngestOptions(columns=(0, 1), skip_header=True, delimiter=";")
    ),
    "nan_inf_unselected": ("1,nan,q\n2,inf,r\n3,-inf,s\n", IngestOptions(columns=(0,))),
    "nan_kept": ("nan,1\n2,3\n", IngestOptions()),
    "inf_kept": ("1,-inf\n2,3\n", IngestOptions(columns=(1,))),
    "infinity_text": ("Infinity,1\n2,NaN\n", IngestOptions()),
}


@pytest.mark.parametrize("name", sorted(INGEST_CASES))
def test_ingest_matches_per_cell_parser(tmp_path, name):
    text, options = INGEST_CASES[name]
    path = tmp_path / "pts.csv"
    path.write_text(text)
    try:
        want = _reference_ingest_csv_report(str(path), options)
    except ValueError as exc:  # non-finite coordinates
        with pytest.raises(ValueError, match=str(exc)):
            ingest_csv_report(str(path), options)
        return
    got = ingest_csv_report(str(path), options)
    assert got.points.coords.tobytes() == want[0].coords.tobytes()
    assert got.points.coords.shape == want[0].coords.shape
    assert (got.used_columns, got.dropped_columns, got.rejected_rows) == want[1:]


def test_ingest_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataError):
        ingest_csv(str(missing))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError) as e:
        ingest_csv(str(ragged))
    assert "row 2" in str(e.value)
    with pytest.raises(DataError):
        ingest_csv_report(str(ragged), IngestOptions(columns=()))
    textonly = tmp_path / "text.csv"
    textonly.write_text("a,b\nc,d\n")
    with pytest.raises(DataError):
        ingest_csv(str(textonly))


@pytest.mark.parametrize(
    "text,options,want",
    [
        # After a blank line the bad row is on line 3, the second data row.
        ("1,2\n\n3,x\n4,5\n", IngestOptions(columns=(0, 1)), (3,)),
        ("x,y\n\n1,q\n\n\n2,3\n4,z\n", IngestOptions(columns=(0, 1), skip_header=True), (3, 7)),
        # A quoted cell holding a newline spans lines 2 and 3.
        ('1,2\n"a\nb",3\n4,z\n', IngestOptions(columns=(0, 1)), (2, 4)),
    ],
)
def test_rejected_rows_are_numbered_by_file_line(tmp_path, text, options, want):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    assert ingest_csv_report(str(path), options).rejected_rows == want


@pytest.mark.parametrize(
    "text,line",
    [("1,2\n\n3\n", 3), ('1,2\n"a\nb",3\n\n4\n', 5), ("x\n\n1,2\n3\n", 4)],
)
def test_column_count_error_names_the_file_line(tmp_path, text, line):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"inconsistent column count at row {line}: expected 2, got 1"):
        ingest_csv_report(str(path), IngestOptions(skip_header=text.startswith("x")))


@pytest.mark.parametrize("columns", [None, (0, 1)])
def test_byte_order_mark_is_not_part_of_column_0(tmp_path, columns):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"1.5,2\r\n3,4\r\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = ingest_csv_report(str(plain), IngestOptions(columns=columns))
    got = ingest_csv_report(str(marked), IngestOptions(columns=columns))
    assert got.points.coords.tolist() == want.points.coords.tolist() == [[1.5, 2.0], [3.0, 4.0]]
    assert (got.used_columns, got.dropped_columns, got.rejected_rows) == ((0, 1), (), ())


def test_unreadable_csv_text_is_a_value_error(tmp_path):
    # Bytes that are not UTF-8, and a cell past the csv module's field limit.
    path = tmp_path / "pts.csv"
    path.write_bytes(b"1,2\n\xff\xfe,3\n")
    with pytest.raises(ValueError, match="can't decode byte 0xff"):
        ingest_csv(str(path))
    path.write_text("1," + "x" * 200_000 + "\n")
    with pytest.raises(DataError, match=f"cannot read {path}: field larger than field limit"):
        ingest_csv(str(path))


def test_ingest_delimiter(tmp_path):
    path = tmp_path / "pts.tsv"
    path.write_text("1.0\t2.0\n3.0\t4.0\n")
    points = ingest_csv(str(path), IngestOptions(delimiter="\t"))
    assert points.dim == 2


# ----------------------------------------------------------------------
# synthetic generators


def test_synth_single_cluster():
    pts = synth_gaussian_mixture(1, 50, 3, 10.0, RngStream(1))
    assert pts.n == 50 and pts.dim == 3
    # unit-variance spherical around the single center
    centered = pts.coords - pts.coords.mean(axis=0)
    assert 0.7 < float(centered.std()) < 1.3


def test_synth_zero_separation_centers_coincide():
    pts = synth_gaussian_mixture(4, 400, 2, 0.0, RngStream(2))
    assert abs(float(pts.coords.mean())) < 0.2


def test_synth_balanced_sizes_and_separation():
    pts = synth_gaussian_mixture(3, 10, 5, 50.0, RngStream(3))
    assert pts.n == 10
    # sizes 4, 3, 3 in block order; far-apart blocks are identifiable by
    # nearest center
    centers = np.zeros((3, 5))
    for c in range(3):
        centers[c, c] = 50.0
    d = np.linalg.norm(pts.coords[:, None, :] - centers[None, :, :], axis=2)
    labels = d.argmin(axis=1)
    sizes = sorted(np.bincount(labels).tolist())
    assert sizes == [3, 3, 4]
    assert np.linalg.norm(centers[0] - centers[1]) >= 50.0


def test_synth_deterministic():
    a = synth_gaussian_mixture(2, 20, 2, 5.0, RngStream(7))
    b = synth_gaussian_mixture(2, 20, 2, 5.0, RngStream(7))
    assert np.array_equal(a.coords, b.coords)


def test_synth_guards():
    with pytest.raises(ValueError):
        synth_gaussian_mixture(0, 10, 2, 1.0, RngStream(0))


# ----------------------------------------------------------------------
# unbalanced instance


def test_random_bad_instance_layout():
    spec = RandomBadInstanceSpec(2)
    pts = build_random_bad_instance(spec)
    assert pts.n == 6
    assert (pts.coords[:4] == 0.0).all()
    assert (pts.coords[4:] == 1.0).all()
    assert spec.optimal_revenue() == 15.0


def test_random_bad_instance_guards():
    with pytest.raises(ValueError):
        RandomBadInstanceSpec(1)


def test_clean_reference_tree_earns_everything():
    for n in (2, 3, 5):
        spec = RandomBadInstanceSpec(n)
        pts = build_random_bad_instance(spec)
        total = tree_revenue(pts, clean_reference_tree(spec)).total
        assert total == spec.optimal_revenue()


def test_run_random_bad_rows():
    rows = run_random_bad([3, 5], trials=40, rng=RngStream(11))
    assert [r.n for r in rows] == [3, 5]
    for row in rows:
        assert 0.0 <= row.mean_ratio <= 1.0
        assert abs(row.reference_ratio - 1.0) <= 1e-9
        assert row.std_ratio >= 0.0
    assert rows[0].mean_ratio > rows[1].mean_ratio
    text = random_bad_report_csv(rows)
    assert text.splitlines()[0] == "n,mean_ratio,std_ratio,reference_ratio"
    assert len(text.splitlines()) == 3


# ----------------------------------------------------------------------
# table experiment


MIXTURE = GaussianMixtureSpec(k=4, n=80, dim=6, separation=20.0, seed=3)


def mixture_config(**overrides):
    base = dict(
        subsample_size=40,
        num_runs=2,
        algorithms=("bkm", "random"),
        objectives=("revenue",),
        base_seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_mixture(**overrides):
    return run_table1(MIXTURE.build(), mixture_config(**overrides))


def test_table1_single_run_has_zero_std():
    stats, _ = run_mixture(num_runs=1)
    assert all(row.std == 0.0 for row in stats)


def test_table1_upper_bound_row():
    stats, _ = run_mixture()
    by = {(r.algorithm, r.objective): r for r in stats}
    ub = by[("upper_bound", "revenue")]
    assert ub.mean == 40 * 39 / 2 and ub.std == 0.0


def test_table1_upper_bound_dominates_revenue_rows():
    stats, text = run_mixture(num_runs=3)
    by = {(r.algorithm, r.objective): r for r in stats}
    ub = by[("upper_bound", "revenue")].mean
    for (algo, obj), row in by.items():
        if obj == "revenue":
            assert row.mean <= ub + 1e-9
    # per-run dominance straight from the raw rows
    raw = {}
    for line in text.splitlines()[1:]:
        if line.startswith("#"):
            break
        algo, obj, run, value = line.split(",")
        raw[(algo, obj, int(run))] = float(value)
    for (algo, obj, run), v in raw.items():
        if obj == "revenue" and algo != "upper_bound":
            assert v <= raw[("upper_bound", "revenue", run)] + 1e-9
    # each summary mean sits inside the span of its per-run values
    for (algo, obj), row in by.items():
        values = [v for (a, o, _), v in raw.items() if (a, o) == (algo, obj)]
        assert min(values) - 1e-9 <= row.mean <= max(values) + 1e-9


def test_table1_ckmm_upper_bound_per_run():
    stats, text = run_mixture(objectives=("revenue", "ckmm"))
    lines = text.splitlines()
    assert lines[0] == "algorithm,objective,run,value"
    raw = {}
    for line in lines[1:]:
        if line.startswith("#"):
            break
        algo, obj, run, value = line.split(",")
        raw[(algo, obj, int(run))] = float(value)
    for run in range(2):
        for algo in ("bkm", "random"):
            assert raw[(algo, "ckmm", run)] <= raw[("upper_bound", "ckmm", run)] + 1e-9


def test_table1_bisecting_beats_random_on_separated_mixture():
    data = GaussianMixtureSpec(k=8, n=400, dim=8, separation=20.0, seed=41).build()
    config = ExperimentConfig(
        subsample_size=200,
        num_runs=5,
        algorithms=("bkm", "random"),
        objectives=("revenue",),
        base_seed=23,
    )
    stats, _ = run_table1(data, config)
    by = {(r.algorithm, r.objective): r.mean for r in stats}
    assert by[("bkm", "revenue")] > by[("random", "revenue")]


def test_table1_deterministic_and_writes_output(tmp_path, capsys):
    # run_table1 writes no file; the CLI writes the same text to --out.
    _, text1 = run_mixture()
    _, text2 = run_mixture()
    assert text1 == text2
    assert "# summary" in text1
    out = tmp_path / "report.csv"
    argv = [
        "experiment", "table1", "--synth-k", "4", "--synth-n", "80", "--synth-dim", "6",
        "--synth-separation", "20", "--synth-seed", "3", "--subsample", "40", "--runs", "2",
        "--seed", "17", "--algo", "bkm,random", "--objective", "revenue", "--out", str(out),
    ]
    assert cli_main(argv) == 0
    assert out.read_text() == text1
    assert capsys.readouterr().out == ""


def test_table1_subsample_too_large():
    with pytest.raises(DataError):
        run_mixture(subsample_size=500)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        mixture_config(num_runs=0)
    with pytest.raises(ValueError):
        mixture_config(algorithms=("bogus",))
    with pytest.raises(ValueError):
        mixture_config(objectives=("bogus",))
    with pytest.raises(ValueError, match="algorithms must not repeat a name, got avg,random,avg"):
        mixture_config(algorithms=("avg", "random", "avg"))
    with pytest.raises(ValueError, match="objectives must not repeat a name, got ckmm,ckmm"):
        mixture_config(objectives=("ckmm", "ckmm"))
    with pytest.raises(ValueError, match="lloyd_restarts"):
        mixture_config(lloyd_restarts=0)
    with pytest.raises(ValueError, match="base_seed must be a non-negative integer"):
        mixture_config(base_seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        GaussianMixtureSpec(k=2, n=10, dim=2, separation=1.0, seed=-1)
    with pytest.raises(ValueError):
        StatsRow("a", "revenue", 1.0, -0.5)


def test_table1_from_csv(tmp_path):
    path = tmp_path / "data.csv"
    g = np.random.Generator(np.random.PCG64(5))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in g.standard_normal((30, 2)))
    path.write_text(rows + "\n")
    config = ExperimentConfig(
        subsample_size=10,
        num_runs=1,
        algorithms=("avg", "single"),
        objectives=("revenue", "dasgupta"),
        base_seed=2,
    )
    stats, _ = run_table1(ingest_csv(str(path)), config)
    assert {(r.algorithm, r.objective) for r in stats} == {
        ("avg", "revenue"),
        ("avg", "dasgupta"),
        ("single", "revenue"),
        ("single", "dasgupta"),
        ("upper_bound", "revenue"),
    }
