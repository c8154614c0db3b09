import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from domstab import fitting, report
from domstab.cli import main
from domstab.errors import SubjectAnalysisError
from domstab.ingest import filter_low_reads, parse_table, split_subjects
from domstab.metrics import community_dominance
from domstab.models import ModelKind
from domstab.report import (
    RunConfig,
    analyze_cohort,
    cmd_compare_indices,
    cmd_fit_select,
    cmd_metrics,
    cmd_simulate,
    load_subjects,
    report_all,
    simulate_subject,
)
from domstab.svgplot import Curve, curve_chart

SMALL = """species_id,400_010106,400_010506,400_010806,400_011206,401_010106,401_010506
OTU1,40,40,35,28,12,15
OTU2,12,8,11,20,30,28
OTU3,0,4,2,1,0,0
OTU4,25,22,20,18,0,11
"""


@pytest.fixture()
def small_input(tmp_path: Path) -> Path:
    path = tmp_path / "counts.csv"
    path.write_text(SMALL)
    return path


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_metrics_tables_match_direct_computation(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    paths = {p.name: p for p in cmd_metrics(config)}
    assert set(paths) == {"metrics_400.csv", "metrics_401.csv"}

    (series,) = [
        filter_low_reads(s, 10)
        for s in split_subjects(parse_table(SMALL))
        if s.subject_id == "400"
    ]
    rows = read_rows(paths["metrics_400.csv"])
    assert [r["sample_id"] for r in rows] == list(series.sample_ids)
    for t, row in enumerate(rows):
        expected = community_dominance(series.sample_vector(t))
        assert float(row["community_dominance"]) == expected  # repr round-trip


def test_metrics_sentinel_column_names_replaced_species(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    paths = {p.name: p for p in cmd_metrics(config)}
    rows = read_rows(paths["metrics_401.csv"])
    # OTU4 is absent from 401's first sample: distance stays inf, dominance
    # takes the subject-wide floor, and the row records the replacement
    assert rows[0]["distance_OTU4"] == "inf"
    assert rows[0]["sentinel_replaced"] == "OTU4"
    floor = float(rows[0]["dominance_OTU4"])
    finite = [
        float(r[k])
        for r in rows
        for k in r
        if k.startswith("dominance_") and r[k] not in ("inf", "-inf")
    ]
    assert floor == min(finite)
    assert rows[1]["sentinel_replaced"] == ""


def test_compare_indices_layout(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    rows = read_rows(cmd_compare_indices(config))
    by_subject: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        by_subject.setdefault(row["subject"], []).append(row)
    assert set(by_subject) == {"400", "401", "mean"}
    assert [r["index"] for r in by_subject["400"]] == [
        "simpson", "shannon", "shannon-evenness", "berger-parker", "simpson-evenness"
    ]
    # subject 401 has two samples: regression needs three
    assert all(r["note"] == "too-few-samples" for r in by_subject["401"])
    assert all(r["slope"] == "" for r in by_subject["401"])
    assert all(r["note"] == "cross-subject mean" for r in by_subject["mean"])
    # the simpson regression on one subject is exactly linear
    simpson = by_subject["400"][0]
    assert abs(float(simpson["correlation"])) > 0.999


def test_fit_tables_have_validity_columns(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    paths = {p.name: p for p in cmd_fit_select(config)}
    assert {
        "fit_linear.csv",
        "fit_logistic.csv",
        "fit_logistic_sine.csv",
        "fit_linear_quadratic.csv",
        "fit_quadratic_quadratic.csv",
        "selection_summary.csv",
        "resilience.csv",
        "run_config.json",
    } <= set(paths)
    rows = read_rows(paths["fit_linear.csv"])
    assert [r["subject"] for r in rows] == ["400", "401"]
    assert {"a", "b", "se_a", "se_b", "r2", "pearson_r", "converged", "valid"} <= set(rows[0])
    # subject 401 has a single stability point: every fit reports the failure
    assert rows[1]["error"] != ""
    assert rows[1]["a"] == ""


def test_piecewise_tables_report_insufficient_support(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    paths = {p.name: p for p in cmd_fit_select(config)}
    rows = read_rows(paths["fit_linear_quadratic.csv"])
    # three stability points cannot host a breakpoint grid
    assert all(row["error"] != "" for row in rows)
    assert {"b1", "c1", "c2"} <= set(rows[0])


def test_selection_summary_error_rows(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    paths = {p.name: p for p in cmd_fit_select(config)}
    rows = {r["subject"]: r for r in read_rows(paths["selection_summary.csv"])}
    assert set(rows) == {"400", "401"}
    assert rows["401"]["model"] == ""
    assert rows["401"]["error"] != ""


def test_resilience_rows_cover_all_subjects(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    paths = {p.name: p for p in cmd_fit_select(config)}
    rows = {r["subject"]: r for r in read_rows(paths["resilience.csv"])}
    slope = float(rows["400"]["slope"])
    assert float(rows["400"]["magnitude"]) == abs(slope)
    assert rows["401"]["error"] != ""


def test_run_manifest_is_sorted_json(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out", seed=7)
    paths = {p.name: p for p in cmd_fit_select(config)}
    manifest = json.loads(paths["run_config.json"].read_text())
    assert manifest["seed"] == 7
    assert manifest["min_total_reads"] == 10
    assert manifest["models"][0] == "linear"
    assert list(manifest) == sorted(manifest)


def test_no_temp_files_left_behind(small_input, tmp_path):
    out = tmp_path / "out"
    report_all(RunConfig(input_path=small_input, out_dir=out))
    leftovers = [p for p in out.iterdir() if p.suffix not in (".csv", ".json", ".svg")]
    assert leftovers == []


def test_simulate_without_selection_writes_reason(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    paths = cmd_simulate(config, "401")
    (trajectory,) = paths
    rows = read_rows(trajectory)
    assert len(rows) == 1
    assert rows[0]["status"] != ""


def test_simulate_unknown_subject_raises_key_error(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    with pytest.raises(KeyError):
        cmd_simulate(config, "999")


def test_simulate_trajectory_and_fixed_points(tmp_path, cohort_path):
    config = RunConfig(input_path=cohort_path, out_dir=tmp_path / "out")
    config = dataclasses.replace(config, simulate_steps=80)
    paths = {p.name: p for p in cmd_simulate(config, "103", start=30.0)}
    rows = read_rows(paths["simulate_103_trajectory.csv"])
    assert rows[0]["step"] == "0"
    assert float(rows[0]["dominance"]) == 30.0
    assert rows[-1]["status"] != ""
    assert all(r["status"] == "" for r in rows[:-1])
    fp_rows = read_rows(paths["simulate_103_fixed_points.csv"])
    for row in fp_rows:
        assert row["verdict"] in ("stable", "unstable", "marginal")


def test_simulate_contains_logistic_pole(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    analysis = analyze_cohort(load_subjects(config)[:1], config)[0]
    # a selected logistic whose denominator 1 + a exp(-r D) vanishes at D = 0
    pole = dataclasses.replace(
        analysis.selected.fit, kind=ModelKind.LOGISTIC,
        params={"K": 1.0, "a": -1.0, "r": 1.0},
    )
    analysis.selected = dataclasses.replace(analysis.selected, fit=pole)
    paths = {p.name: p for p in simulate_subject(analysis, config, start=0.0)}
    rows = read_rows(paths["simulate_400_trajectory.csv"])
    assert len(rows) == 1
    assert rows[0]["step"] == "1"
    assert rows[0]["status"].startswith("diverged: ")


@pytest.mark.parametrize("start", ["1e308"])
def test_cli_non_finite_fixed_point_domain_is_analysis_error(start, tmp_path, cohort_path, capsys):
    """A finite start of 1e308 doubles to an infinite end of the fixed-point
    scan: the subject gets an error row and the run exits 2."""
    out = tmp_path / "out"
    code = main(["simulate", "--input", str(cohort_path), "--out", str(out),
                 "--subject", "103", "--start", start])
    assert code == 2
    assert "is not finite" in capsys.readouterr().err
    (row,) = read_rows(out / "simulate_103_fixed_points.csv")
    assert row["verdict"] == "fixed-point domain (0.0, inf) is not finite"


@pytest.mark.parametrize("flag", ["--steps=-1", "--start=nan", "--start=inf", "--start=-inf"])
def test_cli_simulate_argument_is_input_error(flag, tmp_path, cohort_path, capsys):
    """A negative step count or a start that is not finite is rejected
    before the table is read: exit 1 and no output directory."""
    name, _, value = flag.partition("=")
    message = (f"simulate steps {value} is negative" if name == "--steps"
               else f"start dominance {value} is not finite")
    out = tmp_path / "out"
    code = main(["simulate", "--input", str(cohort_path), "--out", str(out),
                 "--subject", "103", flag])
    assert code == 1
    assert capsys.readouterr().err == f"domstab: input error: {message}\n"
    assert not out.exists()


def test_report_all_reads_and_analyses_once(small_input, tmp_path, monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(report, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(report, name, wrapper)

    for name in ("parse_table", "dominance_records", "fit_model"):
        counted(name)
    cmd_metrics(RunConfig(input_path=small_input, out_dir=tmp_path / "metrics"))
    assert calls["fit_model"] == 0
    calls.clear()
    report_all(RunConfig(input_path=small_input, out_dir=tmp_path / "all"))
    assert calls["parse_table"] == 1
    assert calls["dominance_records"] == 2  # one per subject
    assert calls["fit_model"] > 0


def test_svg_chart_structure():
    svg = curve_chart(
        "subject <400>",
        [Curve("fit & data", [1.0, 2.0, 3.0], [0.1, math.nan, 0.3])],
        points=[(1.0, 0.15), (2.0, 0.2)],
    )
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 2
    assert "subject &lt;400&gt;" in svg
    assert "fit &amp; data" in svg
    # the nan splits the polyline into two pen-down segments
    assert svg.count("M ") == 2


def test_report_all_with_plots_writes_svg(small_input, tmp_path):
    out = tmp_path / "out"
    paths = report_all(RunConfig(input_path=small_input, out_dir=out, plot=True))
    names = {p.name for p in paths}
    assert "response_400.svg" in names
    svg = (out / "response_400.svg").read_text()
    assert "<svg" in svg and "</svg>" in svg


# ------------------------------------------------------------------- CLI


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "report-all" in capsys.readouterr().out


def test_cli_metrics_success(small_input, tmp_path, capsys):
    code = main(["metrics", "--input", str(small_input), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics_400.csv" in out
    assert (tmp_path / "out" / "metrics_400.csv").exists()


def test_cli_missing_input_is_input_error(tmp_path, capsys):
    code = main(["metrics", "--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert code == 1
    assert "input error" in capsys.readouterr().err


def test_cli_ragged_table_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("species_id,400_a\nOTU1,1,2\n")
    code = main(["metrics", "--input", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_empty_id_rule_is_input_error(small_input, tmp_path, capsys):
    code = main([
        "metrics", "--input", str(small_input), "--out", str(tmp_path / "out"),
        "--id-rule", "",
    ])
    assert code == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", ["", ",,"])
def test_cli_delimiter_of_other_than_one_character_is_input_error(
    delimiter, small_input, tmp_path, capsys
):
    code = main([
        "metrics", "--input", str(small_input), "--out", str(tmp_path / "out"),
        "--delimiter", delimiter,
    ])
    assert code == 1
    assert "is not one character" in capsys.readouterr().err


def test_cli_unknown_model_is_input_error(small_input, tmp_path, capsys):
    code = main([
        "fit", "--input", str(small_input), "--out", str(tmp_path / "out"),
        "--models", "cubic",
    ])
    assert code == 1
    assert "unknown model kind" in capsys.readouterr().err


def test_cli_unknown_subject_is_input_error(small_input, tmp_path, capsys):
    code = main([
        "simulate", "--input", str(small_input), "--out", str(tmp_path / "out"),
        "--subject", "999",
    ])
    assert code == 1


def test_cli_zero_sample_is_analysis_error(tmp_path, capsys):
    text = "species_id,700_a,700_b,700_c\nOTU1,5,0,6\nOTU2,3,0,2\n"
    src = tmp_path / "zero.csv"
    src.write_text(text)
    code = main(["metrics", "--input", str(src), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "analysis error" in capsys.readouterr().err


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m domstab`` in a child process, on this checkout's sources."""
    path = [str(Path(report.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "domstab", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_report_all_imports_neither_numpy_ma_nor_scipy(tmp_path, cohort_path):
    """A cohort ``report-all --plot`` leaves ``numpy.ma`` unimported (it costs
    about 13 ms at startup) and never imports scipy, which is not a
    dependency."""
    path = [str(Path(report.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = (
        "import sys\n"
        "from domstab.cli import main\n"
        f"code = main(['report-all', '--input', {str(cohort_path)!r},"
        f" '--out', {str(tmp_path / 'out')!r}, '--plot'])\n"
        "names = [m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')"
        " or m.split('.')[0].startswith('scipy')]\n"
        "print(code, sorted(names))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stdout[-500:] + proc.stderr


def test_cli_single_species_subject_gets_index_error_row(tmp_path):
    """Subject 1 keeps one species, whose Shannon evenness is NaN: its index
    regressions become error rows instead of a traceback."""
    src = tmp_path / "one_species.csv"
    src.write_text(
        "species_id,1_a,1_b,1_c,2_a,2_b,2_c,2_d\nx,1,2,3,4,5,6,7\ny,5,5,5,1,2,3,9\n"
    )
    out = tmp_path / "out"
    proc = _run_cli("report-all", "--input", str(src), "--out", str(out))
    assert proc.returncode in {0, 1, 2}
    assert "Traceback" not in proc.stderr
    notes = {
        (row["subject"], row["index"]): row["note"]
        for row in read_rows(out / "index_regressions.csv")
    }
    assert notes[("1", "shannon-evenness")] == "index regression input must be finite"


def _subject_rows(out: Path) -> dict[str, list[dict[str, str]]]:
    """Rows of every per-subject CSV table, by file name."""
    return {
        path.name: [row for row in read_rows(path) if row["subject"] != "mean"]
        for path in sorted(out.glob("*.csv")) if not path.name.startswith(("metrics_", "simulate_"))
    }


def _zeroed_cohort(cohort_path: Path, tmp_path: Path) -> Path:
    """A copy of the cohort with subject 101's first sample all zeros."""
    rows = list(csv.reader(cohort_path.read_text().splitlines()))
    first = next(i for i, name in enumerate(rows[0]) if name.startswith("101_"))
    for row in rows[1:]:
        row[first] = "0"
    src = tmp_path / "zeroed.csv"
    src.write_text("".join(",".join(row) + "\n" for row in rows))
    return src


def test_cli_zero_sample_subject_gets_error_rows(tmp_path, cohort_path):
    """Subject 101's first sample is all zeros, so its dominance records
    fail: it gets error rows, every other subject the files of a run
    without it, and the exit code is 2."""
    src = _zeroed_cohort(cohort_path, tmp_path)
    out, clean = tmp_path / "out", tmp_path / "clean"
    proc = _run_cli("report-all", "--input", str(src), "--out", str(out), "--plot")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "analysis error: subject 101: all abundances are zero" in proc.stderr
    report_all(RunConfig(input_path=cohort_path, out_dir=clean, plot=True))

    healthy = {p.name for p in clean.iterdir()} - {"run_config.json"}
    healthy = {name for name in healthy if "101" not in name}
    written = {p.name for p in out.iterdir()}
    assert written == healthy | {"run_config.json", "simulate_101_trajectory.csv"}
    for name in healthy:
        if name.startswith(("metrics_", "simulate_", "response_")):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
    zeroed, expected = _subject_rows(out), _subject_rows(clean)
    assert zeroed.keys() == expected.keys()
    for name, table in zeroed.items():
        assert [r for r in table if r["subject"] != "101"] == [
            r for r in expected[name] if r["subject"] != "101"
        ], name
        errors = [r.get("error") or r["note"] for r in table if r["subject"] == "101"]
        assert errors and set(errors) == {"all abundances are zero"}, name
    trajectory = read_rows(out / "simulate_101_trajectory.csv")
    assert [r["status"] for r in trajectory] == ["all abundances are zero"]


def test_cli_metrics_contains_zero_sample_subject(tmp_path, cohort_path):
    """metrics writes the tables of subjects 102-105, as a clean run does,
    none for subject 101, whose records fail, and exits 2."""
    src = _zeroed_cohort(cohort_path, tmp_path)
    out, clean = tmp_path / "out", tmp_path / "clean"
    proc = _run_cli("metrics", "--input", str(src), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "analysis error: subject 101: all abundances are zero" in proc.stderr
    cmd_metrics(RunConfig(input_path=cohort_path, out_dir=clean))
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"metrics_{subject}.csv" for subject in range(102, 106)]
    for name in names:
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name


def test_cli_compare_indices_contains_zero_sample_subject(tmp_path, cohort_path):
    """compare-indices gives subject 101 error rows and every other subject
    its rows of a clean run, and exits 2."""
    src = _zeroed_cohort(cohort_path, tmp_path)
    out, clean = tmp_path / "out", tmp_path / "clean"
    proc = _run_cli("compare-indices", "--input", str(src), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "analysis error: subject 101: all abundances are zero" in proc.stderr
    expected = read_rows(cmd_compare_indices(RunConfig(input_path=cohort_path, out_dir=clean)))
    rows = read_rows(out / "index_regressions.csv")
    healthy = ("102", "103", "104", "105")
    assert [r for r in rows if r["subject"] in healthy] == [
        r for r in expected if r["subject"] in healthy
    ]
    errors = [r for r in rows if r["subject"] == "101"]
    assert [r["note"] for r in errors] == ["all abundances are zero"] * 5
    assert all(r["slope"] == "" for r in errors)


def test_cli_relative_abundances_get_fixed_points(tmp_path, cohort_path):
    """As relative abundances every community dominance of the cohort is
    negative.  The fixed-point scan then runs on (2 min(D, start), 0), each
    subject gets a table of negative fixed points, no trajectory collapses at
    its first step, and the run exits 0."""
    rows = list(csv.reader(cohort_path.read_text().splitlines()))
    totals = [sum(float(row[j]) for row in rows[1:]) for j in range(1, len(rows[0]))]
    lines = [",".join(rows[0])] + [
        ",".join([row[0], *(repr(float(c) / t) for c, t in zip(row[1:], totals))])
        for row in rows[1:]
    ]
    src = tmp_path / "relative.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    proc = _run_cli("report-all", "--input", str(src), "--out", str(out),
                    "--min-total-reads", "0")
    assert proc.returncode == 0, proc.stderr
    for subject in range(101, 106):
        trajectory = read_rows(out / f"simulate_{subject}_trajectory.csv")
        assert float(trajectory[0]["dominance"]) < 0.0
        assert len(trajectory) > 2 and trajectory[-1]["status"] != "collapsed"
        points = read_rows(out / f"simulate_{subject}_fixed_points.csv")
        assert points and all(float(row["location"]) < 0.0 for row in points)
    assert len(list(out.iterdir())) == 24


def test_report_all_batches_every_logistic_fit(cohort_path, tmp_path, monkeypatch):
    """The ten logistic-family fits of the cohort (five subjects of one
    series length, two kinds) share one exploration and one polish run."""
    rows = []
    original = fitting._lockstep

    def counted(*args):
        rows.append(len(args[-2]))  # the stack of starts
        return original(*args)

    monkeypatch.setattr(fitting, "_lockstep", counted)
    report_all(RunConfig(input_path=cohort_path, out_dir=tmp_path / "out"))
    assert len(rows) == 2
    assert rows[0] == 10 * 24  # every problem explores its 24 best-ranked starts


def test_report_all_rounds_follow_the_longest_search(cohort_path, tmp_path, monkeypatch):
    """Each lockstep round is one stacked solve in which every running start
    makes its next two trials, at lambda and ten times lambda.  A pass takes
    as many rounds as its longest-searching start needs: 168 in the cohort's
    exploration and 655 in its polish, where most iterations reject one
    trial and accept the next."""
    solves = []
    original = fitting._solve

    def counted(damped, rhs):
        solves.append(len(damped))
        return original(damped, rhs)

    monkeypatch.setattr(fitting, "_solve", counted)
    report_all(RunConfig(input_path=cohort_path, out_dir=tmp_path / "out"))
    assert len(solves) == 168 + 655


def test_write_rows_renders_floats_as_fmt(tmp_path):
    """Floats render in shortest round-trip form with inf, -inf and nan
    literal, None as an empty cell, and bools as the "true"/"false" strings
    callers pass."""
    values = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 0.1, None, "true", 3]
    path = report._write_rows(tmp_path / "floats.csv", ["x"] * len(values), [values])
    assert path.read_text().splitlines()[1].split(",") == [
        "inf", "-inf", "nan", "-0.0", "5e-324", "1e+300", "0.1", "", "true", "3"
    ]


def test_every_cell_is_a_plain_value(tmp_path, cohort_path, monkeypatch):
    """Every table cell reaching the CSV writer is a str, an int, None, a
    Python float (a NumPy float renders as ``np.float64(...)``) or a 1-d
    float64 array (a metrics row's float block), error rows included."""
    original = report._write_rows
    kinds = set()

    def checked(path, header, rows):
        rows = list(rows)
        kinds.update(type(cell) for row in rows for cell in row)
        blocks = [cell for row in rows for cell in row if type(cell) is np.ndarray]
        assert all(b.ndim == 1 and b.dtype == np.float64 and b.size for b in blocks), path
        return original(path, header, rows)

    monkeypatch.setattr(report, "_write_rows", checked)
    report_all(RunConfig(input_path=cohort_path, out_dir=tmp_path / "cohort"))
    with pytest.raises(SubjectAnalysisError):
        report_all(RunConfig(input_path=_zeroed_cohort(cohort_path, tmp_path),
                             out_dir=tmp_path / "zeroed"))
    assert kinds == {str, int, float, type(None), np.ndarray}


# SHA-256 of the cohort's metrics and index tables: the bench golden compares
# floats only to rtol 1e-9, so a change of spelling (1e-05 -> 0.00001) would
# pass it.
COHORT_DIGESTS = {
    "metrics_101.csv": "8aaf955fb8fb6f789940bc766286cb61b71fec07502fed9e7f207a86bd4ceeeb",
    "metrics_102.csv": "eaabe3a36eeb697c8c7fe0c14f5536057a72a22bd51bd5d8fe9c086802f8c278",
    "metrics_103.csv": "2f9a363536b60b8404467becff7558503196a9dd23fffd002242f2447616d979",
    "metrics_104.csv": "9be06ab78f4f5a72e30053d44e9542279edf84a7a7e3d7ea28279fdcf8b930b9",
    "metrics_105.csv": "33d3e21c3e541bd220862f6e07e6f7448298fcc47015af39246b82aa1dd7c495",
    "index_regressions.csv": "2b173dc8babca2a1e5f28487a81eb7da83bb18f2dea4c8f9001431c4f91b7792",
}


def test_cohort_metrics_and_index_bytes_pinned(tmp_path, cohort_path):
    config = RunConfig(input_path=cohort_path, out_dir=tmp_path / "out")
    paths = [*cmd_metrics(config), cmd_compare_indices(config)]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == COHORT_DIGESTS


def test_cli_non_utf8_input_is_input_error(tmp_path, capsys):
    src = tmp_path / "latin1.csv"
    src.write_bytes(b"species_id,1_a,1_b\nx,1,\xff2\n")
    code = main(["metrics", "--input", str(src), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "domstab: input error: input is not UTF-8: invalid start byte "
        "at byte offset 23 (row 2)\n"
    )


def test_cli_non_utf8_late_byte_offset_and_precedence(tmp_path, capsys):
    """A bad byte past the stream's first decode block is named by its
    offset in the file; a bad cell in a record read before the bad byte's
    block is named instead of it."""
    body = "".join(f"s{i},1,2\n" for i in range(3000)).encode()
    src = tmp_path / "late.csv"
    src.write_bytes(b"species_id,1_a,1_b\n" + body + b"x,1,\xff2\n")
    assert main(["metrics", "--input", str(src), "--out", str(tmp_path / "out")]) == 1
    offset = 19 + len(body) + 4
    assert capsys.readouterr().err == (
        "domstab: input error: input is not UTF-8: invalid start byte "
        f"at byte offset {offset} (row 3002)\n"
    )
    src.write_bytes(b"species_id,1_a,1_b\ns,1,x\n" + body + b"x,1,\xff2\n")
    assert main(["metrics", "--input", str(src), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "domstab: input error: non-numeric count at row 2, column 2: 'x'\n"
    )


def test_cli_bare_carriage_return_in_an_id_is_quoted(tmp_path, capsys):
    """A species id holding a bare carriage return is quoted, so the metrics
    table reads back as one header and one record per sample, each as wide
    as the header, on every Python version."""
    src = tmp_path / "cr.csv"
    src.write_bytes(b'species_id,1_a,1_b,1_c\n"x\ry",10,20,30\nz,5,6,7\nw,1,2,3\n')
    assert main(["metrics", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "metrics_1.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert {len(row) for row in rows} == {len(rows[0])}
    assert any("x\ry" in cell for cell in rows[0])


def test_cli_empty_roster_subject_gets_error_rows(tmp_path, capsys):
    """No species of subject 2 reaches the read floor: subject 2 gets error
    rows, subject 1 the files and rows of a run without subject 2, and the
    exit code is 2."""
    src, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    src.write_text("species_id,1_a,1_b,1_c,2_a,2_b,2_c\nx,10,20,30,1,1,1\ny,5,6,7,1,2,1\n")
    alone.write_text("species_id,1_a,1_b,1_c\nx,10,20,30\ny,5,6,7\n")
    out, clean = tmp_path / "out", tmp_path / "clean"
    code = main(["report-all", "--input", str(src), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "domstab: analysis error: subject 2: no species with >= 10.0 reads\n"
    )
    assert main(["report-all", "--input", str(alone), "--out", str(clean)]) == 0
    written = {p.name for p in clean.iterdir()}
    assert {p.name for p in out.iterdir()} == written | {"simulate_2_trajectory.csv"}
    for name in written:
        if name.startswith(("metrics_", "simulate_")):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name
    expected = _subject_rows(clean)
    for name, table in _subject_rows(out).items():
        assert [r for r in table if r["subject"] == "1"] == expected[name], name
        errors = [r.get("error") or r["note"] for r in table if r["subject"] == "2"]
        assert errors and set(errors) == {"no species with >= 10.0 reads"}, name
    (row,) = read_rows(out / "simulate_2_trajectory.csv")
    assert row["status"] == "no species with >= 10.0 reads"


def test_cli_custom_id_rule(tmp_path, capsys):
    text = "species_id,400-a,400-b\nOTU1,5,6\nOTU2,12,9\n"
    src = tmp_path / "dash.csv"
    src.write_text(text)
    code = main([
        "metrics", "--input", str(src), "--out", str(tmp_path / "out"),
        "--id-rule", "-",
    ])
    assert code == 0
    assert (tmp_path / "out" / "metrics_400.csv").exists()


def test_cli_select_models_subset(small_input, tmp_path):
    code = main([
        "fit", "--input", str(small_input), "--out", str(tmp_path / "out"),
        "--models", "linear",
    ])
    assert code == 0
    out_names = {p.name for p in (tmp_path / "out").iterdir()}
    assert "fit_linear.csv" in out_names
    assert "fit_logistic.csv" not in out_names
