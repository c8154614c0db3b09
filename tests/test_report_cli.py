import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from domstab import cli, fitting, report
from domstab.cli import main
from domstab.errors import DomstabError, InputError
from domstab.ingest import SubjectSeries, filter_low_reads, parse_table, split_subjects
from domstab.metrics import IndexKind, community_dominance
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
from domstab.svgplot import curve_chart

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
        expected = community_dominance(series.counts[:, t])
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
    # subject 401 has two samples: the regression needs three and says so
    assert all(r["note"] == "index regression needs at least 3 samples"
               for r in by_subject["401"])
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


def test_simulate_unknown_subject_raises_input_error(small_input, tmp_path):
    config = RunConfig(input_path=small_input, out_dir=tmp_path / "out")
    with pytest.raises(InputError, match="^subject '999' not found in input$"):
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


def one_species_last_table(n_species: int, seed: int, lo: float, hi: float) -> str:
    """Eleven samples of fractional abundances, then one held by one species,
    whose community dominance n(simpson - 1) is 0 up to roundoff."""
    rng = random.Random(seed)
    samples = [[round(rng.uniform(lo, hi), 3) for _ in range(n_species)] for _ in range(11)]
    samples.append([1.0 if i == 1 else 0.0 for i in range(n_species)])
    lines = ["species_id," + ",".join(f"1_{t:02d}" for t in range(len(samples)))]
    lines.extend(f"OTU{i}," + ",".join(repr(s[i]) for s in samples) for i in range(n_species))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_species, seed, lo, hi, models, expected", [
    # D_last is 0.0 exactly: a scan from it was the empty domain (0.0, 0.0)
    (3, 3, 0.05, 0.3, None, None),
    # D_last is +1.1e-15: a scan from it covered (0, 2.2e-15) and found nothing
    (5, 5, 0.02, 0.2, (ModelKind.LINEAR,), [(-8.4749, "stable")]),
])
def test_fixed_point_scan_takes_the_side_of_the_data(
    tmp_path, n_species, seed, lo, hi, models, expected
):
    path = tmp_path / "counts.csv"
    path.write_text(one_species_last_table(n_species, seed, lo, hi))
    config = RunConfig(input_path=path, out_dir=tmp_path / "out", min_total_reads=0.0)
    if models is not None:
        config = dataclasses.replace(config, models=models)
    (series,) = load_subjects(config)
    assert 0.0 <= community_dominance(series.counts[:, -1]) < 1e-14
    paths = {p.name: p for p in cmd_simulate(config, "1")}
    rows = read_rows(paths["simulate_1_fixed_points.csv"])
    assert rows
    assert all(float(r["location"]) < 0.0 for r in rows)
    if expected is not None:
        found = [(float(r["location"]), r["verdict"]) for r in rows]
        assert [v for _, v in found] == [v for _, v in expected]
        assert [x for x, _ in found] == pytest.approx([x for x, _ in expected], abs=1e-4)


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


@pytest.mark.parametrize("start, first", [
    ("1e4", ["0", "10000.0", ""]),
    ("-5", ["0", "-5.0", ""]),
    ("1e308", ["1", "", "diverged: non-finite dominance at step 1"]),
], ids=["1e4", "-5", "1e308"])
def test_start_moves_the_trajectory_but_not_the_fixed_point_scan(
    start, first, tmp_path, cohort_path
):
    """The scan's domain comes from the fit's range and the last observed
    dominance, not from ``--start``.  A start of 1e4 once widened the grid
    until two roots 0.037 apart shared one interval, -5 scanned the negative
    side, where the fit has no root, and 1e308 doubled to an infinite domain
    end and exit 2; now each writes the default table and exits 0, and 1e308
    overflows the map at its first step."""
    for out, flags in [("default", []), ("start", [f"--start={start}"])]:
        code = main(["simulate", "--input", str(cohort_path), "--out", str(tmp_path / out),
                     "--subject", "104", *flags])
        assert code == 0
    name = "simulate_104_fixed_points.csv"
    default = (tmp_path / "default" / name).read_bytes()
    assert (tmp_path / "start" / name).read_bytes() == default
    assert len(read_rows(tmp_path / "default" / name)) == 3
    (row, *_) = read_rows(tmp_path / "start" / "simulate_104_trajectory.csv")
    assert list(row.values()) == first


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="F14: the piecewise form cancels far from its joint (ROADMAP item 9)")
def test_far_start_does_not_read_converged(tmp_path, cohort_path):
    """From -5, subject 104's linear-quadratic map runs to -3.4e21 by step 6,
    where the |D - d| form cancels to S = 0, so step 7 repeats step 6 and
    reads ``converged`` 21 orders of magnitude from the data."""
    config = RunConfig(input_path=cohort_path, out_dir=tmp_path / "out")
    trajectory, *_ = cmd_simulate(config, "104", start=-5.0)
    assert read_rows(trajectory)[-1]["status"] != "converged"


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


@pytest.mark.parametrize("flag, message", [
    ("--min-total-reads=nan", "min total reads nan is not a finite number at or above 0"),
    ("--min-total-reads=inf", "min total reads inf is not a finite number at or above 0"),
    ("--min-total-reads=-1", "min total reads -1.0 is not a finite number at or above 0"),
    ("--r2-min=nan", "r2 minimum nan is not a number"),
    ("--se-ratio-max=nan", "se ratio maximum nan is not a number at or above 0"),
    ("--se-ratio-max=-1", "se ratio maximum -1.0 is not a number at or above 0"),
    ("--mag-max=nan", "magnitude maximum nan is not a number at or above 0"),
    ("--mag-max=-1e6", "magnitude maximum -1000000.0 is not a number at or above 0"),
    ("--models=,", "no model kinds given"),
])
def test_cli_policy_and_read_floor_arguments_are_input_errors(
    flag, message, tmp_path, cohort_path, capsys
):
    """A read floor that is not finite and at least 0, a NaN r2 minimum, a
    NaN or negative gate maximum and a model list naming no kind are
    rejected before the table is read."""
    out = tmp_path / "out"
    code = main(["fit", "--input", str(cohort_path), "--out", str(out), flag])
    assert code == 1
    assert capsys.readouterr().err == f"domstab: input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [],
    ["metrics", "--out", "out"],
    ["metrics", "--input", "in.csv", "--out", "out", "--bogus"],
    ["fit", "--input", "in.csv", "--out", "out", "--r2-min", "high"],
    ["simulate", "--input", "in.csv", "--out", "out", "--subject", "1", "--steps", "1.5"],
])
def test_cli_usage_error_is_input_error(argv, capsys):
    """argparse's own exit code 2 would read as an analysis error."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    assert "error: " in capsys.readouterr().err


INPUT_FLAGS = {"--input", "--out", "--delimiter", "--min-total-reads", "--id-rule"}
FIT_FLAGS = {"--models", "--r2-min", "--se-ratio-max", "--mag-max"}
# the flags each subcommand reads, and so takes
ACCEPTED = {
    "metrics": INPUT_FLAGS,
    "compare-indices": INPUT_FLAGS,
    "fit": INPUT_FLAGS | FIT_FLAGS | {"--seed"},
    "simulate": INPUT_FLAGS | FIT_FLAGS | {"--plot", "--subject", "--start", "--steps"},
    "report-all": INPUT_FLAGS | FIT_FLAGS | {"--seed", "--plot"},
}


def _parser_flags() -> dict[str, set[str]]:
    """The long flags, --help aside, that each subcommand of the parser takes."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in cmd._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
        for name, cmd in sub.choices.items()
    }


def test_each_subcommand_takes_only_the_flags_it_reads():
    assert _parser_flags() == ACCEPTED
    assert sum(map(len, ACCEPTED.values())) == 44


@pytest.mark.parametrize("argv, message", [
    (["metrics", "--plot"], "unrecognized arguments: --plot"),
    (["compare-indices", "--models", "linear"], "unrecognized arguments: --models linear"),
    (["metrics", "--r2-min", "nan"], "unrecognized arguments: --r2-min nan"),
    (["fit", "--plot"], "unrecognized arguments: --plot"),
    (["simulate", "--subject", "103", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["select"], "argument command: invalid choice: 'select'"),
])
def test_a_flag_or_command_not_taken_is_a_usage_error(argv, message, cohort_path, tmp_path, capsys):
    """A retired (subcommand, flag) pair, or ``select``, ends in argparse's
    usage error: SystemExit with code 1, not a traceback, and no output."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--input", str(cohort_path), "--out", str(out)])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: domstab ")
    assert f"domstab: error: {message}" in err
    assert not out.exists()


def test_readme_flag_table_matches_the_parser():
    """README's flag table marks with an x each flag a subcommand takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = iter(readme.splitlines())
    header = next(line for line in lines if line.startswith("| flag |"))
    commands = [cell.strip() for cell in header.strip("|").split("|")][1:]
    next(lines)  # the |---| rule
    table = {command: set() for command in commands}
    for line in lines:
        if not line.startswith("|"):
            break
        flag, *marks = [cell.strip() for cell in line.strip("|").split("|")]
        for command, mark in zip(commands, marks, strict=True):
            assert mark in ("x", ""), line
            if mark:
                table[command].add(flag.strip("`"))
    assert table == _parser_flags()


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
        "subject <400>", "fit & data", [1.0, 2.0, 3.0], [0.1, math.nan, 0.3],
        points=[(1.0, 0.15), (2.0, 0.2)],
    )
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 2
    assert "subject &lt;400&gt;" in svg
    assert "fit &amp; data" in svg
    # the nan splits the polyline into two pen-down segments
    assert svg.count("M ") == 2


@pytest.mark.parametrize("ys, x_ticks, y_ticks, paths", [
    # a flat curve is given one unit of range, centred on its value
    ([0.2] * 3, ["0.9", "1.45", "2", "2.55", "3.1"],
     ["-0.35", "-0.075", "0.2", "0.475", "0.75"], 1),
    # with no finite value on an axis, both take [0, 1]
    ([math.nan] * 3, ["-0.05", "0.225", "0.5", "0.775", "1.05"],
     ["-0.05", "0.225", "0.5", "0.775", "1.05"], 0),
], ids=["flat", "no-finite-value"])
def test_svg_chart_axes_without_a_data_range(ys, x_ticks, y_ticks, paths):
    svg = curve_chart("t", "fit", [1.0, 2.0, 3.0], ys, points=[(math.inf, 0.1)])
    assert re.findall(r'text-anchor="middle" font-family="sans-serif" font-size="11">([^<]*)<',
                      svg) == x_ticks
    assert re.findall(r'text-anchor="end" font-family="sans-serif" font-size="11">([^<]*)<',
                      svg) == y_ticks
    assert svg.count("<path") == paths
    assert "<circle" not in svg


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
    message = f"delimiter {delimiter!r} is not one character"
    assert capsys.readouterr().err == f"domstab: input error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("species_id,1_a,1_b\nx,1,2\nx,3,4\n", "duplicate species id"),
    ("species_id,1_a,1_a\nx,1,2\n", "duplicate sample id in header"),
    ("species_id,1_a,1b\nx,1,2\n", "sample id '1b' has no '_' separator"),
])
def test_cli_bad_id_in_the_table_is_input_error(text, message, tmp_path, capsys):
    """A repeated id, or a sample id without the rule's separator, stops the
    run before anything is written: exit 1 and no output directory."""
    src, out = tmp_path / "in.csv", tmp_path / "out"
    src.write_text(text)
    assert main(["report-all", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"domstab: input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("subject", ["a/../../../escaped", "a\\..\\escaped", "a\0b"])
def test_cli_subject_id_that_could_name_a_path_is_input_error(subject, tmp_path, capsys):
    """A subject id names output files, so one holding a path separator (or
    NUL) is refused before anything is written, inside ``--out`` or not."""
    table = tmp_path / "counts.csv"
    table.write_text(
        f"species_id,{subject}_010106,{subject}_010206,{subject}_010306,b_010106\n"
        "OTU1,10,20,30,40\nOTU2,5,7,9,11\n"
    )
    out = tmp_path / "out" / "deep"
    code = main(["report-all", "--input", str(table), "--out", str(out)])
    assert code == 1
    assert "path separator or NUL" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [table]


@pytest.mark.parametrize("char", ["\n", "\r", "\x85", "\u2028", "\x1b"])
def test_cli_subject_id_holding_a_line_break_is_input_error(char, tmp_path, capsys):
    """A quoted header cell may hold a line break, but a subject id holding
    one (or any control character) would name a file across two printed
    lines: it is refused before anything is written."""
    table = tmp_path / "counts.csv"
    table.write_text(
        f'species_id,"40{char}0_010106","40{char}0_010206",b_010106\nOTU1,10,20,30\n',
        encoding="utf-8", newline="",
    )
    code = main(["metrics", "--input", str(table), "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "control character or line break" in captured.err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [table]


def _id_table(tmp_path: Path, subject: str) -> Path:
    """Four samples of ``subject`` and one of a sound subject ``b``."""
    samples = ",".join(f"{subject}_01{day:02d}06" for day in (1, 5, 8, 12))
    table = tmp_path / "counts.csv"
    table.write_text(
        f"species_id,{samples},b_010106\n"
        "OTU1,40,40,35,28,12\nOTU2,12,8,11,20,30\nOTU3,0,4,2,1,0\nOTU4,25,22,20,18,11\n",
        encoding="utf-8",
    )
    return table


@pytest.mark.parametrize("subject", ["x" * 300, "\u00e9" * 112 + "xx"])
def test_cli_subject_id_too_long_for_a_file_name_is_input_error(subject, tmp_path, capsys):
    """A subject id whose longest output name would pass 255 bytes (here
    300 and 226 bytes) is refused before anything is written, rather than
    stopping the run part way with "File name too long"."""
    table = _id_table(tmp_path, subject)
    code = main(["report-all", "--input", str(table), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "too long to name a file" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [table]


def test_cli_subject_id_at_the_file_name_limit_writes_its_files(tmp_path):
    subject = "\u00e9" * 112 + "x"  # 225 bytes: the longest name takes 255
    table = _id_table(tmp_path, subject)
    out = tmp_path / "out"
    assert main(["report-all", "--input", str(table), "--out", str(out)]) == 0
    longest = out / f"simulate_{subject}_fixed_points.csv"
    assert len(longest.name.encode()) + len(".tmp") == 255
    assert longest.is_file()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--subject", "999"], "subject '999' not found in input"),
        (["fit", "--models", "linear,bogus"], "unknown model kind 'bogus'"),
    ],
)
def test_cli_unknown_name_message_is_plain(argv, message, small_input, tmp_path, capsys):
    code = main([*argv, "--input", str(small_input), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"domstab: input error: {message}")


def test_cli_programming_key_error_is_not_an_input_error(small_input, tmp_path, monkeypatch):
    """Only the input-error classes exit 1; a KeyError from a bug propagates."""

    def broken(config):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "report_all", broken)
    with pytest.raises(KeyError):
        main(["report-all", "--input", str(small_input), "--out", str(tmp_path / "out")])


def test_cli_unknown_model_is_input_error(small_input, tmp_path, capsys):
    code = main([
        "fit", "--input", str(small_input), "--out", str(tmp_path / "out"),
        "--models", "cubic",
    ])
    assert code == 1
    assert "unknown model kind" in capsys.readouterr().err


def test_cli_steps_of_zero_dominance_leave_no_usable_stability_points(tmp_path):
    """Every count 1: each of the three samples has D = 0, so no step of the
    stability series is usable.  The subject is stopped before fitting, every
    table names why, and the run exits 0."""
    path = tmp_path / "ones.csv"
    path.write_text("species_id,500_a,500_b,500_c\nOTU1,1,1,1\nOTU2,1,1,1\n")
    out = tmp_path / "out"
    code = main(["report-all", "--input", str(path), "--out", str(out),
                 "--min-total-reads", "0"])
    assert code == 0
    for name, column in [("selection_summary.csv", "error"), ("fit_linear.csv", "error"),
                         ("resilience.csv", "error"), ("simulate_500_trajectory.csv", "status")]:
        (row,) = read_rows(out / name)
        assert row[column] == "no usable stability points", name
    assert not (out / "simulate_500_fixed_points.csv").exists()


def test_cli_no_valid_fit_without_a_linear_backup_is_a_selection_error(tmp_path, cohort_path):
    """With logistic alone, a subject whose fit fails validation has no
    linear fit to fall back on; selection names that and the run exits 0.
    An unconverged fit is one that fails validation: 101's and 104's did
    not converge, and their fit table says so."""
    out = tmp_path / "out"
    code = main(["fit", "--input", str(cohort_path), "--out", str(out), "--models", "logistic"])
    assert code == 0
    errors = {row["subject"]: row["error"] for row in read_rows(out / "selection_summary.csv")}
    no_backup = "no fit is valid and no linear backup was supplied"
    assert errors == {"101": no_backup, "102": no_backup, "103": "",
                      "104": no_backup, "105": no_backup}
    fits = {row["subject"]: row for row in read_rows(out / "fit_logistic.csv")}
    for subject in ("101", "104"):
        assert fits[subject]["converged"] == "false"
        assert fits[subject]["error"] == "logistic: no start converged"
        assert "fit did not converge" in fits[subject]["reasons"]
    assert all(fits[s]["error"] == "" for s in ("102", "103", "105"))


@pytest.mark.parametrize("policy", [[], ["--r2-min=-inf", "--se-ratio-max=inf", "--mag-max=inf"]],
                         ids=["default", "no-thresholds"])
def test_every_selected_fit_converged(policy, tmp_path, cohort_path):
    """Selection sees every fit that did not raise, converged or not, and
    never selects an unconverged one, even with every threshold lifted."""
    out = tmp_path / "out"
    assert main(["fit", "--input", str(cohort_path), "--out", str(out),
                 "--models", "logistic,logistic-sine", *policy]) == 0
    selected = {row["subject"]: row["model"] for row in read_rows(out / "selection_summary.csv")}
    fits = {
        kind: {row["subject"]: row for row in read_rows(out / f"fit_{kind.replace('-', '_')}.csv")}
        for kind in ("logistic", "logistic-sine")
    }
    assert any(row["converged"] == "false" for rows in fits.values() for row in rows.values())
    chosen = {subject: kind for subject, kind in selected.items() if kind}
    assert chosen
    assert all(fits[kind][subject]["converged"] == "true" for subject, kind in chosen.items())
    if policy:  # convergence alone decides: every subject with a converged fit gets one
        converged = {s for rows in fits.values() for s, row in rows.items()
                     if row["converged"] == "true"}
        assert set(chosen) == converged


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


def test_failed_fixed_point_scan_stays_with_its_subject(tmp_path, cohort_path, monkeypatch, capsys):
    """A fixed-point scan that raises for subject 103 leaves its message in
    103's fixed-point table and exits 2 naming 103; every other byte,
    103's trajectory included, is that of a run without the failure."""
    argv = ["report-all", "--input", str(cohort_path), "--plot", "--out"]
    clean, out = tmp_path / "clean", tmp_path / "out"
    assert main([*argv, str(clean)]) == 0
    capsys.readouterr()
    simulate, scan, current = report.simulate_subject, report.fixed_points, []

    def tracking(analysis, *args, **kwargs):
        current[:] = [analysis.series.subject_id]
        return simulate(analysis, *args, **kwargs)

    def failing(*args):
        if current == ["103"]:
            raise DomstabError("scan failed")
        return scan(*args)

    monkeypatch.setattr(report, "simulate_subject", tracking)
    monkeypatch.setattr(report, "fixed_points", failing)
    assert main([*argv, str(out)]) == 2
    assert "analysis error: subject 103: scan failed" in capsys.readouterr().err
    failed = "simulate_103_fixed_points.csv"
    assert (out / failed).read_text() == "location,multiplier,verdict\n,,scan failed\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in clean.iterdir())
    for path in clean.iterdir():
        if path.name != failed:
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def _short_subjects_input(cohort_path: Path, tmp_path: Path) -> Path:
    """The cohort plus subject 999 with one sample and subject 998 with two,
    every count 50 in 999 and 998's first sample, 70 in its second."""
    rows = list(csv.reader(cohort_path.read_text().splitlines()))
    rows[0].extend(["999_010106", "998_010106", "998_010206"])
    for row in rows[1:]:
        row.extend(["50", "50", "70"])
    src = tmp_path / "short_subjects.csv"
    src.write_text("".join(",".join(row) + "\n" for row in rows))
    return src


def test_one_sample_subject_names_one_stop_reason_in_every_table(tmp_path, cohort_path):
    """Subjects too short to model are stopped without an analysis error, and
    each stop names the rule that made it.  999 has one sample, so no step:
    every table that names its stop reason reads the empty stability series.
    998 has two samples, one usable step: its linear fit raises, selection
    has nothing to select from, and the index regression needs three."""
    out = tmp_path / "out"
    report_all(RunConfig(input_path=_short_subjects_input(cohort_path, tmp_path), out_dir=out,
                         models=(ModelKind.LINEAR,)))
    tables = _subject_rows(out)

    def column(name, subject, key="error"):
        return [r[key] for r in tables[name] if r["subject"] == subject]

    def stops(subject):
        trajectory = read_rows(out / f"simulate_{subject}_trajectory.csv")
        return (column("fit_linear.csv", subject), column("resilience.csv", subject),
                column("selection_summary.csv", subject), [r["status"] for r in trajectory])

    no_points = ["no usable stability points"]
    assert stops("999") == (no_points, no_points, no_points, no_points)
    no_fit = ["linear fit needs at least 3 points, got 1"]
    no_fits = ["no fits to select from"]
    assert stops("998") == (no_fit, no_fit, no_fits, no_fits)
    for subject in ("998", "999"):
        notes = column("index_regressions.csv", subject, "note")
        assert notes == ["index regression needs at least 3 samples"] * len(IndexKind)


@pytest.mark.parametrize("short", [False, True], ids=["cohort", "short-subjects"])
def test_report_all_is_the_union_of_the_partial_commands(short, tmp_path, cohort_path):
    """Every file that metrics, compare-indices, fit and a simulate per
    subject write is byte for byte report-all's copy, and together they
    write all of report-all's files.  A simulate fits its one subject in a
    batch of one, so this also holds a one-subject logistic batch to the
    cohort batch, end to end."""
    src = _short_subjects_input(cohort_path, tmp_path) if short else cohort_path
    subjects = [s.subject_id for s in load_subjects(RunConfig(input_path=src, out_dir=tmp_path))]

    def run(name, *flags):
        out = tmp_path / name
        assert main([*flags, "--input", str(src), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    whole = run("all", "report-all", "--plot")
    parts = [run(command, command) for command in ("metrics", "compare-indices", "fit")]
    parts += [run(f"simulate_{s}", "simulate", "--subject", s, "--plot") for s in subjects]
    covered = set()
    for files in parts:
        assert files == {name: whole[name] for name in files}
        covered |= set(files)
    assert covered == set(whole)


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
    Python float (a NumPy float renders as ``np.float64(...)``) or spelled
    text (a metrics row's float cells), error rows included.  Spelled text
    holds as many cells as the header leaves for it, each the ``repr`` of a
    float."""
    original = report._write_rows
    kinds = set()

    def checked(path, header, rows):
        rows = list(rows)
        kinds.update(type(cell) for row in rows for cell in row)
        for row in rows:
            for cell in row:
                if type(cell) is report._Spelled:
                    words = cell.split(",")
                    assert len(words) == len(header) - len(row) + 1, path
                    assert all(repr(float(word)) == word for word in words), path
        return original(path, header, rows)

    monkeypatch.setattr(report, "_write_rows", checked)
    report_all(RunConfig(input_path=cohort_path, out_dir=tmp_path / "cohort"))
    with pytest.raises(DomstabError, match="^subject 101: all abundances are zero$"):
        report_all(RunConfig(input_path=_zeroed_cohort(cohort_path, tmp_path),
                             out_dir=tmp_path / "zeroed"))
    assert kinds == {str, int, float, type(None), report._Spelled}


def test_metrics_emit_memory_is_bounded_by_the_floats(tmp_path):
    """Writing a 2000-species metrics table holds at most its distance and
    dominance floats once over, plus a MiB: one block of samples is
    interleaved and spelled at a time.  Peaks: 2.2 MB in blocks of 2**14
    cells, 4.0 MB when the whole interleaved array was built first; the
    bound is 2.9 MB."""
    counts = np.random.default_rng(7).integers(0, 5000, size=(2000, 60)).astype(float)
    series = SubjectSeries(
        "w", tuple(f"OTU{i}" for i in range(2000)), tuple(f"w_{t:03d}" for t in range(60)),
        counts,
    )
    analyses = [report.analyze_subject(series, 10.0)]
    assert analyses[0].records is not None
    tracemalloc.start()
    try:
        report._metrics_tables(analyses, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = 60 * 2 * 2000 * 8  # distance and dominance, species x samples
    assert peak <= floats + 2**20


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


# SHA-256 of the cohort's selection and resilience tables, and the screening
# columns (converged, valid, reasons, error) of each fit table by subject.
COHORT_SELECTION_DIGESTS = {
    "selection_summary.csv": "53620c3faccc3fb2b429877e1dda378b041204c80eeb4183aca4aece8d9c2057",
    "resilience.csv": "c12775b1e13cae9154946ade720ea2ca32a5ae514aa63faaf1154c46e9f62106",
}
_NOT_CONVERGED = "fit did not converge"
COHORT_SCREENING = {
    "fit_linear.csv": {
        "101": ("true", "false", "r2 0.2532 below 0.3", ""),
        "102": ("true", "false", "r2 0.2396 below 0.3", ""),
        "103": ("true", "false", "r2 0.09425 below 0.3", ""),
        "104": ("true", "true", "", ""),
        "105": ("true", "false", "r2 0.2346 below 0.3", ""),
    },
    "fit_logistic.csv": {
        "101": ("false", "false", "r2 0.2127 below 0.3; se(K) 1499 exceeds 20x |K|; "
                f"|a| -1.91e+11 exceeds 1e+06; {_NOT_CONVERGED}", "logistic: no start converged"),
        "102": ("true", "false", "r2 0.1485 below 0.3; se(K) 189 exceeds 20x |K|; "
                "|a| -8.187e+08 exceeds 1e+06", ""),
        "103": ("true", "true", "", ""),
        "104": ("false", "false", f"r2 0.2312 below 0.3; {_NOT_CONVERGED}",
                "logistic: no start converged"),
        "105": ("true", "false", "r2 0.1288 below 0.3", ""),
    },
    "fit_logistic_sine.csv": {
        "101": ("false", "false", "r2 0.2129 below 0.3; se(K) 1303 exceeds 20x |K|; "
                f"|a| -2.175e+11 exceeds 1e+06; {_NOT_CONVERGED}",
                "logistic-sine: no start converged"),
        "102": ("false", "false", f"r2 0.1701 below 0.3; {_NOT_CONVERGED}",
                "logistic-sine: no start converged"),
        "103": ("false", "false", f"r2 0.1126 below 0.3; {_NOT_CONVERGED}",
                "logistic-sine: no start converged"),
        "104": ("false", "false", f"r2 0.23 below 0.3; {_NOT_CONVERGED}",
                "logistic-sine: no start converged"),
        "105": ("true", "false", "r2 0.1289 below 0.3", ""),
    },
    "fit_linear_quadratic.csv": {
        "101": ("true", "true", "", ""),
        "102": ("true", "false", "se(b) 0.2682 exceeds 20x |b|", ""),
        "103": ("true", "false", "r2 0.2353 below 0.3", ""),
        "104": ("true", "true", "", ""),
        "105": ("true", "true", "", ""),
    },
    "fit_quadratic_quadratic.csv": {
        subject: ("true", "true", "", "") for subject in ("101", "102", "103", "104", "105")
    },
}


def test_cohort_selection_outputs_pinned(tmp_path, cohort_path):
    paths = {p.name: p for p in cmd_fit_select(RunConfig(cohort_path, tmp_path / "out"))}
    digests = {
        name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
        for name in COHORT_SELECTION_DIGESTS
    }
    assert digests == COHORT_SELECTION_DIGESTS
    screening = {
        name: {
            r["subject"]: (r["converged"], r["valid"], r["reasons"], r["error"])
            for r in read_rows(paths[name])
        }
        for name in COHORT_SCREENING
    }
    assert screening == COHORT_SCREENING


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


def test_cli_repeated_model_kinds_are_fitted_and_written_once(
    tmp_path, cohort_path, capsys, monkeypatch
):
    """A kind named twice in ``--models`` or ``RunConfig.models`` counts
    once, at its first place: the run writes the bytes of the list without
    repeats, prints each path once and fits each logistic problem once."""
    explored = []
    original = fitting._lockstep

    def counted(*args):
        explored.append(len(args[-2]))
        return original(*args)

    monkeypatch.setattr(fitting, "_lockstep", counted)
    runs = {}
    for name, models in (("once", "linear,logistic"), ("twice", "linear,linear,logistic,logistic")):
        out = tmp_path / name
        argv = ["report-all", "--input", str(cohort_path), "--out", str(out), "--models", models]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(set(printed))
        runs[name] = [Path(p).name for p in printed], {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs["twice"] == runs["once"]
    assert explored[0::2] == [5 * 24, 5 * 24]  # each run explores five problems
    linear, logistic = ModelKind.LINEAR, ModelKind.LOGISTIC
    config = RunConfig(cohort_path, tmp_path, models=(logistic, linear, logistic, linear))
    assert config.models == (logistic, linear)
