"""Metamorphic properties of ``report-all --plot`` on the cohort fixture
and on a seeded generated table.

A subject's reports do not depend on the other subjects in the table, and
no report depends on the order of the sample columns.  Both are checked
byte for byte; ``run_config.json`` may differ only by its input path.  The
order of the species rows only reorders float sums: the selection stays the
same and the well-conditioned tables agree to a stated tolerance.
"""

import csv
import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from domstab.cli import main

# Tables with one row per subject (plus, for the index regressions, the
# cross-subject means); every other file belongs to one subject.
SHARED = {
    "index_regressions.csv",
    "fit_linear.csv",
    "fit_logistic.csv",
    "fit_logistic_sine.csv",
    "fit_linear_quadratic.csv",
    "fit_quadratic_quadratic.csv",
    "selection_summary.csv",
    "resilience.csv",
}


def _read_table(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_table(path: Path, rows: list[list[str]]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _report_all(table: Path, out: Path, *args: str) -> dict[str, bytes]:
    assert main(["report-all", "--input", str(table), "--out", str(out), "--plot", *args]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _config_without_input(data: bytes) -> dict:
    config = json.loads(data)
    del config["input"]
    return config


def _rows_of(data: bytes, subject: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = csv.reader(data.decode("utf-8").splitlines())
    return header, [row for row in rows if row[0] == subject]


@pytest.fixture(scope="module")
def cohort_reports(tmp_path_factory, cohort_path) -> dict[str, bytes]:
    return _report_all(cohort_path, tmp_path_factory.mktemp("cohort") / "out")


def _check_subjects_alone(
    table: Path, reports: dict[str, bytes], tmp_path: Path, *args: str
) -> list[str]:
    """Run each subject of ``table`` alone and compare with ``reports``;
    returns the subjects."""
    header, *body = _read_table(table)
    subjects = sorted({sample.rpartition("_")[0] for sample in header[1:]})
    shared = SHARED & set(reports)
    for subject in subjects:
        keep = [0] + [i for i, sample in enumerate(header) if sample.startswith(f"{subject}_")]
        own_table = _write_table(
            tmp_path / f"{subject}.csv", [[row[i] for i in keep] for row in [header, *body]]
        )
        alone = _report_all(own_table, tmp_path / f"out_{subject}", *args)
        own = set(alone) - shared - {"run_config.json"}
        assert own == {
            f"metrics_{subject}.csv",
            f"simulate_{subject}_trajectory.csv",
            f"simulate_{subject}_fixed_points.csv",
            f"response_{subject}.svg",
        }
        for name in own:
            assert alone[name] == reports[name], (subject, name)
        for name in shared:
            together = _rows_of(reports[name], subject)
            assert together[1], (subject, name)
            assert _rows_of(alone[name], subject) == together, (subject, name)
        assert _config_without_input(alone["run_config.json"]) == _config_without_input(
            reports["run_config.json"]
        )
    return subjects


def _check_column_order(
    table: Path, reports: dict[str, bytes], tmp_path: Path, order: str, *args: str
) -> None:
    header, *body = _read_table(table)
    columns = np.arange(1, len(header))
    if order == "reversed":
        columns = columns[::-1]
    else:
        columns = np.random.default_rng(20211).permutation(columns)
    keep = [0, *columns.tolist()]
    moved_table = _write_table(
        tmp_path / "columns.csv", [[row[i] for i in keep] for row in [header, *body]]
    )
    moved = _report_all(moved_table, tmp_path / "out", *args)
    assert set(moved) == set(reports)
    for name, data in reports.items():
        if name == "run_config.json":
            assert _config_without_input(moved[name]) == _config_without_input(data)
        else:
            assert moved[name] == data, name


def test_each_subject_alone_gives_its_own_reports(cohort_path, cohort_reports, tmp_path):
    assert len(_check_subjects_alone(cohort_path, cohort_reports, tmp_path)) == 5


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_sample_column_order_changes_no_report(order, cohort_path, cohort_reports, tmp_path):
    _check_column_order(cohort_path, cohort_reports, tmp_path, order)


# Largest relative difference |a - b| / max(|a|, |b|) of any float cell over
# ten seeded species-row shuffles of the cohort: fit_linear 1.3e-14,
# index_regressions 2.6e-12, resilience 8.6e-16 (1.6e-14, 2.7e-12 and 8e-16
# across cohort and long); of the generated table below: 1.5e-14, 2.2e-12
# and 1.0e-15.  Each tolerance is 40-150 times that.
ROW_ORDER_RTOL = {
    "fit_linear.csv": 1e-12,
    "index_regressions.csv": 1e-10,
    "resilience.csv": 1e-13,
}


def _agree(name: str, expected: bytes, got: bytes) -> None:
    """Same shape and text cells; float cells within the table's tolerance."""
    rtol = ROW_ORDER_RTOL[name]
    want = list(csv.reader(expected.decode("utf-8").splitlines()))
    have = list(csv.reader(got.decode("utf-8").splitlines()))
    assert [len(row) for row in have] == [len(row) for row in want], name
    for want_row, have_row in zip(want, have):
        for a, b in zip(want_row, have_row):
            if a == b:
                continue
            x, y = float(a), float(b)  # only a float cell may differ
            assert abs(x - y) <= rtol * max(abs(x), abs(y)), (name, a, b)


def _check_row_order(
    table: Path, reports: dict[str, bytes], tmp_path: Path, seed: int, *args: str
) -> None:
    header, *body = _read_table(table)
    rows = [body[i] for i in np.random.default_rng(seed).permutation(len(body))]
    moved = _report_all(
        _write_table(tmp_path / "rows.csv", [header, *rows]), tmp_path / "out", *args
    )
    assert set(moved) == set(reports)
    assert moved["selection_summary.csv"] == reports["selection_summary.csv"]
    for name in ROW_ORDER_RTOL:
        _agree(name, reports[name], moved[name])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_species_row_order_keeps_selection(seed, cohort_path, cohort_reports, tmp_path):
    _check_row_order(cohort_path, cohort_reports, tmp_path, seed)


# ---------------------------------------------------------------- generated

GENERATED_MODELS = ("--models", "linear,linear-quadratic,quadratic-quadratic,logistic")


def _generated_rows(seed: int, subjects: int, samples: int, species: int) -> list[list[str]]:
    """A seeded species-by-sample count table in the cohort's shape: about a
    rank-skewed base, each subject's log-abundances drift as an AR(1)
    process; two of its species stay absent, one stays below the read
    floor, and the subjects' sample columns interleave."""
    rng = np.random.default_rng(seed)
    tokens = [(date(2006, 1, 2) + timedelta(days=3 * t)).strftime("%m%d%y")
              for t in range(samples)]
    ids = [f"20{k}" for k in range(1, subjects + 1)]
    blocks = []
    for _ in ids:
        base = 9.0 - 0.24 * np.arange(species) + rng.normal(0.0, 0.4, species)
        level, block = base, np.empty((species, samples), dtype=np.int64)
        for t in range(samples):
            level = base + 0.8 * (level - base) + rng.normal(0.0, 0.35, species)
            block[:, t] = np.rint(np.exp(0.9 * level))
        silent, low = np.split(rng.choice(species, size=3, replace=False), [2])
        block[silent] = block[low] = 0
        block[low, rng.integers(0, samples, size=3)] = 1
        blocks.append(block)
    header = ["species_id", *(f"{s}_{token}" for token in tokens for s in ids)]
    body = [
        [f"OTU{i + 1}", *(str(block[i, t]) for t in range(samples) for block in blocks)]
        for i in range(species)
    ]
    return [header, *body]


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> tuple[Path, dict[str, bytes]]:
    """A 4-subject x 40-sample x 30-species table and its reports."""
    where = tmp_path_factory.mktemp("generated")
    table = _write_table(where / "table.csv", _generated_rows(7, 4, 40, 30))
    return table, _report_all(table, where / "out", *GENERATED_MODELS)


def test_generated_subject_alone_gives_its_own_reports(generated, tmp_path):
    table, reports = generated
    assert len(_check_subjects_alone(table, reports, tmp_path, *GENERATED_MODELS)) == 4


def test_generated_sample_column_order_changes_no_report(generated, tmp_path):
    table, reports = generated
    _check_column_order(table, reports, tmp_path, "shuffled", *GENERATED_MODELS)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_species_row_order_keeps_selection(seed, generated, tmp_path):
    table, reports = generated
    _check_row_order(table, reports, tmp_path, seed, *GENERATED_MODELS)
