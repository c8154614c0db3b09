"""Planted-truth tables: counts whose community dominance follows a known
response f, so the pipeline must recover what was put in.

The generator iterates D(t+1) = D(t) * (1 + f(D(t))) + N(0, sd^2), with D
clamped to [1.5, 25], and writes each D as a 30-species sample of 20,000
reads: one dominant species and 29 equal ones.  The Simpson identity
D = n * sum(p^2) - n / N then fixes the dominant count by a quadratic; it is
rounded to a whole read, so the table's D is within about 1e-3 of the plan.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

from domstab.cli import main

SPECIES, READS = 30, 20_000


def _two_level_counts(dominance: float) -> list[float]:
    """One dominant count x and 29 equal ones with n * sum(p^2) - n / N = D:
    30 x^2 - 2 N x + N^2 - 29 S = 0 with S = (D + n / N) N^2 / n."""
    n, total = SPECIES, READS
    s = (dominance + n / total) * total * total / n
    discriminant = 4 * total * total - 4 * n * (total * total - (n - 1) * s)
    dominant = round((2 * total + math.sqrt(discriminant)) / (2 * n))
    return [dominant] + [(total - dominant) / (n - 1)] * (n - 1)


def _planted_table(path: Path, response, start: float, spread: float, sd: float,
                   seed: int, subjects: int = 6, samples: int = 150) -> Path:
    """Subjects ``p1``..``p<subjects>``, each started uniformly within
    ``spread`` of ``start``, with time tokens ``t0000`` upward."""
    rng = np.random.default_rng(seed)
    columns: dict[str, list[float]] = {}
    for k in range(1, subjects + 1):
        dominance = start + rng.uniform(-spread, spread)
        for t in range(samples):
            columns[f"p{k}_t{t:04d}"] = _two_level_counts(dominance)
            step = dominance * (1.0 + response(dominance)) + rng.normal(0.0, sd)
            dominance = min(max(step, 1.5), 25.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["species_id", *columns])
        for i in range(SPECIES):
            writer.writerow([f"OTU{i + 1}", *(counts[i] for counts in columns.values())])
    return path


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _report_all(table: Path, out: Path, *args: str) -> dict[str, list[dict[str, str]]]:
    """Each subject's selection row and fixed-point rows."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report-all", "--input", str(table), "--out", str(out), *args]) == 0
    selected = {row["subject"]: row for row in _rows(out / "selection_summary.csv")}
    return {s: [row, *_rows(out / f"simulate_{s}_fixed_points.csv")] for s, row in selected.items()}


def _linear_quadratic(d: float) -> float:
    """F9: stable root at 4.5 with multiplier 1 - 0.15 * 4.5 = 0.325; the
    right branch, continuous at the joint 5, has no root."""
    return 0.675 - 0.15 * d if d < 5.0 else -8.575 + 3.2 * d - 0.3 * d * d


def test_planted_linear_quadratic_is_selected_with_its_stable_point(tmp_path):
    """Over seeds 1-20 of this generator, 114 of 120 subjects select
    linear-quadratic; each miss falls to another kind at a validity gate
    (r2 about 0.29 against 0.30, or se(b) and se(e) against 20x), as the
    expected r2 is about 0.34 at any sd.  Every subject's selected model,
    whichever it is, has a stable point within 0.06 of 4.5.  Seed 7 gives 5
    of 6, the points within 0.04."""
    table = _planted_table(tmp_path / "lq.csv", _linear_quadratic, 4.5, 0.5, 0.1, seed=7)
    reports = _report_all(table, tmp_path / "out",
                          "--models", "linear,linear-quadratic,quadratic-quadratic")
    kinds = [rows[0]["model"] for rows in reports.values()]
    assert kinds.count("linear-quadratic") >= 5, kinds
    for subject, (_, *points) in reports.items():
        stable = [float(p["location"]) for p in points if p["verdict"] == "stable"]
        assert any(abs(location - 4.5) <= 0.1 for location in stable), (subject, stable)


def test_planted_logistic_sine_fixed_point_cells_are_numbers(tmp_path):
    """f(D) = 0.3 / (1 + e^{-0.5 D}) sin(D / pi) near its stable root pi^2:
    the logistic factor is nearly flat there, so a and r go to the
    magnitude gate and only open gates let logistic-sine be selected."""
    def response(d):
        return 0.3 / (1.0 + math.exp(-0.5 * d)) * math.sin(d / math.pi)

    table = _planted_table(tmp_path / "sine.csv", response, 9.87, 1.0, 0.1, seed=7)
    reports = _report_all(table, tmp_path / "out", "--models", "logistic-sine,linear",
                          "--se-ratio-max", "inf", "--mag-max", "inf")
    sine = [rows for rows in reports.values() if rows[0]["model"] == "logistic-sine"]
    assert sine
    for _, *points in sine:
        multipliers = [float(p["multiplier"]) for p in points]  # not np.float64(...)
        stable = [float(p["location"]) for p, m in zip(points, multipliers) if abs(m) < 1.0]
        assert any(abs(location - math.pi**2) < 1e-6 for location in stable), points


def _quadratic_quadratic(d: float) -> float:
    """The linear-quadratic plant's stable root at 4.5 (multiplier 0.325) on
    a left branch curving up by 0.1 (D - 4.5)^2; the right branch, continuous
    at the joint 5, has no root."""
    if d < 5.0:
        return -0.15 * (d - 4.5) + 0.1 * (d - 4.5) ** 2
    return -8.55 + 3.2 * d - 0.3 * d * d


def test_planted_quadratic_quadratic_is_selected_with_its_stable_point(tmp_path):
    """Linear-quadratic precedes quadratic-quadratic in the selection order
    and fits the same data near the root, so it is left out.  Over seeds
    1-20 at sd 0.1, 117 of 120 subjects select quadratic-quadratic (the
    misses fall at the r2 or an se gate), and 115 of those have a stable
    point within 0.07 of 4.5; the other two read the root at 4.45 as
    unstable, with multipliers -1.14 and -1.33.  18 of the 20 seeds pass
    this test; seed 7 gives 6 of 6."""
    table = _planted_table(tmp_path / "qq.csv", _quadratic_quadratic, 4.5, 0.5, 0.1, seed=7)
    reports = _report_all(table, tmp_path / "out", "--models", "linear,quadratic-quadratic")
    kinds = [rows[0]["model"] for rows in reports.values()]
    assert kinds.count("quadratic-quadratic") >= 5, kinds
    for subject, (_, *points) in reports.items():
        stable = [float(p["location"]) for p in points if p["verdict"] == "stable"]
        assert any(abs(location - 4.5) <= 0.1 for location in stable), (subject, stable)


def test_planted_logistic_is_recovered_within_three_standard_errors(tmp_path):
    """f(D) = -0.1 / (1 + 20 e^{-0.3 D}) has no root, so each subject decays
    from near 23 toward 1.5, slowing as it goes.  Over seeds 1-20 at sd 0.05,
    120 of 120 subjects select logistic, and K, a and r lie within 2.04
    standard errors of the plant (medians 0.16, 0.25 and 0.29); at sd 0.07,
    111 of 120 pass the r2 gate, and at sd 0.1 only 2 of 30 (seeds 1-5)."""
    plant = {"K": -0.1, "a": 20.0, "r": 0.3}

    def response(d):
        return plant["K"] / (1.0 + plant["a"] * math.exp(-plant["r"] * d))

    table = _planted_table(tmp_path / "logistic.csv", response, 23.0, 2.0, 0.05, seed=7)
    reports = _report_all(table, tmp_path / "out", "--models", "logistic,linear")
    assert [rows[0]["model"] for rows in reports.values()] == ["logistic"] * 6
    for fit in _rows(tmp_path / "out" / "fit_logistic.csv"):
        for name, value in plant.items():
            assert abs(float(fit[name]) - value) <= 3.0 * float(fit[f"se_{name}"]), (fit, name)


POLE = 6.0  # f(D) = 0.5 / (1 + a e^{1.5 D}) with a = -e^{-9}: ln(-a) / r = 6


@pytest.fixture(scope="module")
def pole_run(tmp_path_factory):
    """The logistic pole plant at seed 7: each selected logistic fit, with
    its subject's observed dominance range and simulated trajectory."""
    def response(d):
        return 0.5 / (1.0 - math.exp(-9.0) * math.exp(1.5 * d))

    out = tmp_path_factory.mktemp("pole") / "out"
    table = _planted_table(out.with_name("pole.csv"), response, 3.0, 1.0, 0.1, seed=7)
    reports = _report_all(table, out, "--models", "logistic,linear")
    fits = {row["subject"]: row for row in _rows(out / "fit_logistic.csv")}
    run = {}
    for subject, (selected, *_) in reports.items():
        if selected["model"] == "logistic":
            metrics = _rows(out / f"metrics_{subject}.csv")
            dominance = [float(r["community_dominance"]) for r in metrics]
            trajectory = _rows(out / f"simulate_{subject}_trajectory.csv")
            values = [float(r["dominance"]) for r in trajectory if r["dominance"]]
            run[subject] = (fits[subject], (min(dominance), max(dominance)), values)
    return run


def test_planted_logistic_pole_is_recovered_inside_the_data(pole_run):
    """Over seeds 1-20, 97 of 120 subjects select logistic, 94 of them with
    the pole ln(-a)/r within 0.2 of 6 (the farthest at 0.223), and 19 seeds
    give at least 4 of 6; seed 7 gives 5 of 6, all within 0.07."""
    assert len(pole_run) >= 4, sorted(pole_run)
    for subject, (fit, (low, high), _) in pole_run.items():
        a, r = float(fit["a"]), float(fit["r"])
        assert a < 0.0, (subject, fit)
        pole = math.log(-a) / r
        assert abs(pole - POLE) <= 0.25 and low < pole < high, (subject, pole, low, high)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="F2: iterate steps through the logistic pole (ROADMAP item 3)")
def test_planted_logistic_trajectory_stays_on_its_side_of_the_pole(pole_run):
    """Over seeds 1-20, 28 of the 97 logistic trajectories cross the pole, at
    16 of the seeds; at seed 7, two of five do."""
    for subject, (fit, _, trajectory) in pole_run.items():
        pole = math.log(-float(fit["a"])) / float(fit["r"])
        side = trajectory[0] > pole
        assert all((value > pole) == side for value in trajectory), subject
