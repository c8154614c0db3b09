"""Acceptance checks for the shipped guarantees, one test per check.

Each test prints a single PASS/FAIL line with its runtime against the
budget the guarantee carries.  Run ``pytest tests/test_acceptance.py -v -s``
to see the lines; a FAIL line always comes with a failing assertion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from domstab.dynamics import fixed_points, iterate, resilience
from domstab.fitting import FitInput, ModelFit, fit_model
from domstab.metrics import (
    IndexKind,
    community_dominance,
    regress_dominance_vs_index,
)
from domstab.models import (
    ModelKind,
    branch_polynomials,
    derived_params,
    evaluate_array,
    slope,
)
from domstab.report import RunConfig, report_all
from domstab.selection import select, validate

from conftest import assert_close, printed_tolerance

SPECIES = ("OTU1", "OTU8", "OTU28", "OTU11", "OTU115", "OTU57", "OTU2")


@contextmanager
def criterion(name: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"{name}: {verdict} ({elapsed:.2f}s, budget {budget_s:g}s)", flush=True)
    assert elapsed < budget_s, f"{name} overran its {budget_s:g}s runtime budget"


def manual_fit(kind: ModelKind, params: dict, std_errors: dict, r2: float, n: int) -> ModelFit:
    return ModelFit(
        kind=kind,
        params=params,
        std_errors=std_errors,
        r2=r2,
        r2_adj=r2,
        residual_ss=1.0,
        n=n,
        converged=True,
        iterations=20,
        dominance_min=1.0,
        dominance_max=60.0,
    )


def fit_from_row(kind: ModelKind, row: dict, names: str) -> ModelFit:
    params = {name: float(row[name]) for name in names}
    ses = {name: float(row[f"se_{name}"]) for name in names}
    return manual_fit(kind, params, ses, float(row["r2"]), int(float(row["n"])) if "n" in row else 28)


def test_criterion_1_reference_table_identity(dominance_table):
    with criterion("criterion 1 (reference-table identity)", 1.0):
        checked = 0
        for row in dominance_table:
            total_dominance = row["community_dominance"]
            for species in SPECIES:
                distance = row[f"dsd_{species}"]
                dominance = row[f"ds_{species}"]
                if not (np.isfinite(distance) and np.isfinite(dominance)):
                    continue
                residual = abs(total_dominance - distance - dominance)
                assert residual <= 5e-3, (
                    f"{row['sample_id']}/{species}: identity residual {residual}"
                )
                checked += 1
        assert checked > 80  # a sentinel-heavy transcription would be wrong


def test_criterion_2_simpson_linearity():
    with criterion("criterion 2 (simpson linearity)", 1.0):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            counts = rng.integers(1, 10_001, size=n).astype(float)
            total = float(counts.sum())
            simpson = float(np.sum(counts * counts)) / total**2
            lhs = community_dominance(counts)
            rhs = n * simpson - n / total
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_criterion_3_fixed_total_regression():
    with criterion("criterion 3 (fixed-total regression shape)", 1.0):
        rng = np.random.default_rng(60)
        dominance, simpsons = [], []
        for _ in range(30):
            probs = rng.dirichlet(np.full(60, 0.5))
            counts = rng.multinomial(2143, probs).astype(float)
            dominance.append(community_dominance(counts))
            simpsons.append(float(np.sum(counts * counts)) / 2143.0**2)
        line = regress_dominance_vs_index(dominance, simpsons, IndexKind.SIMPSON)
        assert abs(line.slope - 60.0) <= 1e-6
        assert abs(line.intercept - (-60.0 / 2143.0)) <= 1e-6
        assert abs(line.correlation - 1.0) <= 1e-9


def _check_recovery(kind: ModelKind, truth: dict, dom: np.ndarray, rel: float) -> None:
    change = evaluate_array(kind, truth, dom)
    fit = fit_model(kind, FitInput(tuple(dom), tuple(change.tolist())))
    assert fit.converged
    for name, value in truth.items():
        err = abs(fit.params[name] - value)
        assert err <= rel * abs(value), f"{kind.value} {name}: {fit.params[name]} vs {value}"


def test_criterion_4_generate_then_fit(dominance_table):
    with criterion("criterion 4 (generate-then-fit recovery)", 5.0):
        observed = np.array([row["community_dominance"] for row in dominance_table[:28]])
        _check_recovery(
            ModelKind.LOGISTIC, {"K": 4.741, "a": 0.026, "r": -0.206}, observed, rel=1e-4
        )
        _check_recovery(
            ModelKind.LOGISTIC_SINE,
            {"K": -0.294, "a": -1.677, "r": 0.048},
            np.linspace(15.0, 60.0, 28),
            rel=1e-3,
        )
        # symmetric spans put each joint exactly on a breakpoint candidate
        _check_recovery(
            ModelKind.LINEAR_QUADRATIC,
            {"a": 0.331, "b": 0.014, "c": 0.00033, "d": 28.341, "e": -0.108},
            28.341 + np.linspace(-18.0, 18.0, 28),
            rel=1e-3,
        )
        _check_recovery(
            ModelKind.QUADRATIC_QUADRATIC,
            {"a": -12.71, "b": 0.572, "c": -0.0066, "d": 43.061, "e": -0.0027, "f": 0.333},
            43.061 + np.linspace(-20.0, 20.0, 28),
            rel=1e-3,
        )


def test_criterion_5_derived_parameters(lq_table, qq_table):
    with criterion("criterion 5 (derived branch parameters)", 1.0):
        for row in lq_table:
            params = {name: float(row[name]) for name in "abcde"}
            der = derived_params(ModelKind.LINEAR_QUADRATIC, params)
            label = f"subject {row['subject']}"
            assert_close(der["b1"], float(row["b1"]), printed_tolerance(row["b1"]), f"{label} b1")
            assert_close(der["c2"], float(row["c2"]), printed_tolerance(row["c2"]), f"{label} c2")
        for row in qq_table:
            params = {name: float(row[name]) for name in "abcdef"}
            der = derived_params(ModelKind.QUADRATIC_QUADRATIC, params)
            label = f"subject {row['subject']}"
            assert_close(der["c1"], float(row["c1"]), printed_tolerance(row["c1"]), f"{label} c1")
            assert_close(der["c2"], float(row["c2"]), printed_tolerance(row["c2"]), f"{label} c2")
        # named anchor rows hold at the strict floor
        anchor_lq = derived_params(
            ModelKind.LINEAR_QUADRATIC,
            {"a": 0.331, "b": 0.014, "c": 0.00033, "d": 28.341, "e": -0.108},
        )
        assert abs(anchor_lq["b1"] - 0.122) <= 1e-3
        assert abs(anchor_lq["c2"] - 0.0007) <= 1e-3
        anchor_qq = derived_params(
            ModelKind.QUADRATIC_QUADRATIC,
            {"a": -12.71, "b": 0.572, "c": -0.0066, "d": 43.061, "e": -0.0027, "f": 0.333},
        )
        assert abs(anchor_qq["c1"] - (-0.0039)) <= 1e-3
        assert abs(anchor_qq["c2"] - (-0.0093)) <= 1e-3


def test_criterion_6_selection_policy(
    logistic_table, logistic_sine_table, linear_table, lq_table, qq_table
):
    with criterion("criterion 6 (validity gates and priority)", 1.0):
        logistic = {int(r["subject"]): r for r in logistic_table}
        sine = {int(r["subject"]): r for r in logistic_sine_table}
        linear = {int(r["subject"]): r for r in linear_table}
        lq = {int(r["subject"]): r for r in lq_table}
        qq = {int(r["subject"]): r for r in qq_table}

        def logi_fit(subject: int) -> ModelFit:
            row = logistic[subject]
            return manual_fit(
                ModelKind.LOGISTIC,
                {"K": row["K"], "a": row["a"], "r": row["r"]},
                {"K": row["se_K"], "a": row["se_a"], "r": row["se_r"]},
                row["r2"],
                int(row["n"]),
            )

        def linear_fit(subject: int) -> ModelFit:
            row = linear[subject]
            return manual_fit(
                ModelKind.LINEAR,
                {"a": row["a"], "b": row["b"]},
                {"a": row["se_a"], "b": row["se_b"]},
                row["R"] ** 2,
                int(row["n"]),
            )

        report = validate(logi_fit(408))
        assert not report.valid
        assert any("se(K)" in reason for reason in report.reasons)

        pathology = manual_fit(
            ModelKind.LOGISTIC,
            {"K": 15_152_070.0, "a": 0.001, "r": -0.5},
            {"K": 10.0, "a": 0.0001, "r": 0.01},
            0.9,
            28,
        )
        report = validate(pathology)
        assert not report.valid
        assert any(r.startswith("|K| ") for r in report.reasons)

        assert validate(logi_fit(400)).valid

        sine_420 = fit_from_row(ModelKind.LOGISTIC_SINE, sine[420], "Kra")
        lq_408 = fit_from_row(ModelKind.LINEAR_QUADRATIC, lq[408], "abcde")
        qq_446 = fit_from_row(ModelKind.QUADRATIC_QUADRATIC, qq[446], "abcdef")
        scenarios = {
            400: (ModelKind.LOGISTIC, {ModelKind.LOGISTIC: logi_fit(400)}),
            408: (ModelKind.LINEAR_QUADRATIC, {
                ModelKind.LOGISTIC: logi_fit(408),
                ModelKind.LINEAR_QUADRATIC: lq_408,
            }),
            412: (ModelKind.LOGISTIC, {ModelKind.LOGISTIC: logi_fit(412)}),
            420: (ModelKind.LOGISTIC_SINE, {ModelKind.LOGISTIC_SINE: sine_420}),
            446: (ModelKind.QUADRATIC_QUADRATIC, {ModelKind.QUADRATIC_QUADRATIC: qq_446}),
        }
        for subject, (expected, candidates) in scenarios.items():
            candidates = dict(candidates)
            candidates[ModelKind.LINEAR] = linear_fit(subject)
            chosen = select(candidates)
            assert chosen.kind is expected, f"{subject}: {chosen.kind} != {expected}"
            assert not chosen.backup


def test_criterion_7_linear_dynamics(linear_table):
    with criterion("criterion 7 (linear dynamics and resilience)", 1.0):
        rows = {int(r["subject"]): r for r in linear_table}
        params = {"a": rows[405]["a"], "b": rows[405]["b"]}
        points = fixed_points(ModelKind.LINEAR, params, (0.0, 100.0))
        assert len(points) == 1
        point = points[0]
        assert abs(point.location - 47.0) <= 1e-6
        assert abs(point.multiplier - (-0.551)) <= 1e-3
        assert point.verdict == "stable"
        for start in (30.0, 60.0):
            traj = iterate(ModelKind.LINEAR, params, start, max_steps=500)
            assert traj.status == "converged"
            assert len(traj.values) <= 501
            assert abs(traj.values[-1] - 47.0) <= 1e-4
        magnitudes = {
            subject: resilience(
                manual_fit(
                    ModelKind.LINEAR,
                    {"a": row["a"], "b": row["b"]},
                    {"a": row["se_a"], "b": row["se_b"]},
                    row["R"] ** 2,
                    int(row["n"]),
                )
            ).magnitude
            for subject, row in rows.items()
        }
        steepest = max(magnitudes, key=magnitudes.get)
        shallowest = min(magnitudes, key=magnitudes.get)
        assert steepest == 412 and shallowest == 443
        assert magnitudes[412] / magnitudes[443] > 15.0


def _poly(coeffs, x: float) -> float:
    return sum(coef * x**power for power, coef in enumerate(coeffs))


def test_criterion_8_piecewise_continuity_and_derivatives():
    with criterion("criterion 8 (piecewise continuity and slopes)", 5.0):
        rng = np.random.default_rng(88)
        h = 1e-5
        for draw in range(10_000):
            kind = (
                ModelKind.LINEAR_QUADRATIC
                if draw % 2 == 0
                else ModelKind.QUADRATIC_QUADRATIC
            )
            a, b, e_slope = rng.uniform(-2.0, 2.0, size=3)
            c, e_quad, f = rng.uniform(-0.05, 0.05, size=3)
            d = float(rng.uniform(5.0, 45.0))
            if kind is ModelKind.LINEAR_QUADRATIC:
                params = [a, b, c, d, e_slope]
            else:
                params = [a, b, c, d, e_quad, f]
            left, right = branch_polynomials(kind, params)
            assert abs(_poly(left, d) - _poly(right, d)) < 1e-9
            offset = float(rng.uniform(0.1, 8.0))
            if rng.random() < 0.5:
                offset = -offset
            x = d + offset
            analytic = slope(kind, params)(x)
            above, below = evaluate_array(kind, params, np.array([x + h, x - h]))
            fd = (above - below) / (2 * h)
            assert abs(analytic - fd) < 1e-6


def test_criterion_9_deterministic_reports(cohort_path, tmp_path):
    with criterion("criterion 9 (deterministic end-to-end reports)", 10.0):
        outputs = []
        for run in ("first", "second"):
            out_dir = tmp_path / run
            config = RunConfig(
                input_path=cohort_path, out_dir=out_dir, seed=20211, plot=True
            )
            paths = report_all(config)
            outputs.append({p.relative_to(out_dir): p.read_bytes() for p in paths})
        first, second = outputs
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        names = {str(n) for n in first}
        assert "index_regressions.csv" in names
        assert any(n.startswith("metrics_") for n in names)
        assert any(n.endswith(".svg") for n in names)
