"""Cohort pipeline and CSV/SVG emitters behind the command-line interface.

Each command reads the table once and builds each subject's sentinel-applied
dominance records once; the emitters only format that analysed data.  Output
is deterministic for a given config: subjects in sorted order, floats in the
shortest round-trip form (inf and -inf spelled literally), and rows streamed
into a temp file that is renamed over the target when complete.  Per-subject
failures are recorded in the output rows; one bad subject never aborts the run.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from .dynamics import fixed_points, iterate, resilience
from .errors import DivergenceError, DomstabError
from .fitting import FitInput, ModelFit, NonConvergenceError, fit_model
from .ingest import (
    DEFAULT_MIN_TOTAL_READS,
    SampleIdRule,
    SubjectSeries,
    TableFormat,
    filter_low_reads,
    parse_table,
    split_subjects,
)
# community_stats and diversity_indices are not called here; bench/spans.py wraps them.
from .metrics import IndexKind, community_stats, diversity_block, diversity_indices
from .metrics import regress_dominance_vs_index
from .models import ModelKind, evaluate_array
from .selection import (
    SelectedModel,
    SelectionPolicy,
    select,
    summarize,
    validate,
)
from .stability import (
    SubjectDominance,
    apply_sentinel,
    community_stability,
    dominance_records,
)
from .svgplot import Curve, curve_chart

__all__ = [
    "RunConfig",
    "SubjectAnalysis",
    "ALL_KINDS",
    "cmd_metrics",
    "cmd_compare_indices",
    "cmd_fit_select",
    "cmd_simulate",
    "report_all",
]

ALL_KINDS = (
    ModelKind.LINEAR,
    ModelKind.LOGISTIC,
    ModelKind.LOGISTIC_SINE,
    ModelKind.LINEAR_QUADRATIC,
    ModelKind.QUADRATIC_QUADRATIC,
)

_INDEX_ORDER = (
    IndexKind.SIMPSON,
    IndexKind.SHANNON,
    IndexKind.SHANNON_EVENNESS,
    IndexKind.BERGER_PARKER,
    IndexKind.SIMPSON_EVENNESS,
)


@dataclass(frozen=True)
class RunConfig:
    input_path: Path
    out_dir: Path
    delimiter: str | None = None
    min_total_reads: float = DEFAULT_MIN_TOTAL_READS
    id_rule: SampleIdRule = SampleIdRule()
    models: tuple[ModelKind, ...] = ALL_KINDS
    policy: SelectionPolicy = SelectionPolicy()
    seed: int = 0
    plot: bool = False
    simulate_steps: int = 500


def _fmt(value) -> str:
    """Shortest round-trip text for a cell; inf/-inf spelled literally."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def _atomic_open(path: Path):
    """Text handle on ``<path>.tmp``, renamed over ``path`` once the block completes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh
    os.replace(tmp, path)


def _write_atomic(path: Path, text: str) -> Path:
    with _atomic_open(path) as fh:
        fh.write(text)
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return path


def load_subjects(config: RunConfig) -> list[SubjectSeries]:
    """Parse the input table, split by subject, drop low-read species."""
    text = Path(config.input_path).read_text(encoding="utf-8")
    table = parse_table(text, TableFormat(delimiter=config.delimiter))
    subjects = split_subjects(table, config.id_rule)
    return [filter_low_reads(s, config.min_total_reads) for s in subjects]


# ---------------------------------------------------------------- metrics


def _metrics_table(
    series: SubjectSeries, records: SubjectDominance, out_dir: Path
) -> Path:
    header = ["sample_id", "community_dominance"]
    for sid in series.species_ids:
        header.extend([f"distance_{sid}", f"dominance_{sid}"])
    header.append("sentinel_replaced")
    n_species, n_samples = records.dominance.shape
    cells = np.empty((n_samples, 2 * n_species))
    cells[:, 0::2] = records.distance.T
    cells[:, 1::2] = records.dominance.T
    rows = [
        [sample_id, community, *values, ";".join(compress(records.species_ids, replaced))]
        for sample_id, community, values, replaced in zip(
            records.sample_ids,
            records.community.tolist(),
            cells.tolist(),
            records.sentinel_replaced.T,
        )
    ]
    return _write_csv(out_dir / f"metrics_{series.subject_id}.csv", header, rows)


def cmd_metrics(config: RunConfig) -> list[Path]:
    """Per-subject dominance tables: community dominance plus per-species
    distance and dominance, with sentinel-replaced cells flagged."""
    out_dir = Path(config.out_dir)
    return [
        _metrics_table(series, apply_sentinel(dominance_records(series)), out_dir)
        for series in load_subjects(config)
    ]


# ---------------------------------------------------------------- indices


def _index_table(
    subjects: list[tuple[SubjectSeries, SubjectDominance]], out_dir: Path
) -> Path:
    rows: list[list] = []
    collected: dict[IndexKind, list[tuple[float, float, float]]] = {
        which: [] for which in _INDEX_ORDER
    }
    for series, records in subjects:
        dominance = records.community
        index_values = diversity_block(series.counts)
        for which in _INDEX_ORDER:
            if series.n_samples < 3:
                rows.append(
                    [series.subject_id, which.value, None, None, None,
                     series.n_samples, "too-few-samples"]
                )
                continue
            try:
                reg = regress_dominance_vs_index(
                    dominance, index_values[which], which
                )
            except DomstabError as exc:
                rows.append(
                    [series.subject_id, which.value, None, None, None,
                     series.n_samples, str(exc)]
                )
                continue
            rows.append(
                [series.subject_id, which.value, reg.slope, reg.intercept,
                 reg.correlation, reg.n, ""]
            )
            collected[which].append((reg.slope, reg.intercept, reg.correlation))
    for which in _INDEX_ORDER:
        entries = collected[which]
        if not entries:
            continue
        arr = np.array(entries)
        rows.append(
            ["mean", which.value, float(arr[:, 0].mean()), float(arr[:, 1].mean()),
             float(arr[:, 2].mean()), len(entries), "cross-subject mean"]
        )
    header = ["subject", "index", "slope", "intercept", "correlation", "n", "note"]
    return _write_csv(out_dir / "index_regressions.csv", header, rows)


def cmd_compare_indices(config: RunConfig) -> Path:
    """Regress community dominance on each classical index, per subject,
    with cross-subject means appended."""
    subjects = [(series, dominance_records(series)) for series in load_subjects(config)]
    return _index_table(subjects, Path(config.out_dir))


# ---------------------------------------------------------------- fitting


@dataclass
class SubjectAnalysis:
    """Everything the fit/select/simulate emitters need for one subject."""

    series: SubjectSeries
    records: SubjectDominance
    fit_input: FitInput | None
    fits: dict[ModelKind, ModelFit] = field(default_factory=dict)
    fit_errors: dict[ModelKind, str] = field(default_factory=dict)
    selected: SelectedModel | None = None
    selection_error: str | None = None


def analyze_subject(series: SubjectSeries, config: RunConfig) -> SubjectAnalysis:
    records = apply_sentinel(dominance_records(series))
    analysis = SubjectAnalysis(series=series, records=records, fit_input=None)
    if series.too_short:
        analysis.selection_error = "fewer than two samples"
        return analysis
    stability = community_stability(records, subject_id=series.subject_id)
    if not stability.points:
        analysis.selection_error = "no usable stability points"
        return analysis
    analysis.fit_input = FitInput.from_series(stability)
    for kind in config.models:
        try:
            analysis.fits[kind] = fit_model(kind, analysis.fit_input)
        except NonConvergenceError as exc:
            analysis.fit_errors[kind] = str(exc)
            if exc.best is not None:
                analysis.fits[kind] = exc.best
        except DomstabError as exc:
            analysis.fit_errors[kind] = str(exc)
    candidates = {
        kind: fit for kind, fit in analysis.fits.items() if fit.converged
    }
    if candidates:
        try:
            analysis.selected = select(
                candidates, config.policy, subject_id=series.subject_id
            )
        except DomstabError as exc:
            analysis.selection_error = str(exc)
    else:
        analysis.selection_error = "no converged fits"
    return analysis


_KIND_SLUG = {
    ModelKind.LINEAR: "linear",
    ModelKind.LOGISTIC: "logistic",
    ModelKind.LOGISTIC_SINE: "logistic_sine",
    ModelKind.LINEAR_QUADRATIC: "linear_quadratic",
    ModelKind.QUADRATIC_QUADRATIC: "quadratic_quadratic",
}


def _fit_table(
    kind: ModelKind, analyses: list[SubjectAnalysis], config: RunConfig, out_dir: Path
) -> Path:
    header = ["subject"]
    header.extend(kind.param_names)
    header.extend(f"se_{p}" for p in kind.param_names)
    header.extend(["r2", "r2_adj"])
    if kind is ModelKind.LINEAR:
        header.append("pearson_r")
    if kind.piecewise:
        header.extend(["b1", "c1", "c2"])
    header.extend(["residual_ss", "n", "converged", "valid", "reasons", "error"])
    rows = []
    for analysis in analyses:
        subject = analysis.series.subject_id
        fit = analysis.fits.get(kind)
        error = analysis.fit_errors.get(kind, "")
        if fit is None:
            if not error and analysis.selection_error:
                error = analysis.selection_error
            rows.append([subject] + [None] * (len(header) - 2) + [error])
            continue
        report = validate(fit, config.policy)
        row: list = [subject]
        row.extend(fit.params[p] for p in kind.param_names)
        row.extend(fit.std_errors[p] for p in kind.param_names)
        row.extend([fit.r2, fit.r2_adj])
        if kind is ModelKind.LINEAR:
            row.append(fit.pearson_r)
        if kind.piecewise:
            derived = fit.derived
            row.extend([derived.b1, derived.c1, derived.c2])
        row.extend(
            [
                fit.residual_ss,
                fit.n,
                fit.converged,
                report.valid,
                "; ".join(report.reasons),
                error,
            ]
        )
        rows.append(row)
    return _write_csv(out_dir / f"fit_{_KIND_SLUG[kind]}.csv", header, rows)


def _selection_table(
    analyses: list[SubjectAnalysis], out_dir: Path
) -> Path:
    chosen = [a.selected for a in analyses if a.selected is not None]
    summary = {row.subject_id: row for row in summarize(chosen)}
    header = ["subject", "model", "quality", "signs", "narrative", "backup",
              "rationale", "error"]
    rows = []
    for analysis in analyses:
        subject = analysis.series.subject_id
        if analysis.selected is None:
            rows.append([subject, None, None, None, None, None, None,
                         analysis.selection_error or ""])
            continue
        row = summary[subject]
        rows.append(
            [subject, row.kind.value, row.quality, row.signs, row.narrative,
             row.backup, analysis.selected.rationale, ""]
        )
    return _write_csv(out_dir / "selection_summary.csv", header, rows)


def _resilience_table(analyses: list[SubjectAnalysis], out_dir: Path) -> Path:
    header = ["subject", "slope", "magnitude", "error"]
    rows: list[list] = []
    for analysis in analyses:
        subject = analysis.series.subject_id
        fit = analysis.fits.get(ModelKind.LINEAR)
        if fit is None:
            rows.append([subject, None, None,
                         analysis.fit_errors.get(ModelKind.LINEAR, "no linear fit")])
            continue
        res = resilience(fit)
        rows.append([subject, res.slope, res.magnitude, ""])
    return _write_csv(out_dir / "resilience.csv", header, rows)


def _run_manifest(config: RunConfig, out_dir: Path) -> Path:
    payload = {
        "input": str(config.input_path),
        "min_total_reads": config.min_total_reads,
        "id_separator": config.id_rule.separator,
        "models": [kind.value for kind in config.models],
        "policy": {
            "r2_min": config.policy.r2_min,
            "se_ratio_max": config.policy.se_ratio_max,
            "magnitude_max": config.policy.magnitude_max,
            "priority": [kind.value for kind in config.policy.priority],
        },
        "seed": config.seed,
        "simulate_steps": config.simulate_steps,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _write_atomic(out_dir / "run_config.json", text)


def _fit_select_tables(analyses: list[SubjectAnalysis], config: RunConfig) -> list[Path]:
    out_dir = Path(config.out_dir)
    paths = [_fit_table(kind, analyses, config, out_dir) for kind in config.models]
    paths.append(_selection_table(analyses, out_dir))
    if ModelKind.LINEAR in config.models:
        paths.append(_resilience_table(analyses, out_dir))
    paths.append(_run_manifest(config, out_dir))
    return paths


def cmd_fit_select(config: RunConfig) -> list[Path]:
    """Fit every configured kind per subject, then select; one CSV per kind
    plus the selection summary, resilience table, and run manifest."""
    analyses = [analyze_subject(series, config) for series in load_subjects(config)]
    return _fit_select_tables(analyses, config)


# ---------------------------------------------------------------- simulate


def _response_svg(analysis: SubjectAnalysis, out_dir: Path) -> Path:
    fit = analysis.selected.fit
    lo, hi = fit.dominance_min, fit.dominance_max
    xs = np.linspace(lo, hi, 256)
    ys = evaluate_array(fit.kind, fit.params, xs)
    curves = [Curve(label=fit.kind.value, x=xs.tolist(), y=ys.tolist())]
    scatter = list(
        zip(analysis.fit_input.dominance.tolist(), analysis.fit_input.change_rate.tolist())
    )
    subject = analysis.series.subject_id
    text = curve_chart(
        title=f"subject {subject}: fitted stability response", curves=curves,
        points=scatter,
    )
    return _write_atomic(out_dir / f"response_{subject}.svg", text)


def simulate_subject(
    analysis: SubjectAnalysis,
    config: RunConfig,
    start: float | None = None,
    steps: int | None = None,
) -> list[Path]:
    """Trajectory and fixed-point tables for one analyzed subject."""
    out_dir = Path(config.out_dir)
    subject = analysis.series.subject_id
    trajectory_csv = out_dir / f"simulate_{subject}_trajectory.csv"
    header = ["step", "dominance", "status"]
    if analysis.selected is None:
        rows = [[None, None, analysis.selection_error or "no selected model"]]
        return [_write_csv(trajectory_csv, header, rows)]
    fit = analysis.selected.fit
    if start is None:
        start = float(analysis.records.community[-1])
    n_steps = steps if steps is not None else config.simulate_steps

    rows = []
    try:
        trajectory = iterate(fit.kind, fit.params, start, max_steps=n_steps)
        for step, value in enumerate(trajectory.values):
            last = step == len(trajectory.values) - 1
            rows.append([step, value, trajectory.status if last else ""])
    except DivergenceError as exc:
        rows.append([exc.step, None, f"diverged: {exc}"])
    paths = [_write_csv(trajectory_csv, header, rows)]

    hi = max(fit.dominance_max, start) * 2.0
    points = fixed_points(fit.kind, fit.params, (0.0, hi))
    header = ["location", "multiplier", "verdict"]
    rows = [[p.location, p.multiplier, p.verdict] for p in points]
    paths.append(_write_csv(out_dir / f"simulate_{subject}_fixed_points.csv", header, rows))

    if config.plot:
        paths.append(_response_svg(analysis, out_dir))
    return paths


def cmd_simulate(
    config: RunConfig,
    subject_id: str,
    start: float | None = None,
    steps: int | None = None,
) -> list[Path]:
    """Analyze one subject and write its simulation files."""
    for series in load_subjects(config):
        if series.subject_id == subject_id:
            analysis = analyze_subject(series, config)
            return simulate_subject(analysis, config, start=start, steps=steps)
    raise KeyError(f"subject {subject_id!r} not found in input")


# ---------------------------------------------------------------- report-all


def report_all(config: RunConfig) -> list[Path]:
    """Run every report from one read of the table: metrics, index
    comparisons, fits and selection, and a simulation per subject."""
    analyses = [analyze_subject(series, config) for series in load_subjects(config)]
    out_dir = Path(config.out_dir)
    paths = [_metrics_table(a.series, a.records, out_dir) for a in analyses]
    paths.append(_index_table([(a.series, a.records) for a in analyses], out_dir))
    paths.extend(_fit_select_tables(analyses, config))
    for analysis in analyses:
        paths.extend(simulate_subject(analysis, config))
    return paths
