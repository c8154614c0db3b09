"""Cohort pipeline and CSV/SVG emitters behind the command-line interface.

Each command reads the table once and takes every subject's sentinel-applied
dominance records, stability series and fit input from one
:func:`analyze_subject` call; the emitters only format that analysed data.
The fitting commands share one analysis path (:func:`analyze_cohort`), which
fits the logistic-family kinds of every subject in one batch.  Every table
goes through one CSV writer (:func:`_write_rows`), which writes the bytes
``csv.writer(lineterminator="\\n")`` would: floats in the shortest
round-trip form of ``repr`` (inf, -inf and nan spelled literally), strings
quoted only where they hold a delimiter, a quote or a line break, a bare
carriage return included on every Python version.  A metrics
row carries its per-species floats as one array, whose distinct values are
each spelled once.  Output is deterministic for a given config: subjects in
sorted order, rows streamed into a temp file that is renamed over the target
when complete.

Per-subject failures are recorded in the output rows; one bad subject never
aborts the run.  A subject left with no species by the read floor, or whose
records or stability series raise an analysis error, or whose fixed-point
scan does, still gets its rows, every other subject gets its files, and
every command then raises SubjectAnalysisError naming the failed subjects.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterable

import numpy as np

from .dynamics import fixed_points, iterate, resilience
from .errors import ArgumentError, DivergenceError, DomstabError, ParseError, SubjectAnalysisError
from .fitting import (
    FitInput,
    ModelFit,
    NonConvergenceError,
    fit_logistic_batch,
    fit_model,
)
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
    "analyze_cohort",
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

    def __post_init__(self):
        if self.simulate_steps < 0:
            raise ArgumentError(f"simulate steps {self.simulate_steps} is negative")


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


# What makes a cell need quotes: the delimiter, the quote character or a line
# break.  csv.writer quotes a bare carriage return only since Python 3.13;
# before that csv.reader would split the record there.
_NEEDS_QUOTES = re.compile('[,"\n\r]')


def _spell(block: np.ndarray) -> str:
    """A non-empty 1-d float64 array as comma-separated ``repr`` cells.

    Each distinct bit pattern is spelled once; bits rather than values are
    compared, so 0.0 and -0.0 keep their own spellings."""
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    words = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return ",".join(map(words.__getitem__, inverse.tolist()))


def _cell(cell) -> str:
    """One cell as csv.writer spells it: a float by ``repr``, None empty,
    anything else by ``str``, quoted where needed; an array by :func:`_spell`."""
    if isinstance(cell, float):
        return repr(cell)
    if cell is None:
        return ""
    if isinstance(cell, np.ndarray):
        return _spell(cell)
    text = str(cell)
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _line(row: list) -> str:
    text = ",".join([_cell(cell) for cell in row])
    if not text and len(row) == 1:
        text = '""'  # csv.writer's spelling of one empty cell
    return text + "\n"


def _write_rows(path: Path, header: list[str], rows: Iterable[list]) -> Path:
    """The one CSV writer.  A cell is a str, an int, None (an empty cell), a
    Python float (shortest round trip; inf, -inf, nan and -0.0 spelled so)
    or a non-empty 1-d float64 array standing for that many float cells.
    The bytes are those ``csv.writer(lineterminator="\\n")`` writes for the
    same rows with each array expanded into Python floats, as of Python 3.13
    (older versions leave a bare ``\\r`` unquoted); a NumPy float
    would render as ``np.float64(...)`` and a bool as ``True``, so callers
    pass ``float(x)`` and ``"true"``/``"false"``."""
    with _atomic_open(path) as fh:
        fh.write(_line(header))
        fh.writelines(map(_line, rows))
    return path


def load_subjects(config: RunConfig) -> list[SubjectSeries]:
    """Parse the input table and split it by subject.  Low-read species are
    dropped per subject by :func:`analyze_subject`.  Input that is not
    UTF-8 is a ParseError naming the byte offset of the first bad byte."""
    try:
        with open(config.input_path, encoding="utf-8", newline="") as stream:
            table = parse_table(stream, TableFormat(delimiter=config.delimiter))
    except UnicodeDecodeError:
        # the stream's error counts from its decode block: find the file offset
        data = Path(config.input_path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            where = f"at byte offset {exc.start} (row {row})"
            raise ParseError(f"input is not UTF-8: {exc.reason} {where}", row=row) from None
        raise
    return split_subjects(table, config.id_rule)


@dataclass
class SubjectAnalysis:
    """Everything the emitters need for one subject.

    ``error`` is the DomstabError that stopped the subject: before fitting
    (``records`` is None when it came from the read floor or the dominance
    records, and its text is also the subject's ``selection_error``), or in
    the fixed-point scan of its simulation.
    """

    series: SubjectSeries
    records: SubjectDominance | None
    fit_input: FitInput | None
    fits: dict[ModelKind, ModelFit] = field(default_factory=dict)
    fit_errors: dict[ModelKind, str] = field(default_factory=dict)
    selected: SelectedModel | None = None
    selection_error: str | None = None
    error: DomstabError | None = None


def analyze_subject(series: SubjectSeries, min_total_reads: float) -> SubjectAnalysis:
    """One subject's read-floor roster, sentinel-applied records, stability
    series and fit input.  A DomstabError on the way becomes the subject's
    ``error``; ``series`` is the filtered series once the floor has passed."""
    analysis = SubjectAnalysis(series=series, records=None, fit_input=None)
    try:
        analysis.series = series = filter_low_reads(series, min_total_reads)
        analysis.records = apply_sentinel(dominance_records(series))
        if series.too_short:
            analysis.selection_error = "fewer than two samples"
            return analysis
        stability = community_stability(analysis.records, subject_id=series.subject_id)
    except DomstabError as exc:
        analysis.error, analysis.selection_error = exc, str(exc)
        return analysis
    if not stability.points:
        analysis.selection_error = "no usable stability points"
        return analysis
    analysis.fit_input = FitInput.from_series(stability)
    return analysis


def _raise_failures(analyses: list[SubjectAnalysis]) -> None:
    """After every file is written: exit code 2 if any subject failed."""
    failed = [
        f"subject {a.series.subject_id}: {a.error}" for a in analyses if a.error is not None
    ]
    if failed:
        raise SubjectAnalysisError("; ".join(failed))


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
    rows = (
        [sample_id, community, values, ";".join(compress(records.species_ids, replaced))]
        for sample_id, community, values, replaced in zip(
            records.sample_ids,
            records.community.tolist(),
            cells,
            records.sentinel_replaced.T,
        )
    )
    return _write_rows(out_dir / f"metrics_{series.subject_id}.csv", header, rows)


def _metrics_tables(analyses: list[SubjectAnalysis], out_dir: Path) -> list[Path]:
    """One dominance table per subject whose records were built.  A row
    hands its sample's distances and dominances to :func:`_write_rows` as
    one float64 array, whose repeated values (species with equal counts in
    that sample) are spelled once; the bytes are those of one ``repr`` per
    cell.  Rows are streamed, so only one row's text is alive at a time."""
    return [
        _metrics_table(a.series, a.records, out_dir)
        for a in analyses if a.records is not None
    ]


def cmd_metrics(config: RunConfig) -> list[Path]:
    """Per-subject dominance tables: community dominance plus per-species
    distance and dominance, with sentinel-replaced cells flagged."""
    analyses = [analyze_subject(series, config.min_total_reads)
                for series in load_subjects(config)]
    paths = _metrics_tables(analyses, Path(config.out_dir))
    _raise_failures(analyses)
    return paths


# ---------------------------------------------------------------- indices


def _index_table(analyses: list[SubjectAnalysis], out_dir: Path) -> Path:
    rows: list[list] = []
    collected: dict[IndexKind, list[tuple[float, float, float]]] = {
        which: [] for which in _INDEX_ORDER
    }
    for analysis in analyses:
        series, records = analysis.series, analysis.records
        if records is not None:
            index_values = diversity_block(series.counts)
        for which in _INDEX_ORDER:
            if records is None:
                note = str(analysis.error)
            elif series.n_samples < 3:
                note = "too-few-samples"
            else:
                try:
                    reg = regress_dominance_vs_index(
                        records.community, index_values[which], which
                    )
                except DomstabError as exc:
                    note = str(exc)
                else:
                    rows.append(
                        [series.subject_id, which.value, reg.slope, reg.intercept,
                         reg.correlation, reg.n, ""]
                    )
                    collected[which].append((reg.slope, reg.intercept, reg.correlation))
                    continue
            rows.append(
                [series.subject_id, which.value, None, None, None, series.n_samples, note]
            )
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
    return _write_rows(out_dir / "index_regressions.csv", header, rows)


def cmd_compare_indices(config: RunConfig) -> Path:
    """Regress community dominance on each classical index, per subject,
    with cross-subject means appended."""
    analyses = [analyze_subject(series, config.min_total_reads)
                for series in load_subjects(config)]
    path = _index_table(analyses, Path(config.out_dir))
    _raise_failures(analyses)
    return path


# ---------------------------------------------------------------- fitting


def _record_fit(analysis: SubjectAnalysis, kind: ModelKind, outcome) -> None:
    """File a fit, or an error with its best non-converged attempt."""
    if isinstance(outcome, ModelFit):
        analysis.fits[kind] = outcome
        return
    analysis.fit_errors[kind] = str(outcome)
    if isinstance(outcome, NonConvergenceError) and outcome.best is not None:
        analysis.fits[kind] = outcome.best


def analyze_cohort(
    subjects: list[SubjectSeries], config: RunConfig
) -> list[SubjectAnalysis]:
    """Analyse every subject, fit every configured kind and select a model.

    The logistic-family fits of all subjects go through one
    :func:`fit_logistic_batch` call; the other kinds are fitted per subject.
    """
    analyses = [analyze_subject(series, config.min_total_reads) for series in subjects]
    fitted = [a for a in analyses if a.fit_input is not None]
    logistic = [kind for kind in config.models if kind.logistic_family]
    batch = iter(fit_logistic_batch(
        [(kind, a.fit_input, None) for a in fitted for kind in logistic]
    ))
    for analysis in fitted:
        for kind in config.models:
            if kind.logistic_family:
                outcome = next(batch)
            else:
                try:
                    outcome = fit_model(kind, analysis.fit_input)
                except DomstabError as exc:
                    outcome = exc
            _record_fit(analysis, kind, outcome)
        candidates = {
            kind: fit for kind, fit in analysis.fits.items() if fit.converged
        }
        if not candidates:
            analysis.selection_error = "no converged fits"
            continue
        try:
            analysis.selected = select(
                candidates, config.policy, subject_id=analysis.series.subject_id
            )
        except DomstabError as exc:
            analysis.selection_error = str(exc)
    return analyses


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
                str(fit.converged).lower(),
                str(report.valid).lower(),
                "; ".join(report.reasons),
                error,
            ]
        )
        rows.append(row)
    return _write_rows(out_dir / f"fit_{kind.value.replace('-', '_')}.csv", header, rows)


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
             str(row.backup).lower(), analysis.selected.rationale, ""]
        )
    return _write_rows(out_dir / "selection_summary.csv", header, rows)


def _resilience_table(analyses: list[SubjectAnalysis], out_dir: Path) -> Path:
    header = ["subject", "slope", "magnitude", "error"]
    rows: list[list] = []
    for analysis in analyses:
        subject = analysis.series.subject_id
        fit = analysis.fits.get(ModelKind.LINEAR)
        if fit is None:
            error = str(analysis.error or "no linear fit")
            rows.append([subject, None, None, analysis.fit_errors.get(ModelKind.LINEAR, error)])
            continue
        res = resilience(fit)
        rows.append([subject, res.slope, res.magnitude, ""])
    return _write_rows(out_dir / "resilience.csv", header, rows)


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
    analyses = analyze_cohort(load_subjects(config), config)
    paths = _fit_select_tables(analyses, config)
    _raise_failures(analyses)
    return paths


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
) -> list[Path]:
    """Trajectory and fixed-point tables for one analyzed subject.

    A divergent trajectory ends in a ``diverged: ...`` status row.  A fixed
    point scan that raises a DomstabError leaves its text in the table's
    ``verdict`` and becomes the subject's ``error``."""
    out_dir = Path(config.out_dir)
    subject = analysis.series.subject_id
    trajectory_csv = out_dir / f"simulate_{subject}_trajectory.csv"
    header = ["step", "dominance", "status"]
    if analysis.selected is None:
        rows = [[None, None, analysis.selection_error or "no selected model"]]
        return [_write_rows(trajectory_csv, header, rows)]
    fit = analysis.selected.fit
    if start is None:
        start = float(analysis.records.community[-1])
    rows = []
    try:
        trajectory = iterate(fit.kind, fit.params, start, max_steps=config.simulate_steps)
        for step, value in enumerate(trajectory.values):
            last = step == len(trajectory.values) - 1
            rows.append([step, value, trajectory.status if last else ""])
    except DivergenceError as exc:
        rows.append([exc.step, None, f"diverged: {exc}"])
    paths = [_write_rows(trajectory_csv, header, rows)]

    # scan on the data's side of 0: relative abundances give negative D
    if start < 0.0:
        domain = (min(fit.dominance_min, start) * 2.0, 0.0)
    else:
        domain = (0.0, max(fit.dominance_max, start) * 2.0)
    try:
        points = fixed_points(fit.kind, fit.params, domain)
        rows = [[p.location, p.multiplier, p.verdict] for p in points]
    except DomstabError as exc:
        analysis.error = exc
        rows = [[None, None, str(exc)]]
    header = ["location", "multiplier", "verdict"]
    paths.append(_write_rows(out_dir / f"simulate_{subject}_fixed_points.csv", header, rows))

    if config.plot:
        paths.append(_response_svg(analysis, out_dir))
    return paths


def cmd_simulate(
    config: RunConfig,
    subject_id: str,
    start: float | None = None,
) -> list[Path]:
    """Analyze one subject and write its simulation files."""
    if start is not None and not np.isfinite(start):
        raise ArgumentError(f"start dominance {start!r} is not finite")
    for series in load_subjects(config):
        if series.subject_id == subject_id:
            analyses = analyze_cohort([series], config)
            paths = simulate_subject(analyses[0], config, start=start)
            _raise_failures(analyses)
            return paths
    raise KeyError(f"subject {subject_id!r} not found in input")


# ---------------------------------------------------------------- report-all


def report_all(config: RunConfig) -> list[Path]:
    """Run every report from one read of the table: metrics, index
    comparisons, fits and selection, and a simulation per subject.  A
    subject stopped by an analysis error gets error rows, every other
    subject its files, and then SubjectAnalysisError is raised."""
    analyses = analyze_cohort(load_subjects(config), config)
    out_dir = Path(config.out_dir)
    paths = _metrics_tables(analyses, out_dir)
    paths.append(_index_table(analyses, out_dir))
    paths.extend(_fit_select_tables(analyses, config))
    for analysis in analyses:
        paths.extend(simulate_subject(analysis, config))
    _raise_failures(analyses)
    return paths
