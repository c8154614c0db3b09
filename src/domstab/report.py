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
carriage return included on every Python version.  A metrics row carries
its per-species floats as one text, spelled with a block of rows that spells
each distinct value once.  Output is deterministic for a given config:
subjects in sorted order, rows streamed into a temp file that is renamed
over the target when complete.

Per-subject failures are recorded in the output rows; one bad subject never
aborts the run.  A subject left with no species by the read floor, or whose
records or stability series raise an analysis error, or whose fixed-point
scan does, still gets its rows, every other subject gets its files, and
every command then raises DomstabError naming the failed subjects.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterable

import numpy as np

from .dynamics import MAX_STEPS, fixed_points, iterate, resilience
from .errors import DivergenceError, DomstabError, InputError
from .fitting import FitInput, ModelFit, fit_logistic_batch, fit_model
from .ingest import (
    DEFAULT_MIN_TOTAL_READS,
    SampleIdRule,
    SubjectSeries,
    filter_low_reads,
    parse_table,
    split_subjects,
)
# community_stats and diversity_indices are not called here; bench/spans.py wraps them.
from .metrics import IndexKind, community_stats, diversity_block, diversity_indices
from .metrics import regress_dominance_vs_index
from .models import ModelKind, derived_params, evaluate_array
from .selection import PRIORITY, SelectedModel, SelectionPolicy, select, summary, validate
from .stability import (
    SubjectDominance,
    apply_sentinel,
    community_stability,
    dominance_records,
)
from .svgplot import curve_chart

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

ALL_KINDS = tuple(ModelKind)


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
    simulate_steps: int = MAX_STEPS

    def __post_init__(self):
        # a kind named twice is fitted and written once, at its first place
        object.__setattr__(self, "models", tuple(dict.fromkeys(self.models)))
        if not 0.0 <= self.min_total_reads < math.inf:
            raise InputError(
                f"min total reads {self.min_total_reads} is not a finite number at or above 0"
            )
        if self.simulate_steps < 0:
            raise InputError(f"simulate steps {self.simulate_steps} is negative")


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


_SPELL_CELLS = 1 << 14  # float cells per block of rows in _spell_rows


class _Spelled(str):
    """Cells already spelled as CSV text, written as they stand."""


def _spell_rows(distance: np.ndarray, dominance: np.ndarray) -> Iterable[_Spelled]:
    """One text per column of two species-by-sample float64 arrays: each
    species' distance then dominance, as comma-separated ``repr`` cells.  A
    block of samples (``_SPELL_CELLS`` cells, or one sample) is interleaved on
    its own and spells each distinct bit pattern once; 0.0 and -0.0, compared
    as bits, keep their spellings."""
    n_species, n_samples = dominance.shape
    step = max(1, _SPELL_CELLS // (2 * n_species))
    for lo in range(0, n_samples, step):
        block = np.empty((min(step, n_samples - lo), 2 * n_species))
        block[:, 0::2] = distance[:, lo:lo + step].T
        block[:, 1::2] = dominance[:, lo:lo + step].T
        bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        words = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        yield from map(_Spelled, map(",".join, words[inverse].reshape(block.shape).tolist()))
        del block, bits, inverse, words  # before the next block spells its own


def _cell(cell) -> str:
    """One cell as csv.writer spells it: a float by ``repr``, None empty,
    _Spelled text as it is, anything else by ``str``, quoted where needed."""
    if isinstance(cell, float):
        return repr(cell)
    if cell is None:
        return ""
    if type(cell) is _Spelled:
        return cell
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
    or :class:`_Spelled` text standing for the float cells it spells.
    The bytes are those ``csv.writer(lineterminator="\\n")`` writes for the
    same rows with each spelled text expanded into its floats, as of Python
    3.13 (older versions leave a bare ``\\r`` unquoted); a NumPy float
    would render as ``np.float64(...)`` and a bool as ``True``, so callers
    pass ``float(x)`` and ``"true"``/``"false"``."""
    with _atomic_open(path) as fh:
        fh.write(_line(header))
        fh.writelines(map(_line, rows))
    return path


# What a subject id may not hold, as it names files each printed on its own
# line: a path separator, a Unicode control character (Cc, NUL included) or a
# line break str.splitlines adds to those
_UNNAMEABLE = re.compile(r"[/\\\x00-\x1f\x7f-\x9f\u2028\u2029]")


def load_subjects(config: RunConfig) -> list[SubjectSeries]:
    """Parse the input table and split it by subject.  Low-read species are
    dropped per subject by :func:`analyze_subject`.  Input that is not
    UTF-8 is an InputError naming the byte offset of the first bad byte.
    A subject id that cannot name its files is an InputError, checked once
    per subject before anything is written: it may hold no path separator,
    control character or character that ``str.splitlines`` breaks at, and
    ``simulate_<id>_fixed_points.csv.tmp`` must fit in 255 bytes."""
    try:
        with open(config.input_path, encoding="utf-8", newline="") as stream:
            table = parse_table(stream, config.delimiter)
    except UnicodeDecodeError:
        # the stream's error counts from its decode block: find the file offset
        data = Path(config.input_path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            where = f"at byte offset {exc.start} (row {row})"
            raise InputError(f"input is not UTF-8: {exc.reason} {where}") from None
        raise
    subjects = split_subjects(table, config.id_rule)
    for subject in (series.subject_id for series in subjects):
        if bad := _UNNAMEABLE.search(subject):
            what = ("a path separator or NUL" if bad[0] in "/\\\0"
                    else "a control character or line break")
            raise InputError(f"subject {subject!r} holds {what}")
        if len(f"simulate_{subject}_fixed_points.csv.tmp".encode()) > 255:
            raise InputError(f"subject {subject!r} is too long to name a file")
    return subjects


@dataclass
class SubjectAnalysis:
    """Everything the emitters need for one subject.

    ``fit_errors`` holds the text of each kind whose fit raised; an
    unconverged fit is kept in ``fits``.  ``selection_error`` is what
    stopped the subject before a model was selected, in the words of the
    rule that stopped it; every table that names a stop reason takes it
    from there.  ``error`` is the DomstabError, if any, that stopped the
    subject before fitting (``records`` is None when it came from the read
    floor or the dominance records) or in the fixed-point scan of its
    simulation; it decides only the exit code.
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
    ``error``; ``series`` is the filtered series once the floor has passed.
    A stability series without a usable step (one sample has no step) stops
    the subject with "no usable stability points" and no ``error``."""
    analysis = SubjectAnalysis(series=series, records=None, fit_input=None)
    try:
        analysis.series = series = filter_low_reads(series, min_total_reads)
        analysis.records = apply_sentinel(dominance_records(series))
        stability = community_stability(analysis.records)
    except DomstabError as exc:
        analysis.error, analysis.selection_error = exc, str(exc)
        return analysis
    if not stability.points.size:
        analysis.selection_error = "no usable stability points"
        return analysis
    analysis.fit_input = FitInput(stability.dominance, stability.change_rate)
    return analysis


def _raise_failures(analyses: list[SubjectAnalysis]) -> None:
    """After every file is written: exit code 2 if any subject failed."""
    failed = [
        f"subject {a.series.subject_id}: {a.error}" for a in analyses if a.error is not None
    ]
    if failed:
        raise DomstabError("; ".join(failed))


# ---------------------------------------------------------------- metrics


def _metrics_table(
    series: SubjectSeries, records: SubjectDominance, out_dir: Path
) -> Path:
    header = ["sample_id", "community_dominance"]
    for sid in series.species_ids:
        header.extend([f"distance_{sid}", f"dominance_{sid}"])
    header.append("sentinel_replaced")
    rows = (
        [sample_id, community, values, ";".join(compress(records.species_ids, replaced))]
        for sample_id, community, values, replaced in zip(
            records.sample_ids,
            records.community.tolist(),
            _spell_rows(records.distance, records.dominance),
            (records.distance == np.inf).T,  # the cells apply_sentinel floored
        )
    )
    return _write_rows(out_dir / f"metrics_{series.subject_id}.csv", header, rows)


def _metrics_tables(analyses: list[SubjectAnalysis], out_dir: Path) -> list[Path]:
    """One dominance table per subject whose records were built.  A row
    hands its sample's distances and dominances to :func:`_write_rows` as
    one text from :func:`_spell_rows`; the bytes are those of one ``repr``
    per cell.  Besides the subject's floats, one block of samples is
    interleaved and spelled at a time, so the peak is the floats once over
    plus about a MiB."""
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
        which: [] for which in IndexKind
    }
    for analysis in analyses:
        series, records = analysis.series, analysis.records
        if records is not None:
            index_values = diversity_block(series.counts)
        for which in IndexKind:
            if records is None:
                note = analysis.selection_error
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
    for which in IndexKind:
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


def analyze_cohort(
    subjects: list[SubjectSeries], config: RunConfig
) -> list[SubjectAnalysis]:
    """Analyse every subject, fit every configured kind and select a model.

    The logistic-family fits of all subjects go through one
    :func:`fit_logistic_batch` call; the other kinds are fitted per subject.
    A fit that raised is filed in ``fit_errors``; every other fit, converged
    or not, goes to :func:`select`, which rejects an unconverged one and
    states why a subject gets no model.
    """
    analyses = [analyze_subject(series, config.min_total_reads) for series in subjects]
    fitted = [a for a in analyses if a.fit_input is not None]
    logistic = [kind for kind in config.models if kind.logistic_family]
    batch = iter(fit_logistic_batch(
        [(kind, a.fit_input) for a in fitted for kind in logistic]
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
            if isinstance(outcome, DomstabError):
                analysis.fit_errors[kind] = str(outcome)
            else:
                analysis.fits[kind] = outcome
        try:
            analysis.selected = select(analysis.fits, config.policy)
        except DomstabError as exc:
            analysis.selection_error = str(exc)
    return analyses


def _stop_reason(analysis: SubjectAnalysis, kind: ModelKind) -> str:
    """Why a subject has no fit of ``kind``: the fit's error, else what
    stopped the subject before fitting or selection."""
    return analysis.fit_errors.get(kind) or analysis.selection_error or ""


def _stopped(analysis: SubjectAnalysis, header: list[str], reason: str) -> list:
    """The row of a subject the table has nothing for: empty cells, then ``reason``."""
    return [analysis.series.subject_id] + [None] * (len(header) - 2) + [reason]


def _fit_table(
    kind: ModelKind, analyses: list[SubjectAnalysis], config: RunConfig, out_dir: Path
) -> Path:
    extra = kind.card.columns  # the columns only some kinds have; each row reads them by name
    header = ["subject", *kind.param_names, *(f"se_{p}" for p in kind.param_names),
              "r2", "r2_adj", *extra, "residual_ss", "n", "converged", "valid", "reasons", "error"]
    rows = []
    for analysis in analyses:
        fit = analysis.fits.get(kind)
        if fit is None:
            rows.append(_stopped(analysis, header, _stop_reason(analysis, kind)))
            continue
        report = validate(fit, config.policy)
        extras = {"pearson_r": fit.pearson_r, **derived_params(kind, fit.params)}
        rows.append([
            analysis.series.subject_id,
            *(fit.params[p] for p in kind.param_names),
            *(fit.std_errors[p] for p in kind.param_names),
            fit.r2,
            fit.r2_adj,
            *map(extras.get, extra),
            fit.residual_ss,
            fit.n,
            str(fit.converged).lower(),
            str(report.valid).lower(),
            "; ".join(report.reasons),
            "" if fit.converged else f"{kind.value}: no start converged",
        ])
    return _write_rows(out_dir / f"fit_{kind.value.replace('-', '_')}.csv", header, rows)


def _selection_table(
    analyses: list[SubjectAnalysis], out_dir: Path
) -> Path:
    header = ["subject", "model", "quality", "signs", "narrative", "backup",
              "rationale", "error"]
    rows = []
    for analysis in analyses:
        if analysis.selected is None:
            rows.append(_stopped(analysis, header, analysis.selection_error or ""))
            continue
        chosen = analysis.selected
        rows.append(
            [analysis.series.subject_id, chosen.kind.value, *summary(chosen.fit),
             str(chosen.backup).lower(), chosen.rationale, ""]
        )
    return _write_rows(out_dir / "selection_summary.csv", header, rows)


def _resilience_table(analyses: list[SubjectAnalysis], out_dir: Path) -> Path:
    header = ["subject", "slope", "magnitude", "error"]
    rows: list[list] = []
    for analysis in analyses:
        fit = analysis.fits.get(ModelKind.LINEAR)
        if fit is None:
            rows.append(_stopped(analysis, header, _stop_reason(analysis, ModelKind.LINEAR)))
            continue
        res = resilience(fit)
        rows.append([analysis.series.subject_id, res.slope, res.magnitude, ""])
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
            "priority": [kind.value for kind in PRIORITY],
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
    xs = np.linspace(fit.dominance_min, fit.dominance_max, 256)
    ys = evaluate_array(fit.kind, fit.params, xs)
    scatter = zip(analysis.fit_input.dominance.tolist(), analysis.fit_input.change_rate.tolist())
    subject = analysis.series.subject_id
    text = curve_chart(
        f"subject {subject}: fitted stability response", fit.kind.value,
        xs.tolist(), ys.tolist(), scatter,
    )
    return _write_atomic(out_dir / f"response_{subject}.svg", text)


def simulate_subject(
    analysis: SubjectAnalysis,
    config: RunConfig,
    start: float | None = None,
) -> list[Path]:
    """Trajectory and fixed-point tables for one analyzed subject.

    The trajectory begins at ``start``, by default the last observed
    dominance; the fixed-point scan's domain comes from the fit's range and
    that last dominance only.  It lies on the side of 0 that holds the fit's
    data, and on the side of the last dominance's sign when the data
    straddle 0.  A divergent trajectory ends in a
    ``diverged: ...`` status row.  A fixed point scan that raises a
    DomstabError leaves its text in the table's ``verdict`` and becomes the
    subject's ``error``."""
    out_dir = Path(config.out_dir)
    subject = analysis.series.subject_id
    trajectory_csv = out_dir / f"simulate_{subject}_trajectory.csv"
    header = ["step", "dominance", "status"]
    if analysis.selected is None:
        rows = [[None, None, analysis.selection_error or "no selected model"]]
        return [_write_rows(trajectory_csv, header, rows)]
    fit = analysis.selected.fit
    d_last = float(analysis.records.community[-1])
    rows = []
    try:
        trajectory = iterate(fit.kind, fit.params, d_last if start is None else start,
                             max_steps=config.simulate_steps)
        for step, value in enumerate(trajectory.values):
            last = step == len(trajectory.values) - 1
            rows.append([step, value, trajectory.status if last else ""])
    except DivergenceError as exc:
        rows.append([exc.step, None, f"diverged: {exc}"])
    paths = [_write_rows(trajectory_csv, header, rows)]

    # scan on the side of 0 that holds the fit's data, whatever the start
    # (relative abundances give negative D); only data that straddle 0 leave
    # the side to the last dominance's sign
    if fit.dominance_max < 0.0 or (fit.dominance_min < 0.0 and d_last < 0.0):
        domain = (min(fit.dominance_min, d_last) * 2.0, 0.0)
    else:
        domain = (0.0, max(fit.dominance_max, d_last) * 2.0)
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
        raise InputError(f"start dominance {start!r} is not finite")
    for series in load_subjects(config):
        if series.subject_id == subject_id:
            analyses = analyze_cohort([series], config)
            paths = simulate_subject(analyses[0], config, start=start)
            _raise_failures(analyses)
            return paths
    raise InputError(f"subject {subject_id!r} not found in input")


# ---------------------------------------------------------------- report-all


def report_all(config: RunConfig) -> list[Path]:
    """Run every report from one read of the table: metrics, index
    comparisons, fits and selection, and a simulation per subject.  A
    subject stopped by an analysis error gets error rows, every other
    subject its files, and then DomstabError is raised."""
    analyses = analyze_cohort(load_subjects(config), config)
    out_dir = Path(config.out_dir)
    paths = _metrics_tables(analyses, out_dir)
    paths.append(_index_table(analyses, out_dir))
    paths.extend(_fit_select_tables(analyses, config))
    for analysis in analyses:
        paths.extend(simulate_subject(analysis, config))
    _raise_failures(analyses)
    return paths
