"""Spans recorded from outside domstab, around the calls into each layer.

``install(tracer)`` swaps the names that ``domstab.report`` (and
``domstab.stability`` / ``domstab.fitting``) resolve at call time for
wrappers that record a span per call and pass return values and exceptions
through unchanged.  Spans stay in memory; the caller writes them once at the
end.  ``layer_metrics`` turns the spans of one run into the per-layer
metrics named in ``design.json``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field, replace

KINDS = ("linear", "logistic", "logistic-sine", "linear-quadratic", "quadratic-quadratic")
ROOT = "cli.main"
REPORT_ALL = "report.report_all"
# Per-layer metrics that are neither times nor exact counts.
TIME_RATIOS = {"trace.top_level_share", "trace.overhead_ratio"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the parent span in the tracer's list, -1 at top level
    run: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and per-run counts in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, on_return=None, on_error=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        call's arguments; ``on_return(result)`` and ``on_error(exc)`` give
        the span's attributes and run outside the timed interval."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            span = Span(label, 0.0, 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                self._stack.pop()
                if on_error is not None:
                    span.attrs = on_error(exc)
                raise
            span.end = time.perf_counter()
            self._stack.pop()
            if on_return is not None:
                span.attrs = on_return(result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Count calls to ``fn`` without timing them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.run][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": {str(run): dict(c) for run, c in self.counts.items()},
        }


def _fit_attrs(fit) -> dict:
    return {"converged": bool(fit.converged), "iterations": int(fit.iterations)}


def _fit_error_attrs(exc) -> dict:
    best = getattr(exc, "best", None)
    return {"converged": False, "iterations": int(best.iterations) if best is not None else 0}


def _patches(tracer: Tracer):
    """(module, attribute, wrapper) for every traced name."""
    from domstab import cli, fitting, report, stability
    from domstab.errors import DivergenceError

    def span(module, attr, name, on_return=None, on_error=None):
        return module, attr, tracer.wrap(name, getattr(module, attr), on_return, on_error)

    def diverged(exc):
        return {"diverged": 1} if isinstance(exc, DivergenceError) else {}

    return [
        span(cli, "main", ROOT),
        span(cli, "report_all", REPORT_ALL, lambda paths: {"files": len(paths)}),
        span(report, "cmd_metrics", "report.cmd_metrics"),
        span(report, "cmd_compare_indices", "report.cmd_compare_indices"),
        span(report, "cmd_fit_select", "report.cmd_fit_select"),
        span(report, "analyze_subject", "report.analyze_subject"),
        span(report, "simulate_subject", "report.simulate_subject"),
        span(report, "parse_table", "ingest.parse_table",
             lambda table: {"cells": int(table.counts.size)}),
        span(report, "split_subjects", "ingest.split_subjects"),
        span(report, "filter_low_reads", "ingest.filter_low_reads",
             lambda series: {"roster": len(series.species_ids)}),
        span(report, "dominance_records", "stability.dominance_records"),
        span(report, "apply_sentinel", "stability.apply_sentinel"),
        span(report, "community_stability", "stability.community_stability",
             lambda s: {"points": len(s.points), "excluded": len(s.excluded)}),
        span(report, "fit_model", lambda kind, *_: f"fitting.{kind.value}",
             _fit_attrs, _fit_error_attrs),
        span(report, "select", "selection.select",
             lambda chosen: {"backup": int(chosen.backup)}),
        span(report, "validate", "selection.validate",
             lambda rep: {"valid": int(rep.valid)}),
        span(report, "iterate", "dynamics.iterate",
             lambda traj: {"steps": len(traj.values) - 1}, diverged),
        span(report, "fixed_points", "dynamics.fixed_points",
             lambda points: {"found": len(points)}),
        span(report, "curve_chart", "svgplot.curve_chart"),
        span(report, "community_stats", "metrics.community_stats"),
        span(report, "diversity_indices", "metrics.diversity_indices"),
        span(stability, "community_stats", "metrics.community_stats"),
        span(stability, "species_dominances", "metrics.species_dominances",
             lambda records: {"records": len(records)}),
        (fitting, "evaluate_array",
         tracer.counted("fitting.model_evals", fitting.evaluate_array)),
    ]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch the traced names for the duration of the block, then restore."""
    patches = _patches(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


# ---------------------------------------------------------------- arithmetic


def by_run(spans: list[Span]) -> dict[int, list[Span]]:
    """Spans grouped by run, parent indices renumbered within each group."""
    out: dict[int, list[Span]] = defaultdict(list)
    index: dict[int, int] = {}
    for i, span in enumerate(spans):
        group = out[span.run]
        index[i] = len(group)
        group.append(replace(span, parent=index[span.parent] if span.parent >= 0 else -1))
    return dict(out)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are merged)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (its spans and call counts)."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: dict[str, Counter] = defaultdict(Counter)
    for span, own in zip(spans, selfs):
        self_s[span.name] += own
        calls[span.name] += 1
        attrs[span.name].update(span.attrs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rosters = [s.attrs["roster"] for s in spans if s.name == "ingest.filter_low_reads"]
    m = {
        "ingest.parse_s": self_s["ingest.parse_table"],
        "ingest.parse_calls": calls["ingest.parse_table"],
        "ingest.cells": attrs["ingest.parse_table"]["cells"],
        "ingest.split_s": self_s["ingest.split_subjects"],
        "ingest.filter_s": self_s["ingest.filter_low_reads"],
        "ingest.roster_species": min(rosters) if rosters else 0,
        "metrics.community_stats_s": self_s["metrics.community_stats"],
        "metrics.species_dominances_s": self_s["metrics.species_dominances"],
        "metrics.diversity_indices_s": self_s["metrics.diversity_indices"],
        "metrics.species_records": attrs["metrics.species_dominances"]["records"],
        "stability.dominance_records_s": self_s["stability.dominance_records"],
        "stability.records_calls": calls["stability.dominance_records"],
        "stability.apply_sentinel_s": self_s["stability.apply_sentinel"],
        "stability.community_stability_s": self_s["stability.community_stability"],
        "stability.points": attrs["stability.community_stability"]["points"],
        "stability.excluded": attrs["stability.community_stability"]["excluded"],
    }
    for kind in KINDS:
        name = f"fitting.{kind}"
        m[f"{name}.s"] = self_s[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.converged_ratio"] = ratio(attrs[name]["converged"], calls[name])
        m[f"{name}.iterations"] = attrs[name]["iterations"]
    m["fitting.model_evals"] = counts.get("fitting.model_evals", 0)
    m.update({
        "selection.validate_s": self_s["selection.validate"],
        "selection.select_s": self_s["selection.select"],
        "selection.valid_ratio": ratio(attrs["selection.validate"]["valid"],
                                       calls["selection.validate"]),
        "selection.backup_subjects": attrs["selection.select"]["backup"],
        "dynamics.iterate_s": self_s["dynamics.iterate"],
        "dynamics.steps": attrs["dynamics.iterate"]["steps"],
        "dynamics.fixed_points_s": self_s["dynamics.fixed_points"],
        "dynamics.fixed_points": attrs["dynamics.fixed_points"]["found"],
        "dynamics.diverged": attrs["dynamics.iterate"]["diverged"],
        "svgplot.curve_chart_s": self_s["svgplot.curve_chart"],
        "svgplot.charts": calls["svgplot.curve_chart"],
        "report.cmd_metrics_s": self_s["report.cmd_metrics"],
        "report.cmd_compare_indices_s": self_s["report.cmd_compare_indices"],
        "report.analyze_s": self_s["report.analyze_subject"],
        "report.cmd_fit_select_s": self_s["report.cmd_fit_select"],
        "report.simulate_s": self_s["report.simulate_subject"],
        "report.self_s": sum(v for k, v in self_s.items() if k.startswith("report.")),
        "report.files": attrs[REPORT_ALL]["files"],
        "cli.self_s": self_s[ROOT],
    })
    roots = {i for i, s in enumerate(spans) if s.name == REPORT_ALL}
    total = sum(spans[i].end - spans[i].start for i in roots)
    top = sum(s.end - s.start for s in spans if s.parent in roots)
    m["trace.report_all_s"] = total
    m["trace.top_level_share"] = ratio(top, total)
    return m


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def is_count(name: str) -> bool:
    """Counts (and ratios of counts) must repeat exactly from run to run."""
    return not is_time(name) and name not in TIME_RATIOS
