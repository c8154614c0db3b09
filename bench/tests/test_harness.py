"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import outputs
import spans
from workloads import generate_table, workloads

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------- generator


def test_generator_same_seed_same_bytes():
    assert generate_table(7, 2, 12, 40) == generate_table(7, 2, 12, 40)


def test_generator_other_seed_other_bytes():
    assert generate_table(7, 2, 12, 40) != generate_table(8, 2, 12, 40)


def test_generator_reproduces_bundled_cohort():
    fixture = (ROOT / "tests" / "fixtures" / "cohort.csv").read_text(encoding="utf-8")
    assert generate_table(20211, 5, 30, 60) == fixture


# ---------------------------------------------------------------- roster guard


def test_roster_guard_threshold():
    long = workloads()["long"]
    assert long.species == 30
    assert long.roster_ok(27)
    assert not long.roster_ok(26)


def test_scaled_slope_keeps_wide_roster():
    from domstab.ingest import filter_low_reads, parse_table, split_subjects

    table = parse_table(generate_table(3, 1, 60, 2000))
    kept = filter_low_reads(split_subjects(table)[0], 10)
    assert workloads()["wide"].roster_ok(len(kept.species_ids))


def test_roster_species_reads_metrics_headers(tmp_path):
    (tmp_path / "metrics_1.csv").write_text("sample_id,community_dominance,distance_a,dominance_a,"
                                            "distance_b,dominance_b,sentinel_replaced\n")
    (tmp_path / "metrics_2.csv").write_text("sample_id,community_dominance,distance_a,dominance_a,"
                                            "sentinel_replaced\n")
    assert outputs.roster_species(tmp_path) == 1


# ---------------------------------------------------------------- self time


def _span(name, start, end, parent, run=0):
    return spans.Span(name, start, end, parent, run)


def test_self_time_on_toy_tree():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    tree = [_span("root", 0.0, 10.0, -1), _span("a", 1.0, 5.0, 0), _span("b", 4.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_by_run_renumbers_parents():
    flat = [
        _span("root", 0.0, 4.0, -1, run=0),
        _span("a", 1.0, 2.0, 0, run=0),
        _span("root", 5.0, 9.0, -1, run=1),
        _span("a", 6.0, 8.0, 2, run=1),
    ]
    runs = spans.by_run(flat)
    assert [s.parent for s in runs[1]] == [-1, 0]
    assert spans.self_times(runs[1]) == pytest.approx([2.0, 2.0])


# ---------------------------------------------------------------- wrappers


def test_wrapper_passes_results_and_exceptions_through():
    tracer = spans.Tracer()
    marker = object()
    wrapped = tracer.wrap("x", lambda value: value)
    assert wrapped(marker) is marker

    error = ValueError("boom")

    def fail():
        raise error

    with pytest.raises(ValueError) as caught:
        tracer.wrap("y", fail, on_error=lambda exc: {"seen": 1})()
    assert caught.value is error
    assert [s.name for s in tracer.spans] == ["x", "y"]
    assert tracer.spans[1].attrs == {"seen": 1}


def _report_all(tmp_path: Path, name: str) -> dict[str, str]:
    from domstab import cli

    out = tmp_path / name
    code = cli.main(["report-all", "--input", str(tmp_path / "in.csv"), "--out", str(out),
                     "--models", "linear,linear-quadratic", "--plot"])
    assert code == 0
    return outputs.digests(out)


def test_traced_outputs_identical_and_originals_restored(tmp_path, capsys):
    from domstab import cli, report

    (tmp_path / "in.csv").write_text(generate_table(5, 2, 16, 12), encoding="utf-8")
    original = (report.parse_table, cli.main)
    plain = _report_all(tmp_path, "plain")
    tracer = spans.Tracer()
    with spans.install(tracer):
        assert report.parse_table is not original[0]
        traced = _report_all(tmp_path, "traced")
    assert (report.parse_table, cli.main) == original
    assert traced == plain

    m = spans.layer_metrics(tracer.spans, tracer.counts[0])
    assert m["ingest.parse_calls"] == 3
    assert m["fitting.linear.calls"] == 2
    assert m["fitting.logistic.calls"] == 0
    assert m["svgplot.charts"] == m["fitting.linear.calls"]
    assert m["fitting.model_evals"] > 0
    assert m["trace.top_level_share"] <= 1.0
    roots = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in roots] == [spans.ROOT]
    assert math.isclose(sum(spans.self_times(tracer.spans)), roots[0].end - roots[0].start)


# ---------------------------------------------------------------- output check


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_golden_check_tolerance(tmp_path):
    text = "subject,slope,n,note\n101,0.25,29,ok\n102,-1.5e-05,30,\n"
    golden = outputs.make_golden(_write(tmp_path / "g" / "fit.csv", text).parent)

    problems, identical = outputs.check_golden(tmp_path / "g", golden, 1e-9)
    assert (problems, identical) == ([], 1)

    drift = text.replace("0.25", "0.25000000000001")
    _write(tmp_path / "d" / "fit.csv", drift)
    problems, identical = outputs.check_golden(tmp_path / "d", golden, 1e-9)
    assert (problems, identical) == ([], 0)

    _write(tmp_path / "f" / "fit.csv", text.replace("0.25", "0.2501"))
    problems, _ = outputs.check_golden(tmp_path / "f", golden, 1e-9)
    assert problems and "float" in problems[0]

    _write(tmp_path / "n" / "fit.csv", text.replace("29", "28"))
    problems, _ = outputs.check_golden(tmp_path / "n", golden, 1e-9)
    assert problems and "non-float" in problems[0]


def test_golden_check_sampled_floats(tmp_path):
    values = [f"{1.0 + i / 7:.17g}" for i in range(500)]
    text = "x\n" + "\n".join(values) + "\n"
    golden = outputs.make_golden(_write(tmp_path / "g" / "m.csv", text).parent)
    assert "sample" in golden["files"]["m.csv"]
    # a change between sampled positions still moves the float sums
    values[3] = "9.5"
    _write(tmp_path / "c" / "m.csv", "x\n" + "\n".join(values) + "\n")
    problems, _ = outputs.check_golden(tmp_path / "c", golden, 1e-9)
    assert problems and "sums" in problems[0]


def test_golden_check_selection_and_file_set(tmp_path):
    summary = "subject,model,quality,signs,narrative,backup,rationale,error\n101,linear,,,,,,\n"
    golden = outputs.make_golden(_write(tmp_path / "g" / "selection_summary.csv", summary).parent)
    _write(tmp_path / "c" / "selection_summary.csv", summary.replace("linear", "logistic"))
    _write(tmp_path / "c" / "extra.csv", "a\n")
    problems, _ = outputs.check_golden(tmp_path / "c", golden, 1e-9)
    assert any("file set" in p for p in problems)
    assert any("selected kind" in p for p in problems)


# ---------------------------------------------------------------- host probe


def test_probe_imports_nothing_of_the_program():
    import ast

    tree = ast.parse((ROOT / "bench" / "probe.py").read_text(encoding="utf-8"))
    modules = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    assert modules == {"io", "math", "numpy"}
