"""CLI fuzz: every command on small generated tables ends with exit code 0,
1 or 2, lets no exception escape (NumPy RuntimeWarnings are errors under
the test configuration), writes every healthy subject's files, and writes
only CSV files that csv.reader reads back as records of the header's width,
with every float spelled as ``repr`` spells it.  Some species ids hold a
quote or a line break (``\r`` or ``\n``).

A subject is healthy when the analysis error does not name it; on exit 0
every subject is healthy.
"""

import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from domstab.cli import main

COMMANDS = ("metrics", "compare-indices", "fit", "simulate", "report-all")
FITS = ["fit_linear.csv", "fit_logistic.csv", "fit_logistic_sine.csv",
        "fit_linear_quadratic.csv", "fit_quadratic_quadratic.csv", "selection_summary.csv"]
# files of one subject, and shared tables that must hold a row for it
OWN = {"metrics": ["metrics_{}.csv"], "simulate": ["simulate_{}_trajectory.csv"],
       "report-all": ["metrics_{}.csv", "simulate_{}_trajectory.csv"]}
SHARED = {"compare-indices": ["index_regressions.csv"], "fit": FITS,
          "report-all": ["index_regressions.csv", *FITS]}

counts = st.one_of(
    st.just(0),
    st.integers(1, 1000),
    st.integers(1, 10**9),
    st.floats(0.001, 1000.0).map(lambda x: round(x, 3)),
)
# outside [2**-53, 2**53]: the parser must reject them
out_of_range = st.sampled_from([1e300, 5e-324, 2.0**54, 2.0**-60])
# species ids as the text of a quoted cell (a quote doubled)
species_ids = st.sampled_from(["sp", "sp", "s\rp", "s\np", 's""p'])


@st.composite
def tables(draw):
    """CSV text of 1-3 subjects with 0-8 samples each and 0-5 species, and
    the subjects that have samples."""
    subjects = [f"s{k}" for k in range(1, draw(st.integers(1, 3)) + 1)]
    samples = [
        f"{subject}_{t:02d}"
        for subject in subjects for t in range(draw(st.integers(0, 8)))
    ]
    rows = [[draw(counts) for _ in samples] for _ in range(draw(st.integers(0, 5)))]
    if rows and samples and draw(st.booleans()) and draw(st.booleans()):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(samples) - 1))
        rows[row][col] = draw(out_of_range)
    lines = [",".join(["species_id", *samples])]
    lines += [
        ",".join([f'"{draw(species_ids)}{i}"', *map(str, row)])
        for i, row in enumerate(rows)
    ]
    present = sorted({sample.split("_")[0] for sample in samples})
    return "\n".join(lines) + "\n", present


def _subjects_in(path: Path) -> set[str]:
    with open(path, newline="") as fh:
        return {row["subject"] for row in csv.DictReader(fh)}


def _records(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _misspelt_floats(rows: list[list[str]]) -> list[str]:
    """Cells of the float columns (every filled cell parses as a float, not
    all as integers) that are not the shortest round-trip spelling."""
    bad = []
    for column in zip(*rows[1:]):
        cells = [cell for cell in column if cell]
        if all(map(_parses, cells)) and not all(c.lstrip("-").isdigit() for c in cells):
            bad += [cell for cell in cells if repr(float(cell)) != cell]
    return bad


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    tables(),
    st.sampled_from(COMMANDS),
    st.sampled_from(["0", "10"]),
    st.sampled_from(["s1", "s2", "s3"]),
)
def test_cli_never_escapes_and_keeps_healthy_subjects(table, command, floor, subject):
    text, present = table
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "counts.csv", Path(tmp) / "out"
        src.write_text(text)
        argv = [command, "--input", str(src), "--out", str(out), "--min-total-reads", floor]
        if command == "simulate":
            argv += ["--subject", subject]
            present = [s for s in present if s == subject]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2), stderr.getvalue()
        if code == 1:
            return
        for path in out.glob("*.csv"):
            rows = _records(path)
            assert len({len(row) for row in rows}) == 1, (path.name, path.read_bytes())
            assert not _misspelt_floats(rows), (path.name, _misspelt_floats(rows))
        failed = set(re.findall(r"subject (s\d): ", stderr.getvalue()))
        assert code == 0 or failed, stderr.getvalue()
        for healthy in set(present) - failed:
            for name in OWN.get(command, []):
                assert (out / name.format(healthy)).exists(), (name, stderr.getvalue())
            for name in SHARED.get(command, []):
                assert healthy in _subjects_in(out / name), (name, stderr.getvalue())
