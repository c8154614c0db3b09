import csv
import math
from pathlib import Path

import pytest

from domstab.ingest import AbundanceTable

FIXTURES = Path(__file__).parent / "fixtures"


def load_rows(name: str) -> list[dict[str, str]]:
    with open(FIXTURES / name, newline="") as fh:
        return list(csv.DictReader(fh))


def as_float(cell: str) -> float:
    return float(cell)  # float() accepts "inf"/"-inf" spellings directly


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def cohort_path() -> Path:
    return FIXTURES / "cohort.csv"


@pytest.fixture(scope="session")
def dominance_table() -> list[dict[str, float | str]]:
    """Reference dominance rows for one 29-sample subject, seven species."""
    rows = []
    for raw in load_rows("dominance_subject400.csv"):
        row: dict[str, float | str] = {"sample_id": raw["sample_id"]}
        for key, cell in raw.items():
            if key != "sample_id":
                row[key] = as_float(cell)
        rows.append(row)
    assert len(rows) == 29
    return rows


@pytest.fixture(scope="session")
def logistic_table() -> list[dict[str, float]]:
    return [
        {k: as_float(v) for k, v in row.items()} for row in load_rows("logistic_fits.csv")
    ]


@pytest.fixture(scope="session")
def logistic_sine_table() -> list[dict[str, float]]:
    return [
        {k: as_float(v) for k, v in row.items()}
        for row in load_rows("logistic_sine_fits.csv")
    ]


@pytest.fixture(scope="session")
def linear_table() -> list[dict[str, float]]:
    return [
        {k: as_float(v) for k, v in row.items()} for row in load_rows("linear_fits.csv")
    ]


@pytest.fixture(scope="session")
def lq_table() -> list[dict[str, str]]:
    # kept as strings: the derived-parameter check needs the printed text
    return load_rows("lq_fits.csv")


@pytest.fixture(scope="session")
def qq_table() -> list[dict[str, str]]:
    return load_rows("qq_fits.csv")


def printed_tolerance(cell: str, floor: float = 1e-3) -> float:
    """Absolute tolerance for comparing against a printed decimal: at least
    ``floor``, widened to half a unit of the last printed place when the
    value was rounded more coarsely than the floor."""
    text = cell.strip()
    if "." in text:
        half_ulp = 0.5 * 10.0 ** -(len(text) - text.index(".") - 1)
    else:
        half_ulp = 0.5
    return max(floor, half_ulp)


def assert_close(actual: float, expected: float, tol: float, label: str = "") -> None:
    if math.isinf(expected) or math.isinf(actual):
        assert actual == expected, f"{label}: {actual} != {expected}"
    else:
        assert abs(actual - expected) <= tol, (
            f"{label}: |{actual} - {expected}| = {abs(actual - expected)} > {tol}"
        )


def emit_table(table: AbundanceTable) -> str:
    """Serialize a table back to comma-separated text, one record per line,
    as the round-trip writer of the parse tests.  A field holding a comma, a
    quote or a line break is quoted.  (Before Python 3.13 csv.writer leaves
    a bare ``\\r`` unquoted, and a reader ends the record there.)"""
    special = (",", '"', "\r", "\n")

    def field(text: str) -> str:
        if any(c in text for c in special):
            return '"' + text.replace('"', '""') + '"'
        return text

    rows = [["species_id", *table.sample_ids]]
    rows += [[sid, *map(_fmt_count, row)] for sid, row in zip(table.species_ids, table.counts)]
    return "".join(",".join(map(field, row)) + "\n" for row in rows)


def _fmt_count(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))
