"""Read species-by-sample count tables and split them into subject series.

Input layout: a delimited text table whose header row names the samples and
whose first column names the species.  Sample ids follow a configurable rule,
by default ``<subject><sep><token>`` with sep "_"; a 6-digit token is read as
MMDDYY and ordered as YYMMDD, anything else is ordered lexicographically.
Ties keep the original column order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    DuplicateIdError,
    EmptyRosterError,
    IdRuleError,
    ParseError,
)

__all__ = [
    "TableFormat",
    "AbundanceTable",
    "SampleIdRule",
    "SubjectSeries",
    "parse_table",
    "emit_table",
    "split_subjects",
    "filter_low_reads",
]

DEFAULT_MIN_TOTAL_READS = 10


@dataclass(frozen=True)
class TableFormat:
    """Delimiter policy for :func:`parse_table`: one character, or None to
    auto-detect."""

    delimiter: str | None = None

    def __post_init__(self):
        if self.delimiter is not None and len(self.delimiter) != 1:
            raise ParseError(f"delimiter {self.delimiter!r} is not one character")


@dataclass(frozen=True, eq=False)
class AbundanceTable:
    """Whole input table: species x samples count matrix with both id axes."""

    species_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    counts: np.ndarray  # shape (len(species_ids), len(sample_ids)), float

    def __post_init__(self):
        if self.counts.shape != (len(self.species_ids), len(self.sample_ids)):
            raise ValueError("counts shape does not match id axes")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbundanceTable):
            return NotImplemented
        return (
            self.species_ids == other.species_ids
            and self.sample_ids == other.sample_ids
            and np.array_equal(self.counts, other.counts)
        )


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def parse_table(stream: str | TextIO, fmt: TableFormat = TableFormat()) -> AbundanceTable:
    """Parse a delimited species-by-sample table.

    A count is zero or lies in [2**-53, 2**53]; inside that range no step
    of the dominance, diversity and stability kernels overflows.  Raises
    ParseError for structural problems and bad cells, among them counts
    outside the range (carrying the offending 1-based row number), and
    DuplicateIdError for repeated ids.
    """
    text = stream if isinstance(stream, str) else stream.read()
    if not text:
        raise ParseError("empty input", row=0)
    # Records, not lines: the reader ends a record only at \r or \n outside
    # quotes, where str.splitlines would also break at \x0c, \x85, \u2028
    # and the rest.  A row number counts records, the header being row 1.
    records = io.StringIO(text, newline="")
    delimiter = fmt.delimiter or _detect_delimiter(records.readline())
    records.seek(0)
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(records, delimiter=delimiter))
    except csv.Error as exc:  # rows keeps the records read before the bad one
        row = len(rows) + 1
        raise ParseError(f"unreadable record at row {row}: {exc}", row=row) from None
    header = rows[0]
    if len(header) < 2:
        raise ParseError("header must name at least one sample", row=0)
    sample_ids = tuple(cell.strip() for cell in header[1:])
    if len(set(sample_ids)) != len(sample_ids):
        raise DuplicateIdError("duplicate sample id in header")

    numbered = [
        (rownum, row) for rownum, row in enumerate(rows[1:], start=2)
        if row and not (len(row) == 1 and not row[0].strip())  # blank lines
    ]
    if not numbered:
        raise ParseError("no species rows", row=1)
    # One conversion of the whole body: np.array takes exactly the strings
    # float() takes.  A ragged body, a bad cell or a count out of range
    # sends the table to the per-cell scan, which names the first defect.
    try:
        counts = np.array([row[1:] for _, row in numbered], dtype=float)
    except ValueError:
        counts = None
    if (
        counts is None
        or counts.shape != (len(numbered), len(header) - 1)
        or not (((counts >= 2.0**-53) & (counts <= 2.0**53)) | (counts == 0.0)).all()
    ):
        counts = _scan_counts(numbered, len(header))
    species_ids = [row[0].strip() for _, row in numbered]
    if len(set(species_ids)) != len(species_ids):
        raise DuplicateIdError("duplicate species id")
    return AbundanceTable(tuple(species_ids), sample_ids, counts)


def _scan_counts(numbered: list[tuple[int, list[str]]], width: int) -> np.ndarray:
    """Counts of the numbered body rows, cell by cell; raises ParseError
    for the first ragged row, non-numeric cell or out-of-range count in
    reading order."""
    data: list[list[float]] = []
    for rownum, row in numbered:
        if len(row) != width:
            raise ParseError(
                f"row {rownum} has {len(row)} fields, expected {width}",
                row=rownum,
            )
        values = []
        for colnum, cell in enumerate(row[1:], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric count at row {rownum}, column {colnum}: {cell!r}",
                    row=rownum,
                ) from None
            if not 2.0**-53 <= value <= 2.0**53 and value != 0.0:
                if not math.isfinite(value) or value < 0:
                    raise ParseError(
                        f"negative or non-finite count at row {rownum}, column {colnum}",
                        row=rownum,
                    )
                raise ParseError(
                    f"count outside [2**-53, 2**53] at row {rownum}, column {colnum}: "
                    f"{cell!r}",
                    row=rownum,
                )
            values.append(value)
        data.append(values)
    return np.array(data, dtype=float)


def emit_table(table: AbundanceTable, delimiter: str = ",") -> str:
    """Serialize a table back to text, one record per line.  Round-trips
    through parse_table: a field holding the delimiter, a quote or a line
    break is quoted.  (Before Python 3.13 csv.writer leaves a bare ``\\r``
    unquoted, and a reader ends the record there.)"""
    special = (delimiter, '"', "\r", "\n")

    def field(text: str) -> str:
        if any(c in text for c in special):
            return '"' + text.replace('"', '""') + '"'
        return text

    rows = [["species_id", *table.sample_ids]]
    rows += [[sid, *map(_fmt_count, row)] for sid, row in zip(table.species_ids, table.counts)]
    return "".join(delimiter.join(map(field, row)) + "\n" for row in rows)


def _fmt_count(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


@dataclass(frozen=True)
class SampleIdRule:
    """How sample ids decompose into subject and time token.

    The token after the last ``separator`` is the time token; everything
    before it is the subject id.  A 6-digit token is treated as MMDDYY and
    sorted as YYMMDD, any other token sorts lexicographically.
    """

    separator: str = "_"

    def __post_init__(self):
        if not self.separator:
            raise IdRuleError("sample id separator is empty")

    def parse(self, sample_id: str) -> tuple[str, str]:
        if self.separator not in sample_id:
            raise IdRuleError(
                f"sample id {sample_id!r} has no {self.separator!r} separator"
            )
        subject, _, token = sample_id.rpartition(self.separator)
        if not subject or not token:
            raise IdRuleError(f"sample id {sample_id!r} splits into an empty part")
        return subject, token

    def sort_key(self, token: str) -> str:
        if len(token) == 6 and token.isdigit():
            return token[4:6] + token[0:2] + token[2:4]  # MMDDYY -> YYMMDD
        return token


@dataclass(frozen=True)
class SubjectSeries:
    """All samples of one subject, time-ordered, on a fixed species roster.

    The roster is the union of species observed (non-zero) in any of the
    subject's samples; zeros are retained at the samples where a roster
    species is absent so the community size n stays constant over time.
    """

    subject_id: str
    species_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    counts: np.ndarray  # shape (roster, T)
    dropped_species: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def too_short(self) -> bool:
        """True when fewer than two samples exist; no stability series then."""
        return self.n_samples < 2

    def sample_vector(self, t: int) -> np.ndarray:
        return self.counts[:, t]


def split_subjects(
    table: AbundanceTable, rule: SampleIdRule = SampleIdRule()
) -> list[SubjectSeries]:
    """Group samples by subject and time-order them.

    Subjects come back sorted by id; sample order within a subject is by the
    rule's sort key with the original column order breaking ties.
    """
    parsed = [rule.parse(sid) for sid in table.sample_ids]
    subjects = sorted({subject for subject, _ in parsed})
    out = []
    for subject in subjects:
        columns = [i for i, (s, _) in enumerate(parsed) if s == subject]
        columns.sort(key=lambda i: (rule.sort_key(parsed[i][1]), i))
        block = table.counts[:, columns]
        present = block.any(axis=1)
        out.append(
            SubjectSeries(
                subject_id=subject,
                species_ids=tuple(compress(table.species_ids, present)),
                sample_ids=tuple(table.sample_ids[i] for i in columns),
                counts=block[present],
                dropped_species=tuple(compress(table.species_ids, ~present)),
            )
        )
    return out


def filter_low_reads(
    series: SubjectSeries, min_total: float = DEFAULT_MIN_TOTAL_READS
) -> SubjectSeries:
    """Drop roster species whose reads summed over the subject fall below
    ``min_total``.  The dropped ids are recorded on the returned series."""
    keep = series.counts.sum(axis=1) >= min_total
    if not keep.any():
        raise EmptyRosterError(f"no species with >= {min_total} reads")
    return replace(
        series,
        species_ids=tuple(compress(series.species_ids, keep)),
        counts=series.counts[keep],
        dropped_species=series.dropped_species + tuple(compress(series.species_ids, ~keep)),
    )
