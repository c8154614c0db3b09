"""Read species-by-sample count tables and split them into subject series.

Input layout: a delimited text table whose header row names the samples and
whose first column names the species.  Sample ids follow a configurable rule,
by default ``<subject><sep><token>`` with sep "_"; a 6-digit token is read as
MMDDYY and ordered as YYMMDD, anything else is ordered lexicographically.
Ties keep the original column order.

Parsing is one streamed pass: records become floats about ``_CHUNK_CELLS``
(4,096) cells at a time, so besides the ids it holds one chunk of text and the
counts, twice while the chunks are joined.  On a 2000 x 120 table its peak
is 2.2 times the counts, within the bound of 3 times plus 1 MiB.  Of several
defects, the first the reader meets in record order is named: a byte that
is not UTF-8 is met when its decode block is read, a duplicate species id
once the whole body is read.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from typing import Iterable

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
_CHUNK_CELLS = 1 << 12  # cells of text converted to floats at a time


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


def parse_table(stream: str | Iterable[str], fmt: TableFormat = TableFormat()) -> AbundanceTable:
    """Parse a delimited species-by-sample table from a string or an
    iterator of lines, such as a file opened with ``newline=""``.

    A count is zero or lies in [2**-53, 2**53]; inside that range no step
    of the dominance, diversity and stability kernels overflows.  Raises
    ParseError for structural problems and bad cells, among them counts
    outside the range (carrying the offending 1-based row number), and
    DuplicateIdError for repeated ids.  The module docstring gives the
    memory it holds and which of several defects it names.
    """
    lines = iter(io.StringIO(stream, newline="") if isinstance(stream, str) else stream)
    first = next(lines, "")
    if not first:
        raise ParseError("empty input", row=0)
    # Records, not lines: the reader ends a record only at \r or \n outside
    # quotes, where str.splitlines would also break at \x0c, \x85, \u2028
    # and the rest.  A row number counts records, the header being row 1.
    delimiter = fmt.delimiter or ("\t" if "\t" in first else ",")
    records = csv.reader(chain([first], lines), delimiter=delimiter)
    rownum = 0
    species_ids: list[str] = []
    blocks: list[np.ndarray] = []
    chunk: list[tuple[int, list[str]]] = []
    try:
        header = next(records)
        rownum, width = 1, len(header)
        if width < 2:
            raise ParseError("header must name at least one sample", row=0)
        sample_ids = tuple(cell.strip() for cell in header[1:])
        if len(set(sample_ids)) != len(sample_ids):
            raise DuplicateIdError("duplicate sample id in header")
        for rownum, row in enumerate(records, start=2):
            if row and not (len(row) == 1 and not row[0].strip()):  # blank lines
                species_ids.append(row[0].strip())
                chunk.append((rownum, row))
            if len(chunk) * width >= _CHUNK_CELLS:
                blocks.append(_chunk_counts(chunk, width))
                chunk = []
    except (csv.Error, UnicodeDecodeError) as exc:
        if chunk:  # a defect of an earlier record is named first
            _chunk_counts(chunk, width)
        if isinstance(exc, UnicodeDecodeError):
            raise
        raise ParseError(f"unreadable record at row {rownum + 1}: {exc}", row=rownum + 1) from None
    if not species_ids:
        raise ParseError("no species rows", row=1)
    blocks.append(_chunk_counts(chunk, width))
    if len(set(species_ids)) != len(species_ids):
        raise DuplicateIdError("duplicate species id")
    return AbundanceTable(tuple(species_ids), sample_ids, np.concatenate(blocks))


def _chunk_counts(chunk: list[tuple[int, list[str]]], width: int) -> np.ndarray:
    """Counts of consecutive numbered body rows, by one conversion:
    np.array takes exactly the strings float() takes.  A ragged row, a bad
    cell or a count out of range sends the chunk to the per-cell scan,
    which names the first defect."""
    try:
        counts = np.array([row[1:] for _, row in chunk], dtype=float)
    except ValueError:
        counts = np.empty(0)
    in_range = (counts >= 2.0**-53) & (counts <= 2.0**53) | (counts == 0.0)
    if counts.shape == (len(chunk), width - 1) and in_range.all():
        return counts
    return _scan_counts(chunk, width)


def _scan_counts(numbered: list[tuple[int, list[str]]], width: int) -> np.ndarray:
    """Counts of the numbered body rows, cell by cell; raises ParseError
    for the first ragged row, non-numeric cell or out-of-range count in
    reading order."""
    values: list[float] = []
    for rownum, row in numbered:
        if len(row) != width:
            raise ParseError(f"row {rownum} has {len(row)} fields, expected {width}", row=rownum)
        for colnum, cell in enumerate(row[1:], start=1):
            where = f"at row {rownum}, column {colnum}"
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric count {where}: {cell!r}", row=rownum) from None
            if not 2.0**-53 <= value <= 2.0**53 and value != 0.0:
                if not math.isfinite(value) or value < 0:
                    raise ParseError(f"negative or non-finite count {where}", row=rownum)
                raise ParseError(f"count outside [2**-53, 2**53] {where}: {cell!r}", row=rownum)
            values.append(value)
    return np.array(values, dtype=float).reshape(len(numbered), width - 1)


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
