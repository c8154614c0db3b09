import io
import tracemalloc

import numpy as np
import pytest

from domstab.errors import DuplicateIdError, EmptyRosterError, IdRuleError, ParseError
from domstab.ingest import (
    AbundanceTable,
    SampleIdRule,
    TableFormat,
    emit_table,
    filter_low_reads,
    parse_table,
    split_subjects,
)

CSV_TEXT = """species_id,400_010106,401_010106,400_010506,401_010506
OTU1,10,3,12,0
OTU2,0,5,1,7
OTU3,0,0,0,0
OTU4,1,0,1,0
"""


def test_parse_comma_autodetect():
    table = parse_table(CSV_TEXT)
    assert table.species_ids == ("OTU1", "OTU2", "OTU3", "OTU4")
    assert table.sample_ids == ("400_010106", "401_010106", "400_010506", "401_010506")
    assert tuple(table.counts[0]) == (10, 3, 12, 0)


def test_parse_tab_autodetect():
    text = CSV_TEXT.replace(",", "\t")
    table = parse_table(text)
    assert table.sample_ids[0] == "400_010106"
    assert tuple(table.counts[1]) == (0, 5, 1, 7)


def test_parse_explicit_delimiter_overrides_detection():
    text = "species_id;400_010106\nOTU1;4\n"
    table = parse_table(text, TableFormat(delimiter=";"))
    assert table.counts.tolist() == [[4.0]]


def test_parse_accepts_stream_and_skips_blank_lines():
    table = parse_table(io.StringIO("species_id,400_010106\n\nOTU1,4\n\n"))
    assert table.counts.tolist() == [[4.0]]


def test_parse_ragged_row_reports_row_number():
    with pytest.raises(ParseError) as err:
        parse_table("species_id,400_010106\nOTU1,1,2\n")
    assert err.value.row == 2


def test_parse_keeps_line_breaks_other_than_cr_lf_inside_a_field():
    # str.splitlines also breaks at \x0c; a csv record does not
    table = parse_table("species_id,1_a,1_b,1_c\nx\x0cy,10,20,30\nz,5,6,7\n")
    assert table.species_ids == ("x\x0cy", "z")
    assert table.counts.tolist() == [[10.0, 20.0, 30.0], [5.0, 6.0, 7.0]]


def test_parse_reads_a_quoted_line_break_and_counts_records():
    text = 'species_id,1_a,1_b,1_c\n"x\ny",10,20,30\nz,5,6,7\nw,1,2\n'
    with pytest.raises(ParseError) as err:
        parse_table(text)
    assert err.value.row == 4  # the fourth record, on the fifth line
    table = parse_table(text.replace("w,1,2\n", ""))
    assert table.species_ids == ("x\ny", "z")


def test_parse_unreadable_record_is_parse_error():
    # an unclosed quote swallows the rest of the table into one field
    text = 'species_id,1_a\n"x,1\n' + "".join(f"s{i},1\n" for i in range(20_000))
    with pytest.raises(ParseError) as err:
        parse_table(text)
    assert err.value.row == 2

@pytest.fixture(scope="module")
def wide_path(tmp_path_factory):
    """A generated 2000-species x 120-sample table, two subjects of 60."""
    counts = np.random.default_rng(7).integers(0, 5000, size=(2000, 120))
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["species_id", *(f"{j % 2}_{j:03d}" for j in range(120))]) + "\n")
        fh.writelines(f"OTU{i}," + ",".join(map(str, row)) + "\n" for i, row in enumerate(counts))
    return path


@pytest.mark.parametrize("which", ["cohort", "wide"])
def test_parse_string_file_and_line_iterator_agree(which, cohort_path, wide_path):
    path = cohort_path if which == "cohort" else wide_path
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    with open(path, encoding="utf-8", newline="") as fh:
        from_file = parse_table(fh)
    with open(path, encoding="utf-8", newline="") as fh:
        from_lines = parse_table(line for line in fh)  # not seekable
    assert parse_table(text) == from_file == from_lines
    assert from_file.counts.shape == ((2000, 120) if which == "wide" else (60, 150))


def test_parse_memory_is_bounded_by_the_counts(wide_path):
    """Parsing an open file holds the counts at most three times over, plus
    a MiB for the chunk of text and the ids."""
    with open(wide_path, encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            table = parse_table(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3 * table.counts.nbytes + 2**20


def test_parse_rejects_bad_cell():
    with pytest.raises(ParseError):
        parse_table("species_id,400_010106\nOTU1,four\n")


@pytest.mark.parametrize("cell", ["-2", "nan", "inf", "-inf"])
def test_parse_rejects_negative_count(cell):
    with pytest.raises(ParseError, match="negative or non-finite") as err:
        parse_table(f"species_id,400_010106\nOTU0,1\nOTU1,{cell}\n")
    assert err.value.row == 3


@pytest.mark.parametrize(
    "low, high", [(2.0**-53, 2.0**-54), (2.0**-53, 5e-324), (2.0**53, 2.0**54), (2.0**53, 1e300)]
)
def test_parse_count_range_ends(low, high):
    """Non-zero counts lie in [2**-53, 2**53]: each end is accepted, and a
    count beyond it is rejected with its row and column (1e300 would
    overflow the variance, 5e-324 the crowding ratio)."""
    table = parse_table(f"species_id,400_010106,400_010506\nOTU0,0,{low!r}\n")
    assert table.counts.tolist() == [[0.0, low]]
    with pytest.raises(ParseError, match=r"outside \[2\*\*-53, 2\*\*53\] at row 3, column 2") as err:
        parse_table(f"species_id,400_010106,400_010506\nOTU0,1,1\nOTU1,1,{high!r}\n")
    assert err.value.row == 3


def test_parse_duplicate_species_id():
    with pytest.raises(DuplicateIdError):
        parse_table("species_id,400_010106\nOTU1,1\nOTU1,2\n")


def test_parse_duplicate_sample_id():
    with pytest.raises(DuplicateIdError):
        parse_table("species_id,400_010106,400_010106\nOTU1,1,2\n")


def test_emit_round_trip():
    table = parse_table(CSV_TEXT)
    again = parse_table(emit_table(table))
    assert again == table


def test_id_rule_splits_on_last_separator():
    rule = SampleIdRule()
    assert rule.parse("400_010106") == ("400", "010106")
    assert rule.parse("s_40_010106") == ("s_40", "010106")


def test_id_rule_rejects_missing_separator():
    rule = SampleIdRule()
    with pytest.raises(IdRuleError):
        rule.parse("400010106")
    with pytest.raises(IdRuleError):
        rule.parse("400_")
    with pytest.raises(IdRuleError):
        rule.parse("_010106")


def test_id_rule_rejects_empty_separator():
    with pytest.raises(IdRuleError):
        SampleIdRule(separator="")

def test_date_tokens_sort_by_year_first():
    rule = SampleIdRule()
    # MMDDYY tokens: December 2005 must sort before January 2006
    assert rule.sort_key("120105") < rule.sort_key("010106")
    assert rule.sort_key("010106") < rule.sort_key("010506")


def test_non_date_tokens_sort_lexicographically():
    rule = SampleIdRule()
    assert rule.sort_key("a10") < rule.sort_key("a2")  # plain string order
    assert rule.sort_key("visit1") < rule.sort_key("visit2")
    # 6 digits is the date shape; 5 or 7 digits stay lexicographic
    assert rule.sort_key("12345") == "12345"
    assert rule.sort_key("1234567") == "1234567"


def test_split_subjects_partitions_every_sample():
    table = parse_table(CSV_TEXT)
    subjects = split_subjects(table)
    assert [s.subject_id for s in subjects] == ["400", "401"]
    seen = [sid for s in subjects for sid in s.sample_ids]
    assert sorted(seen) == sorted(table.sample_ids)


def test_split_subjects_orders_samples_by_token():
    table = parse_table(
        "species_id,400_020106,400_010106\nOTU1,5,6\nOTU2,1,2\n"
    )
    (series,) = split_subjects(table)
    assert series.sample_ids == ("400_010106", "400_020106")
    assert tuple(series.sample_vector(0)) == (6.0, 2.0)


def test_split_subjects_keeps_column_order_on_tied_tokens():
    table = parse_table(
        "species_id,400_a,400_b,401_a\nOTU1,1,2,3\n"
    )
    series = {s.subject_id: s for s in split_subjects(table)}
    assert series["400"].sample_ids == ("400_a", "400_b")


def test_roster_drops_species_absent_for_subject():
    table = parse_table(CSV_TEXT)
    by_id = {s.subject_id: s for s in split_subjects(table)}
    # OTU3 is zero everywhere; OTU4 is present only for subject 400
    assert "OTU3" not in by_id["400"].species_ids
    assert "OTU4" in by_id["400"].species_ids
    assert "OTU4" not in by_id["401"].species_ids
    assert "OTU3" in by_id["400"].dropped_species


def test_roster_keeps_zero_cells_for_present_species():
    table = parse_table(CSV_TEXT)
    by_id = {s.subject_id: s for s in split_subjects(table)}
    assert tuple(by_id["401"].sample_vector(0)) == (3.0, 5.0)
    assert tuple(by_id["401"].sample_vector(1)) == (0.0, 7.0)


def test_filter_low_reads_drops_below_threshold():
    table = parse_table(CSV_TEXT)
    by_id = {s.subject_id: s for s in split_subjects(table)}
    kept = filter_low_reads(by_id["400"], min_total=10)
    # OTU4 totals 2 reads for subject 400 and goes; OTU1 (22) and OTU2 (1)...
    assert "OTU1" in kept.species_ids
    assert "OTU4" not in kept.species_ids
    assert "OTU4" in kept.dropped_species


def test_filter_low_reads_empty_roster_raises():
    table = parse_table("species_id,400_a,400_b\nOTU1,1,1\n")
    (series,) = split_subjects(table)
    with pytest.raises(EmptyRosterError):
        filter_low_reads(series, min_total=10)


def test_too_short_flag():
    table = parse_table("species_id,400_a\nOTU1,5\n")
    (series,) = split_subjects(table)
    assert series.too_short
    assert series.n_samples == 1


def test_abundance_table_is_value_like():
    t1 = parse_table(CSV_TEXT)
    t2 = parse_table(CSV_TEXT)
    assert t1 == t2
    assert isinstance(t1, AbundanceTable)
