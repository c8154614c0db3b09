import csv
import io
import tracemalloc

import numpy as np
import pytest
from conftest import emit_table

from domstab import report
from domstab.errors import DomstabError, InputError
from domstab.ingest import (
    AbundanceTable,
    SampleIdRule,
    filter_low_reads,
    parse_table,
    split_subjects,
)
from domstab.report import RunConfig, load_subjects

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
    table = parse_table(text, delimiter=";")
    assert table.counts.tolist() == [[4.0]]


def test_parse_accepts_stream_and_skips_blank_lines():
    table = parse_table(io.StringIO("species_id,400_010106\n\nOTU1,4\n\n"))
    assert table.counts.tolist() == [[4.0]]


def test_parse_ragged_row_reports_row_number():
    with pytest.raises(InputError, match="^row 2 has 3 fields, expected 2$"):
        parse_table("species_id,400_010106\nOTU1,1,2\n")


def test_parse_keeps_line_breaks_other_than_cr_lf_inside_a_field():
    # str.splitlines also breaks at \x0c; a csv record does not
    table = parse_table("species_id,1_a,1_b,1_c\nx\x0cy,10,20,30\nz,5,6,7\n")
    assert table.species_ids == ("x\x0cy", "z")
    assert table.counts.tolist() == [[10.0, 20.0, 30.0], [5.0, 6.0, 7.0]]


def test_parse_reads_a_quoted_line_break_and_counts_records():
    text = 'species_id,1_a,1_b,1_c\n"x\ny",10,20,30\nz,5,6,7\nw,1,2\n'
    # the fourth record, on the fifth line
    with pytest.raises(InputError, match="^row 4 has 3 fields, expected 4$"):
        parse_table(text)
    table = parse_table(text.replace("w,1,2\n", ""))
    assert table.species_ids == ("x\ny", "z")


def test_parse_unreadable_record_is_parse_error():
    # an unclosed quote swallows the rest of the table into one field
    text = 'species_id,1_a\n"x,1\n' + "".join(f"s{i},1\n" for i in range(20_000))
    with pytest.raises(InputError, match="^unreadable record at row 2: "):
        parse_table(text)

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


@pytest.mark.parametrize("stream", ["", []], ids=["text", "lines"])
def test_parse_empty_input_is_input_error(stream):
    with pytest.raises(InputError, match="^empty input$"):
        parse_table(stream)


def test_parse_rejects_bad_cell():
    with pytest.raises(InputError, match="^non-numeric count at row 2, column 1: 'four'$"):
        parse_table("species_id,400_010106\nOTU1,four\n")


@pytest.mark.parametrize("cell", ["-2", "nan", "inf", "-inf"])
def test_parse_rejects_negative_count(cell):
    with pytest.raises(InputError, match="^negative or non-finite count at row 3, column 1$"):
        parse_table(f"species_id,400_010106\nOTU0,1\nOTU1,{cell}\n")


@pytest.mark.parametrize(
    "low, high", [(2.0**-53, 2.0**-54), (2.0**-53, 5e-324), (2.0**53, 2.0**54), (2.0**53, 1e300)]
)
def test_parse_count_range_ends(low, high):
    """Non-zero counts lie in [2**-53, 2**53]: each end is accepted, and a
    count beyond it is rejected with its row and column (1e300 would
    overflow the variance, 5e-324 the crowding ratio)."""
    table = parse_table(f"species_id,400_010106,400_010506\nOTU0,0,{low!r}\n")
    assert table.counts.tolist() == [[0.0, low]]
    with pytest.raises(InputError, match=r"outside \[2\*\*-53, 2\*\*53\] at row 3, column 2"):
        parse_table(f"species_id,400_010106,400_010506\nOTU0,1,1\nOTU1,1,{high!r}\n")


def test_parse_duplicate_species_id():
    with pytest.raises(InputError, match="^duplicate species id$"):
        parse_table("species_id,400_010106\nOTU1,1\nOTU1,2\n")


def test_parse_duplicate_sample_id():
    with pytest.raises(InputError, match="^duplicate sample id in header$"):
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
    with pytest.raises(InputError, match="^sample id '400010106' has no '_' separator$"):
        rule.parse("400010106")
    with pytest.raises(InputError, match="^sample id '400_' splits into an empty part$"):
        rule.parse("400_")
    with pytest.raises(InputError, match="^sample id '_010106' splits into an empty part$"):
        rule.parse("_010106")


def _loaded_subject_ids(tmp_path, sample_ids: list[str]) -> list[str]:
    """Subject ids that report.load_subjects, the reader of every command,
    takes from a one-species table of ``sample_ids``."""
    path = tmp_path / "counts.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(
            [["species_id", *sample_ids], ["OTU1", *["1"] * len(sample_ids)]]
        )
    return [s.subject_id for s in load_subjects(RunConfig(path, tmp_path / "out"))]


def test_id_rule_refuses_a_subject_too_long_to_name_a_file(tmp_path):
    """``simulate_<id>_fixed_points.csv.tmp`` may take 255 bytes of UTF-8,
    30 of them fixed, so a subject id may take 225: bytes, not characters."""
    longest = "\u00e9" * 112 + "x"  # 113 characters, 225 bytes
    assert _loaded_subject_ids(tmp_path, [f"{longest}_010106"]) == [longest]
    for subject in (longest + "x", "\u00e9" * 113):  # 226 bytes
        with pytest.raises(InputError, match="too long to name a file"):
            _loaded_subject_ids(tmp_path, [f"{subject}_010106"])


@pytest.mark.parametrize("char", ["\n", "\r", "\x85", "\u2028", "\x1b"])
def test_id_rule_refuses_a_subject_holding_a_control_character_or_line_break(char, tmp_path):
    """A subject names files and each is printed on one line, so none may
    hold a character that str.splitlines breaks at or any other control
    character."""
    with pytest.raises(InputError, match="control character or line break"):
        _loaded_subject_ids(tmp_path, [f"40{char}0_010106"])
    assert _loaded_subject_ids(tmp_path, ["40 0_010106"]) == ["40 0"]  # a space is no control


def test_split_subjects_accepts_any_subject_id():
    """Only the report, which names files after subjects, refuses an id."""
    ids = ["a/b", "a\\b", "a\0b", "40\n0", "40\r0", "40\x850", "40\u20280", "40\x1b0",
           "x" * 300, "\u00e9" * 113]
    header = ",".join(['"species_id"', *(f'"{subject}_010106"' for subject in ids)])
    table = parse_table(header + "\nOTU1" + ",1" * len(ids) + "\n")
    assert [s.subject_id for s in split_subjects(table)] == sorted(ids)


def test_subject_names_are_checked_once_per_subject(tmp_path, monkeypatch):
    """Three subjects of 40 samples each take three checks, not 120."""
    checked = []

    class Counting:
        def search(self, subject):
            checked.append(subject)
            return pattern.search(subject)

    pattern = report._UNNAMEABLE
    monkeypatch.setattr(report, "_UNNAMEABLE", Counting())
    ids = [f"{s}_t{t:03d}" for t in range(40) for s in ("p1", "p2", "p3")]
    assert _loaded_subject_ids(tmp_path, ids) == ["p1", "p2", "p3"]
    assert checked == ["p1", "p2", "p3"]


def test_id_rule_rejects_empty_separator():
    with pytest.raises(InputError, match="^sample id separator is empty$"):
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
    assert tuple(series.counts[:, 0]) == (6.0, 2.0)


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
    assert "OTU3" in table.species_ids  # it left the roster


def test_roster_keeps_zero_cells_for_present_species():
    table = parse_table(CSV_TEXT)
    by_id = {s.subject_id: s for s in split_subjects(table)}
    assert tuple(by_id["401"].counts[:, 0]) == (3.0, 5.0)
    assert tuple(by_id["401"].counts[:, 1]) == (0.0, 7.0)


def test_filter_low_reads_drops_below_threshold():
    table = parse_table(CSV_TEXT)
    by_id = {s.subject_id: s for s in split_subjects(table)}
    kept = filter_low_reads(by_id["400"], min_total=10)
    # OTU4 totals 2 reads for subject 400 and goes; OTU1 (22) and OTU2 (1)...
    assert "OTU1" in kept.species_ids
    assert "OTU4" not in kept.species_ids
    assert "OTU4" in by_id["400"].species_ids  # it left the roster


def test_filter_low_reads_empty_roster_raises():
    table = parse_table("species_id,400_a,400_b\nOTU1,1,1\n")
    (series,) = split_subjects(table)
    with pytest.raises(DomstabError, match="^no species with >= 10 reads$"):
        filter_low_reads(series, min_total=10)


def test_abundance_table_is_value_like():
    t1 = parse_table(CSV_TEXT)
    t2 = parse_table(CSV_TEXT)
    assert t1 == t2
    assert isinstance(t1, AbundanceTable)
    assert t1.__eq__(t1.species_ids) is NotImplemented
    assert t1 != t1.species_ids
    with pytest.raises(ValueError, match="^counts shape does not match id axes$"):
        AbundanceTable(t1.species_ids, t1.sample_ids[1:], t1.counts)
