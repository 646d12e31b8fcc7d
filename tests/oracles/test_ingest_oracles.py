"""The columnar ingest parsers against their per-record oracles.

The TLE dumps are formatted element sets (alpha-5 catalog numbers
included) put through the edits a real archive or a hand edit can
make: corrupted digits, Unicode digits, underscores in numbers, blank
fields, truncated and over-long lines, 3LE name lines, dropped and
repeated lines.  The Dst CSVs mix the writer's stamps with every other
stamp shape ``Epoch.from_iso`` accepts, unsorted and repeated stamps,
empty cells and bad rows.  Fast and per-record parsers must agree to
the bit, or raise the same exception with the same text.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpaceWeatherError
from repro.io import csvio
from repro.io.csvio import read_series_csv
from repro.spaceweather import DstIndex
from repro.time import Epoch
from repro.timeseries import TimeSeries, merge_series
from repro.tle import format_tle, parse_tle
from repro.tle.fields import TLE_LINE_LENGTH, append_checksum, checksum, checksums
from repro.tle import parse
from repro.tle.parse import parse_tle_file

from tests.oracles import reference
from tests.properties.test_tle_roundtrip import element_sets

#: Characters an edit writes: digits, the format's own punctuation,
#: alpha-5 letters of both cases (I and O are not alpha-5), Unicode
#: digits (``'٣'.isdigit()``, and ``'²'`` which ``int`` rejects) and
#: what ``float`` or ``int`` accept beyond plain decimals.
EDIT_CHARS = "0123456789 +-.AaIiOoZz٣²_eE\t"

ISS = parse_tle(
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537",
)


@pytest.fixture(autouse=True, scope="module")
def column_pass_for_any_size():
    """The dumps here are small: decode them in columns all the same."""
    with mock.patch.object(parse, "_MIN_COLUMN_RECORDS", 0):
        yield


def outcome(reader, *args, **kwargs):
    """What a reader returns, or the type and text of what it raises."""
    try:
        return reader(*args, **kwargs)
    except Exception as exc:  # the exception is the result
        return (type(exc).__name__, str(exc))


def record_bits(elements) -> tuple:
    """Every init field of a record, floats as exact hex, with types."""
    values = []
    for f in dataclasses.fields(elements):
        if not f.init:
            continue
        value = getattr(elements, f.name)
        if isinstance(value, Epoch):
            value = value.jd
        values.append((type(value).__name__, value.hex() if isinstance(value, float) else value))
    return tuple(values)


def report_bits(report):
    if isinstance(report, tuple):
        return report
    return [record_bits(e) for e in report.elements], report.errors


# --- TLE ---------------------------------------------------------------------
@st.composite
def tle_dumps(draw):
    lines: list[str] = []
    for elements in draw(st.lists(element_sets(), max_size=5)):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["STARLINK-1007", "0 ISS (ZARYA)", ""])))
        lines.extend(format_tle(elements))
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        index = draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        edit = draw(
            st.sampled_from(
                ["char", "digit", "blank", "truncate", "extend", "drop", "repeat"]
            )
        )
        if edit == "char" and line:
            column = draw(st.integers(0, len(line) - 1))
            line = line[:column] + draw(st.sampled_from(EDIT_CHARS)) + line[column + 1 :]
        elif edit == "digit":
            # A changed digit: the checksum catches it unless refreshed.
            digits = [i for i in range(min(68, len(line))) if "0" <= line[i] <= "9"]
            if digits:
                column = draw(st.sampled_from(digits))
                line = line[:column] + draw(st.sampled_from("0123456789")) + line[column + 1 :]
        elif edit == "blank":
            start = draw(st.integers(0, TLE_LINE_LENGTH - 1))
            width = draw(st.integers(1, 12))
            line = line[:start] + " " * len(line[start : start + width]) + line[start + width :]
        elif edit == "truncate":
            line = line[: draw(st.integers(0, len(line)))]
        elif edit == "extend":
            line += draw(st.text(alphabet=" 0123456789X\r", min_size=1, max_size=6))
        if edit == "drop":
            del lines[index]
            continue
        if edit == "repeat":
            lines.insert(index, line)
            continue
        if len(line) >= TLE_LINE_LENGTH and draw(st.booleans()):
            # Refresh the checksum so the edited field itself is parsed.
            try:
                line = append_checksum(line[:68]) + line[TLE_LINE_LENGTH:]
            except ValueError:
                pass  # '²' counts as a digit but has no value
        lines[index] = line
    return lines


class TestChecksum:
    @given(st.text(alphabet=EDIT_CHARS + "ABC-", max_size=80))
    def test_scalar_matches_loop(self, line):
        assert outcome(checksum, line) == outcome(reference.checksum, line)

    @given(element_sets(), st.data())
    @settings(max_examples=200)
    def test_columns_match_loop_on_corrupted_lines(self, elements, data):
        lines = list(format_tle(elements))
        for index, line in enumerate(lines):
            column = data.draw(st.integers(0, 67), label="column")
            char = data.draw(st.sampled_from("0123456789 +-.AZ"), label="char")
            lines[index] = line[:column] + char + line[column + 1 :]
        block = np.frombuffer("".join(lines).encode("ascii"), np.uint8)
        fast = checksums(block.reshape(-1, TLE_LINE_LENGTH).T.copy())
        assert fast.tolist() == [reference.checksum(line) for line in lines]

    def test_unicode_digits_count_their_value(self):
        line = "1" + "٣" + " " * 66
        assert checksum(line) == reference.checksum(line) == 4


class TestParseTleFile:
    @given(
        tle_dumps(),
        st.booleans(),
        st.sampled_from([1, 2, 3, 1024]),
        st.sampled_from([0, 2, 32]),
    )
    @settings(max_examples=400)
    def test_matches_per_record_parse(self, lines, verify, block_records, min_records):
        # Small blocks put fallbacks and errors in later blocks; a
        # block below the minimum skips the column pass.
        with mock.patch.object(parse, "_BLOCK_RECORDS", block_records), mock.patch.object(
            parse, "_MIN_COLUMN_RECORDS", min_records
        ):
            fast = outcome(parse_tle_file, lines, verify=verify)
        slow = outcome(reference.parse_tle_file, lines, verify=verify)
        assert report_bits(fast) == report_bits(slow)

    @pytest.mark.parametrize(
        "edits",
        [
            [(0, 20, "٣")],  # Unicode digit in the epoch day
            [(1, 57, "_")],  # float('1_0') == 10.0: the mean motion
            [(1, 10, "_")],  # ... and the inclination
            [(0, 2, "a"), (1, 2, "a")],  # lower-case alpha-5 letter
        ],
    )
    def test_unusual_text_takes_the_strict_path(self, edits):
        lines = list(format_tle(dataclasses.replace(ISS, catalog_number=100000)))
        for which, column, char in edits:
            line = lines[which]
            lines[which] = append_checksum(line[:column] + char + line[column + 1 : 68])
        fast = outcome(parse_tle_file, lines)
        assert report_bits(fast) == report_bits(outcome(reference.parse_tle_file, lines))

    @pytest.mark.parametrize(
        "line, start, text",
        [
            (1, 8, "51.64.16"),  # two dots
            (1, 8, "51. 6416"),  # blank inside a number
            (1, 8, " 5 .6416"),
            (1, 8, "51.-6416"),  # sign inside a number
            (1, 17, "247.-627"),  # sign inside a field with no domain
            (1, 17, "24-.4627"),
            (1, 34, "130.53+0"),
            (0, 33, " .0000-182"),
            (1, 8, "-51.6416"),  # negative inclination: out of domain
            (1, 8, "+51.6416"),
            (1, 8, "180.0001"),
            (1, 8, "  180.00"),
            (1, 52, "-15.7212539"),  # negative mean motion
            (1, 52, " 0.00000000"),  # zero mean motion
            (1, 52, "15.72125391"),
            (1, 26, "0 06703"),  # eccentricity with a blank
            (1, 26, "  06703"),
            (1, 26, "9999999"),
            (1, 63, "56 37"),  # revolution number with an inner blank
            (1, 63, "5637 "),
            (1, 63, "     "),
            (0, 64, "2 27"),  # element number
            (0, 62, " "),  # ephemeris type blank
            (0, 18, " 8"),  # epoch year
            (0, 18, "  "),
            (0, 18, "8 "),
            (0, 20, "000.50000000"),  # day of year out of range
            (0, 20, "366.50000000"),  # 2008 is a leap year: in range
            (0, 20, "367.00000000"),
            (0, 20, "264.5178252 "),
            (0, 33, "+.00002182"),  # first derivative
            (0, 33, "- .0000218"),
            (0, 33, "-0.0000218"),
            (0, 33, "          "),
            (0, 44, " 00000+0"),  # implied decimals
            (0, 44, "-00000-0"),
            (0, 44, "+12345-9"),
            (0, 44, " 12345+9"),
            (0, 44, " 1234 -4"),
            (0, 44, " 12345 4"),
            (0, 44, "12345-4 "),
            (0, 53, "      -4"),
            (0, 2, "I0000"),  # not an alpha-5 letter
            (0, 2, "A 123"),
            (0, 2, " A123"),
            (0, 2, "25545"),  # catalog numbers differ between lines
        ],
    )
    def test_field_shapes_match_per_record_parse(self, line, start, text):
        lines = list(format_tle(ISS))
        edited = lines[line][:start] + text + lines[line][start + len(text) :]
        lines[line] = append_checksum(edited[:68])
        for verify in (True, False):
            fast = outcome(parse_tle_file, lines, verify=verify)
            slow = outcome(reference.parse_tle_file, lines, verify=verify)
            assert report_bits(fast) == report_bits(slow)

    @pytest.mark.parametrize("check_digit", ["X", " ", "-", "0"])
    def test_check_digit_shapes(self, check_digit):
        lines = [line[:68] + check_digit for line in format_tle(ISS)]
        for verify in (True, False):
            fast = outcome(parse_tle_file, lines, verify=verify)
            slow = outcome(reference.parse_tle_file, lines, verify=verify)
            assert report_bits(fast) == report_bits(slow)

    def test_small_dumps_skip_the_column_pass(self):
        # A service round parses one record: the column pass's fixed
        # cost would be most of it.
        with mock.patch.object(parse, "_MIN_COLUMN_RECORDS", 32), mock.patch.object(
            parse, "_column_block", side_effect=AssertionError("column pass")
        ):
            report = parse_tle_file(list(format_tle(ISS)))
        assert [record_bits(e) for e in report.elements] == [record_bits(ISS)]

    def test_lower_case_alpha5_parses(self):
        line1, line2 = format_tle(dataclasses.replace(ISS, catalog_number=100000))
        lines = [append_checksum(line[:2] + "a" + line[3:68]) for line in (line1, line2)]
        assert [e.catalog_number for e in parse_tle_file(lines).elements] == [100000]

    def test_superscript_digit_raises_like_the_loop(self):
        line1, line2 = format_tle(ISS)
        lines = [line1[:20] + "²" + line1[21:], line2]
        fast = outcome(parse_tle_file, lines)
        assert fast == outcome(reference.parse_tle_file, lines)
        assert fast[0] == "ValueError"

    def test_long_lines_and_orphans(self):
        line1, line2 = format_tle(ISS)
        lines = ["ISS", line1 + "  extra", line2 + "\r", line2, line1, line1, line2]
        fast = parse_tle_file(lines)
        assert report_bits(fast) == report_bits(reference.parse_tle_file(lines))
        assert fast.parsed_count == 1 and fast.error_count == 4


# --- Dst CSV -----------------------------------------------------------------
#: Writer-shaped stamps every field of which is out of range, or
#: only valid in a leap year.
EDGE_STAMPS = [
    "2021-01-01T24:00:00", "2021-01-01T00:60:00", "2021-01-01T00:00:61",
    "2021-01-01T00:00:60", "2021-02-29T00:00:00", "2020-02-29T23:59:59",
    "2100-02-29T00:00:00", "2000-02-29T00:00:00", "2021-04-31T00:00:00",
    "2021-01-00T00:00:00", "2021-00-10T00:00:00", "0000-01-01T00:00:00",
    "1969-12-31T23:59:59", "9999-12-31T23:59:59",
]


def _stamp(second: int, shape: str) -> str:
    text = Epoch.from_unix(1_600_000_000.0 + second).isoformat()
    if shape == "Z":
        return text + "Z"
    if shape == "space":
        return text.replace("T", " ")
    if shape == "fraction":
        return text + ".25"
    if shape == "minutes":
        return text[:16]
    if shape == "date":
        return text[:10]
    return text


@st.composite
def series_csvs(draw):
    rows = ["timestamp,dst_nt"]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(
            st.sampled_from(
                ["row"] * 6
                + ["edge", "blank", "no comma", "bad stamp", "bad month", "bad value"]
            )
        )
        # Whole hours repeat and come out of order; any second of them
        # exercises the minute and second terms of the day fraction.
        second = 3600 * draw(st.integers(0, 40)) + draw(
            st.sampled_from([0, 0, 0, 59]) | st.integers(0, 3599)
        )
        cell = draw(
            st.sampled_from(["", "-12.5", "3", "nan", "1_0", " 7", "-0.0"])
            | st.floats(-500, 50, allow_nan=False).map(repr)
        )
        shape = draw(
            st.sampled_from(["writer"] * 4 + ["Z", "space", "fraction", "minutes", "date"])
        )
        stamp = _stamp(second, shape)
        if kind == "edge":
            rows.append(f"{draw(st.sampled_from(EDGE_STAMPS))},{cell}")
        elif kind == "blank":
            rows.append(draw(st.sampled_from(["", "   "])))
        elif kind == "no comma":
            rows.append(stamp)
        elif kind == "bad stamp":
            rows.append(f"{stamp[:-1]}x,{cell}")
        elif kind == "bad month":
            rows.append(f"2021-13{stamp[7:]},{cell}")
        elif kind == "bad value":
            rows.append(f"{stamp},abc")
        else:
            rows.append(draw(st.sampled_from(["", " "])) + f"{stamp},{cell}")
    return "\n".join(rows) + draw(st.sampled_from(["", "\n"]))


def series_bits(result):
    if isinstance(result, tuple):
        return result
    return result.times.tobytes(), result.values.tobytes()


class TestReadSeriesCsv:
    @given(series_csvs(), st.sampled_from([1, 2, 5, 8192]))
    @settings(max_examples=250)
    def test_matches_row_by_row_reader(self, text, block_lines):
        # Small blocks put bad rows and other stamps in later blocks.
        with mock.patch.object(csvio, "_BLOCK_LINES", block_lines):
            fast = outcome(read_series_csv, text)
        slow = outcome(reference.read_series_csv, text)
        assert series_bits(fast) == series_bits(slow)

    @pytest.mark.parametrize("stamp", EDGE_STAMPS)
    def test_edge_stamps(self, stamp):
        text = f"timestamp,v\n2021-01-01T00:00:00,1\n{stamp},2\n"
        fast = outcome(read_series_csv, text)
        assert series_bits(fast) == series_bits(outcome(reference.read_series_csv, text))

    def test_every_second_of_a_day(self):
        start = Epoch.from_calendar(2024, 2, 29).unix
        stamps = [Epoch.from_unix(start + s).isoformat() for s in range(86400)]
        text = "timestamp,v\n" + "".join(f"{stamp},{i}\n" for i, stamp in enumerate(stamps))
        fast = read_series_csv(text)
        assert series_bits(fast) == series_bits(reference.read_series_csv(text))

    def test_bad_row_keeps_its_line_number(self):
        text = "timestamp,v\n2020-01-01T00:00:00,1\n\n2020-01-01T01:00:00,x\n"
        assert outcome(read_series_csv, text) == (
            "TimeSeriesError", "bad value at line 4: 'x'"
        )

    def test_first_bad_row_wins(self):
        text = "timestamp,v\n2020-01-01T00:00:00Z,1\nno comma\n2020-02-30T00:00:00,1\n"
        assert outcome(read_series_csv, text) == outcome(reference.read_series_csv, text)
        assert outcome(read_series_csv, text)[1].startswith("bad CSV row at line 3")


# --- Dst append --------------------------------------------------------------
class TestDstAppend:
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True),
        st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True),
        st.integers(-40, 40),
        st.sampled_from([0.0, 0.5, 1800.0, 3599.5]),
    )
    def test_matches_full_validation(self, a_hours, b_hours, shift_h, dust_s):
        a = TimeSeries(np.sort(np.array(a_hours, dtype=float)) * 3600.0, np.ones(len(a_hours)))
        b_times = np.sort(np.array(b_hours, dtype=float)) * 3600.0 + shift_h * 3600.0 + dust_s
        b = TimeSeries(b_times, np.zeros(len(b_hours)))
        first = DstIndex(a)
        try:
            block = DstIndex(b)
        except SpaceWeatherError:
            return  # a bad block is refused before any merge
        fast = outcome(first.merge, block)
        slow = outcome(lambda: DstIndex(merge_series(a, b)))
        if isinstance(slow, tuple):
            assert fast == slow
        else:
            assert series_bits(fast.series) == series_bits(slow.series)

    def test_off_grid_junction_is_refused(self):
        a = DstIndex.from_hourly(Epoch.from_unix(0.0), [1.0, 2.0])
        b = DstIndex.from_hourly(Epoch.from_unix(3 * 3600.0 + 900.0), [3.0])
        with pytest.raises(SpaceWeatherError, match="hourly grid"):
            a.merge(b)
