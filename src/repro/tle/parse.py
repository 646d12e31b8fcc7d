"""TLE parsing.

``parse_tle`` is strict: exact column layout, verified checksums,
physical field domains.  ``parse_tle_file`` is the lenient bulk path
the ingest layer uses on real-world dumps: it skips name lines, tracks
malformed records, and never aborts the whole file because of one bad
entry (the paper's dataset contains gross tracking errors by design).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import ReproError, TLEChecksumError, TLEFieldError, TLEFormatError
from repro.time import Epoch, calendar_to_jd, days_in_year
from repro.time.epoch import tle_full_year
from repro.tle.elements import MeanElements
from repro.tle.fields import (
    TLE_LINE_LENGTH,
    catalog_columns,
    checksums,
    decimal_columns,
    decode_alpha5,
    implied_decimal_columns,
    int_columns,
    parse_assumed_point_fraction,
    parse_implied_decimal,
    verify_checksum,
)


def _float_field(text: str, description: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise TLEFieldError(f"bad {description}: {text!r}") from exc


def _int_field(text: str, description: str) -> int:
    text = text.strip()
    if not text:
        return 0
    try:
        return int(text)
    except ValueError as exc:
        raise TLEFieldError(f"bad {description}: {text!r}") from exc


def _parse_ndot(text: str) -> float:
    """First derivative field: a signed fraction like ``-.00002182``."""
    text = text.strip()
    if not text:
        return 0.0
    sign = 1.0
    if text[0] in "+-":
        if text[0] == "-":
            sign = -1.0
        text = text[1:]
    if text.startswith("."):
        text = "0" + text
    return sign * _float_field(text, "mean motion first derivative")


def parse_tle(line1: str, line2: str, *, verify: bool = True) -> MeanElements:
    """Parse one TLE (two 69-column lines) into :class:`MeanElements`.

    With ``verify=True`` (default) both checksums must match, matching
    CSpOC distribution rules; disable only for synthetic test vectors.
    """
    line1 = line1.rstrip("\n")
    line2 = line2.rstrip("\n")
    if len(line1) < TLE_LINE_LENGTH:
        raise TLEFormatError(f"line 1 too short ({len(line1)} cols)")
    if len(line2) < TLE_LINE_LENGTH:
        raise TLEFormatError(f"line 2 too short ({len(line2)} cols)")
    if line1[0] != "1":
        raise TLEFormatError(f"line 1 must start with '1': {line1[:8]!r}")
    if line2[0] != "2":
        raise TLEFormatError(f"line 2 must start with '2': {line2[:8]!r}")
    if verify:
        if not verify_checksum(line1):
            raise TLEChecksumError(f"line 1 checksum mismatch: {line1!r}")
        if not verify_checksum(line2):
            raise TLEChecksumError(f"line 2 checksum mismatch: {line2!r}")

    catalog1 = decode_alpha5(line1[2:7])
    catalog2 = decode_alpha5(line2[2:7])
    if catalog1 != catalog2:
        raise TLEFormatError(
            f"catalog number mismatch between lines: {catalog1} vs {catalog2}"
        )

    epoch_year = _int_field(line1[18:20], "epoch year")
    epoch_day = _float_field(line1[20:32], "epoch day")

    return MeanElements(
        catalog_number=catalog1,
        classification=line1[7],
        intl_designator=line1[9:17].strip(),
        epoch=Epoch.from_tle_epoch(epoch_year, epoch_day),
        ndot_over_2=_parse_ndot(line1[33:43]),
        nddot_over_6=parse_implied_decimal(line1[44:52]),
        bstar=parse_implied_decimal(line1[53:61]),
        ephemeris_type=_int_field(line1[62:63], "ephemeris type"),
        element_number=_int_field(line1[64:68], "element number"),
        inclination_deg=_float_field(line2[8:16], "inclination"),
        raan_deg=_float_field(line2[17:25], "RAAN"),
        eccentricity=parse_assumed_point_fraction(line2[26:33]),
        argp_deg=_float_field(line2[34:42], "argument of perigee"),
        mean_anomaly_deg=_float_field(line2[43:51], "mean anomaly"),
        mean_motion_rev_day=_float_field(line2[52:63], "mean motion"),
        rev_number=_int_field(line2[63:68], "revolution number"),
    )


@dataclass(slots=True)
class ParseReport:
    """Outcome of a lenient bulk parse."""

    elements: list[MeanElements] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def parsed_count(self) -> int:
        return len(self.elements)

    @property
    def error_count(self) -> int:
        return len(self.errors)


def parse_tle_file(lines: Iterable[str], *, verify: bool = True) -> ParseReport:
    """Leniently parse a TLE dump (optionally with satellite name lines).

    Any record that fails to parse is recorded in ``report.errors`` with
    its line number; parsing continues with the next record.

    Lines are paired first; the paired records are then decoded as
    columns (:func:`_decode_columns`), and every record the column pass
    cannot prove well-formed goes through :func:`parse_tle`, so errors
    keep their text, line number and order.
    """
    #: Line number, line 1 and line 2 of each paired record.
    numbers: list[int] = []
    line1s: list[str] = []
    line2s: list[str] = []
    #: Pairing errors and paired records (as indexes into the lists
    #: above), in the order the per-record loop reported them.
    events: list[tuple[int, str] | int] = []
    pending: tuple[int, str] | None = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        body = line.strip()
        if not body:
            continue
        lead = line[0]
        if lead == "1" and len(body) > 24:
            if pending is not None:
                # Two line 1s in a row: at least one line 2 went missing,
                # and a line 2 arriving later cannot be attributed to
                # either epoch safely (line 2 carries no epoch, so a
                # wrong pairing would silently fabricate a record).
                # Refuse to pair: enumerate BOTH orphans and resync.
                events.append(
                    (
                        pending[0],
                        "line 1 without matching line 2 "
                        f"(displaced by line 1 at line {line_number})",
                    )
                )
                events.append(
                    (
                        line_number,
                        "line 1 discarded: follows unpaired line 1 "
                        f"at line {pending[0]}",
                    )
                )
                pending = None
                continue
            pending = (line_number, line)
        elif lead == "2" and len(body) > 24:
            if pending is None:
                events.append((line_number, "line 2 without preceding line 1"))
                continue
            events.append(len(numbers))
            numbers.append(pending[0])
            line1s.append(pending[1])
            line2s.append(line)
            pending = None
        else:
            # Satellite name line (3LE format) or junk: skip.
            continue
    if pending is not None:
        events.append((pending[0], "line 1 without matching line 2"))

    # Blocks of records bound the memory the columns take.
    decoded: list[MeanElements | None] = []
    undecoded = 0
    for start in range(0, len(line1s), _BLOCK_RECORDS):
        stop = start + _BLOCK_RECORDS
        block, missing = _decode_columns(
            line1s[start:stop], line2s[start:stop], verify=verify
        )
        decoded += block
        undecoded += missing
    if not undecoded and len(events) == len(decoded):
        return ParseReport(elements=decoded)
    report = ParseReport()
    for event in events:
        if not isinstance(event, int):
            report.errors.append(event)
            continue
        elements = decoded[event]
        if elements is None:
            try:
                elements = parse_tle(line1s[event], line2s[event], verify=verify)
            except ReproError as exc:
                report.errors.append((numbers[event], str(exc)))
                continue
        report.elements.append(elements)
    return report


#: Records decoded as one block of columns.
_BLOCK_RECORDS = 1024

#: Below this many records the column pass's fixed cost (about 1 ms,
#: measured) exceeds parsing each record with ``parse_tle``.
_MIN_COLUMN_RECORDS = 32


@functools.lru_cache(maxsize=None)
def _year_start(two_digit_year: int) -> tuple[float, int]:
    """JD of 1 January 00:00 and the day count of a TLE epoch year."""
    year = tle_full_year(two_digit_year)
    return calendar_to_jd(year, 1, 1), days_in_year(year)


def _column_block(lines: list[str]) -> np.ndarray:
    """The first 69 columns of ASCII lines at least that long, as a
    ``(69, N)`` uint8 array: one row per text column, so each field
    step is a vector over the lines."""
    text = "".join([line[:TLE_LINE_LENGTH] for line in lines]).encode("ascii")
    return np.frombuffer(text, np.uint8).reshape(-1, TLE_LINE_LENGTH).T.copy()


def _decode_columns(
    line1s: list[str], line2s: list[str], *, verify: bool
) -> tuple[list[MeanElements | None], int]:
    """Decode paired records field by field over all records at once.

    Returns one entry per pair, and how many are None: the record, or
    None where a field is not in the plain shape the column decoders
    prove (short or non-ASCII lines, unexpected characters, alpha-5
    letters, implied-decimal text the formatter would not write, a bad
    checksum, an epoch day or element outside its domain).  The caller parses
    those with :func:`parse_tle`, which gives the value or the error.
    """
    decoded: list[MeanElements | None] = [None] * len(line1s)
    if len(line1s) < _MIN_COLUMN_RECORDS:
        return decoded, len(decoded)
    if (
        min(map(len, line1s)) >= TLE_LINE_LENGTH
        and min(map(len, line2s)) >= TLE_LINE_LENGTH
        and "".join(line1s).isascii()
        and "".join(line2s).isascii()
    ):
        rows = list(range(len(line1s)))
    else:
        rows = [
            index
            for index, (line1, line2) in enumerate(zip(line1s, line2s))
            if len(line1) >= TLE_LINE_LENGTH
            and len(line2) >= TLE_LINE_LENGTH
            and line1.isascii()
            and line2.isascii()
        ]
        if not rows:
            return decoded, len(decoded)
        line1s = [line1s[index] for index in rows]
        line2s = [line2s[index] for index in rows]
    l1 = _column_block(line1s)
    l2 = _column_block(line2s)

    ok = np.ones(len(rows), dtype=bool)
    if verify:
        for lines in (l1, l2):
            check_digit = lines[68].astype(np.int64) - ord("0")
            ok &= (check_digit >= 0) & (check_digit <= 9)
            ok &= checksums(lines) == check_digit

    def take(decode, lines, start, stop):
        nonlocal ok
        values, field_ok = decode(lines[start:stop])
        ok &= field_ok
        return values

    catalog = take(catalog_columns, l1, 2, 7)
    ok &= catalog == take(catalog_columns, l2, 2, 7)
    year = take(int_columns, l1, 18, 20)
    day = take(decimal_columns, l1, 20, 32)
    ndot = take(decimal_columns, l1, 33, 43)
    nddot = take(implied_decimal_columns, l1, 44, 52)
    bstar = take(implied_decimal_columns, l1, 53, 61)
    ephemeris_type = take(int_columns, l1, 62, 63)
    element_number = take(int_columns, l1, 64, 68)
    inclination = take(decimal_columns, l2, 8, 16)
    raan = take(decimal_columns, l2, 17, 25)
    # Eccentricity: exactly seven digits after an assumed "0.".
    eccentricity = take(int_columns, l2, 26, 33) / 10**7
    ok &= (l2[26:33] != ord(" ")).all(axis=0)
    argp = take(decimal_columns, l2, 34, 42)
    mean_anomaly = take(decimal_columns, l2, 43, 51)
    mean_motion = take(decimal_columns, l2, 52, 63)
    rev_number = take(int_columns, l2, 63, 68)

    # Epoch: 1 January of the year plus the day of year, as in
    # Epoch.from_tle_epoch; a day outside the year is left to it.
    years, year_index = np.unique(np.where(ok, year, 0), return_inverse=True)
    starts = [_year_start(y) for y in years.tolist()]
    jan1 = np.array([jd for jd, _ in starts])[year_index]
    year_days = np.array([days for _, days in starts])[year_index]
    ok &= (day >= 1.0) & (day < year_days + 1)
    jd = jan1 + (day - 1.0)
    # Element domains checked by MeanElements, left to its own error.
    ok &= (
        (eccentricity < 1.0)
        & (inclination >= 0.0)
        & (inclination <= 180.0)
        & (mean_motion > 0.0)
    )

    good = np.flatnonzero(ok)
    columns = [
        column[good].tolist()
        for column in (
            catalog, jd, ndot, nddot, bstar, ephemeris_type, element_number,
            inclination, raan, eccentricity, argp, mean_anomaly, mean_motion,
            rev_number,
        )
    ]
    good = good.tolist()
    # Positional arguments in MeanElements' field order: keyword calls
    # cost a third more per record, and building the records is most
    # of this function's time.
    records = [
        MeanElements(
            catalog_number,
            Epoch(jd),
            inclination,
            raan,
            eccentricity,
            argp,
            mean_anomaly,
            mean_motion,
            bstar,
            ndot,
            nddot,
            line1[7],  # classification
            line1[9:17].strip(),  # international designator
            element_number,
            rev_number,
            ephemeris_type,
        )
        for (
            line1, catalog_number, jd, ndot, nddot, bstar, ephemeris_type,
            element_number, inclination, raan, eccentricity, argp, mean_anomaly,
            mean_motion, rev_number,
        ) in zip([line1s[row] for row in good], *columns)
    ]
    if len(records) == len(decoded):
        return records, 0
    for row, elements in zip(good, records):
        decoded[rows[row]] = elements
    return decoded, len(decoded) - len(records)
