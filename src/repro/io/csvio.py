"""CSV codecs for time series and Dst blocks.

The format is deliberately minimal and self-describing: a header line,
ISO-8601 timestamps, and plain decimal values with empty cells for
missing samples — loadable by spreadsheet tools and by this module.
"""

from __future__ import annotations

import io
import itertools
import math
from typing import TextIO

import numpy as np

from repro.errors import TimeSeriesError
from repro.spaceweather.dst import DstIndex
from repro.time import Epoch
from repro.time.julian import calendar_to_jd_columns, jd_to_unix
from repro.timeseries import TimeSeries

_NAN = float("nan")


def write_series_csv(series: TimeSeries, out: TextIO, *, value_name: str = "value") -> None:
    """Write a series as ``timestamp,<value_name>`` rows."""
    out.write(f"timestamp,{value_name}\n")
    for t, v in series:
        cell = "" if not math.isfinite(v) else repr(v)
        out.write(f"{Epoch.from_unix(t).isoformat()},{cell}\n")


def read_series_csv(source: TextIO | str) -> TimeSeries:
    """Read a series written by :func:`write_series_csv`.

    Rows stamped ``YYYY-MM-DDTHH:MM:SS`` (as the writer stamps them) are
    timed as integer columns; any other stamp goes through
    :meth:`Epoch.from_iso`.  A bad row raises as it is reached, with its
    line number, and rows sharing a stamp keep the last value.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    header = stream.readline()
    if not header.startswith("timestamp,"):
        raise TimeSeriesError(f"not a series CSV (header {header!r})")
    # Blocks of lines bound the memory the columns take.
    times_blocks: list[np.ndarray] = []
    value_blocks: list[np.ndarray] = []
    first_line_number = 2  # after the header, counting from 1
    while lines := [line.strip() for line in itertools.islice(stream, _BLOCK_LINES)]:
        times, stamped = _writer_stamp_times(lines)
        values = _cells(lines) if stamped.all() else None
        if values is None:
            times, values = _read_rows(lines, first_line_number, times, stamped)
        times_blocks.append(times)
        value_blocks.append(np.array(values, dtype=np.float64))
        first_line_number += len(lines)
    if not times_blocks:
        return TimeSeries.empty()
    times = np.concatenate(times_blocks)
    values = np.concatenate(value_blocks)
    if len(times) > 1 and (np.diff(times) > 0).all():
        return TimeSeries(times, values)
    return TimeSeries.from_pairs(zip(times.tolist(), values.tolist()))


#: Lines decoded as one block of columns.
_BLOCK_LINES = 8192

#: The writer's stamp and the comma after it.
_STAMP_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00,", dtype=np.uint8)
_STAMP_DIGITS = np.flatnonzero(_STAMP_TEMPLATE == ord("0"))
_CELL_START = len(_STAMP_TEMPLATE)


def _writer_stamp_times(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Unix times of the lines stamped as the writer stamps them, and the
    mask of those lines (the times of other lines are meaningless)."""
    width = _CELL_START
    # "replace" keeps one byte per character; '?' fails the template.
    text = "".join([line[:width].ljust(width) for line in lines])
    block = np.frombuffer(text.encode("ascii", "replace"), np.uint8).reshape(-1, width)
    digits = block[:, _STAMP_DIGITS] - np.uint8(ord("0"))  # wraps below '0'
    stamped = (digits < 10).all(axis=1) & (block == _STAMP_TEMPLATE)[
        :, _STAMP_TEMPLATE != ord("0")
    ].all(axis=1)
    year, month, day, hour, minute, second = (
        digits[:, start : start + size].astype(np.int64)
        @ 10 ** np.arange(size - 1, -1, -1)
        for start, size in ((0, 4), (4, 2), (6, 2), (8, 2), (10, 2), (12, 2))
    )
    jd, valid = calendar_to_jd_columns(year, month, day, hour, minute, second)
    return jd_to_unix(jd), stamped & valid


def _cells(lines: list[str]) -> list[float] | None:
    """Every line's value after a writer stamp, or None if one is bad."""
    try:
        return [
            float(line[_CELL_START:]) if len(line) > _CELL_START else _NAN
            for line in lines
        ]
    except ValueError:
        return None


def _read_rows(
    lines: list[str], first_line_number: int, times: np.ndarray, stamped: np.ndarray
) -> tuple[np.ndarray, list[float]]:
    """Row by row: skip blank lines, time the other stamps with
    ``Epoch.from_iso`` and raise at the first bad row."""
    kept: list[int] = []
    values: list[float] = []
    for index, (line, fast) in enumerate(zip(lines, stamped.tolist())):
        if not line:
            continue
        line_number = first_line_number + index
        if fast:
            cell = line[_CELL_START:]
        else:
            try:
                stamp, cell = line.split(",", 1)
            except ValueError as exc:
                raise TimeSeriesError(
                    f"bad CSV row at line {line_number}: {line!r}"
                ) from exc
            times[index] = Epoch.from_iso(stamp).unix
        values.append(_cell_value(cell, line_number))
        kept.append(index)
    return times[kept], values


def _cell_value(cell: str, line_number: int) -> float:
    if cell == "":
        return _NAN
    try:
        return float(cell)
    except ValueError as exc:
        raise TimeSeriesError(f"bad value at line {line_number}: {cell!r}") from exc


def write_dst_csv(dst: DstIndex, out: TextIO) -> None:
    """Write a Dst index as ``timestamp,dst_nt`` rows."""
    write_series_csv(dst.series, out, value_name="dst_nt")


def read_dst_csv(source: TextIO | str) -> DstIndex:
    """Read a Dst index written by :func:`write_dst_csv`."""
    return DstIndex(read_series_csv(source))
