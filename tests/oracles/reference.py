"""The scalar kernels, kept verbatim as oracles."""

from __future__ import annotations

import hashlib
import io
from typing import Iterable, TextIO

import numpy as np

from repro.core.cleaning import CleanedHistory
from repro.core.config import CosmicDanceConfig
from repro.core.relations import TrajectoryEvent, TrajectoryEventKind
from repro.errors import ReproError, TimeSeriesError
from repro.time import Epoch
from repro.timeseries import TimeSeries
from repro.tle.parse import ParseReport, parse_tle


def trailing_median(
    times: np.ndarray, values: np.ndarray, window_s: float
) -> np.ndarray:
    """One ``np.median`` call per record over its trailing window."""
    out = np.empty(len(values), dtype=np.float64)
    for i in range(len(values)):
        lo = int(np.searchsorted(times, times[i] - window_s, side="left"))
        out[i] = float(np.median(values[lo : i + 1]))
    return out


def detect_drag_spikes(
    cleaned: CleanedHistory,
    config: CosmicDanceConfig | None = None,
) -> list[TrajectoryEvent]:
    """The per-record drag-spike loop."""
    config = config or CosmicDanceConfig()
    elements = cleaned.elements
    if len(elements) < 3:
        return []
    times = np.array([e.epoch.unix for e in elements])
    bstars = np.array([e.bstar for e in elements])
    window_s = config.drag_baseline_days * 86400.0

    events: list[TrajectoryEvent] = []
    in_spike = False
    for i in range(len(elements)):
        lo = int(np.searchsorted(times, times[i] - window_s, side="left"))
        baseline_window = bstars[lo : i + 1]
        baseline = float(np.median(baseline_window))
        if baseline <= 0:
            continue
        ratio = bstars[i] / baseline
        if ratio >= config.drag_spike_factor:
            if not in_spike:
                events.append(
                    TrajectoryEvent(
                        catalog_number=cleaned.catalog_number,
                        kind=TrajectoryEventKind.DRAG_SPIKE,
                        epoch=elements[i].epoch,
                        magnitude=float(ratio),
                    )
                )
                in_spike = True
        else:
            in_spike = False
    return events


def result_digest(result) -> str:
    """The whole-text result digest: every part ``repr``'d in one piece."""
    digest = hashlib.sha256()
    for part in (
        repr(result.storm_episodes),
        repr(result.trajectory_events),
        repr(result.associations),
        repr(sorted(result.decay_assessments.items())),
        repr(sorted(result.cleaned.items())),
        repr(result.cleaning_report),
        repr(result.event_threshold_nt),
        result.health.ledger_text(),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def merge_series(a: TimeSeries, b: TimeSeries) -> TimeSeries:
    """Dict union of two series; *b* wins where both have a sample."""
    combined: dict[float, float] = dict(zip(a.times.tolist(), a.values.tolist()))
    combined.update(zip(b.times.tolist(), b.values.tolist()))
    if not combined:
        return TimeSeries.empty()
    times = np.array(sorted(combined), dtype=np.float64)
    values = np.array([combined[t] for t in times], dtype=np.float64)
    return TimeSeries(times, values)


def checksum(line: str) -> int:
    """The per-character checksum loop."""
    total = 0
    for char in line[:68]:
        if char.isdigit():
            total += int(char)
        elif char == "-":
            total += 1
    return total % 10


def parse_tle_file(lines: Iterable[str], *, verify: bool = True) -> ParseReport:
    """The per-record lenient parse: every pair through ``parse_tle``."""
    report = ParseReport()
    pending: tuple[int, str] | None = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        lead = line[0]
        if lead == "1" and len(line.strip()) > 24:
            if pending is not None:
                report.errors.append(
                    (
                        pending[0],
                        "line 1 without matching line 2 "
                        f"(displaced by line 1 at line {line_number})",
                    )
                )
                report.errors.append(
                    (
                        line_number,
                        "line 1 discarded: follows unpaired line 1 "
                        f"at line {pending[0]}",
                    )
                )
                pending = None
                continue
            pending = (line_number, line)
        elif lead == "2" and len(line.strip()) > 24:
            if pending is None:
                report.errors.append((line_number, "line 2 without preceding line 1"))
                continue
            try:
                report.elements.append(parse_tle(pending[1], line, verify=verify))
            except ReproError as exc:
                report.errors.append((pending[0], str(exc)))
            pending = None
        else:
            continue
    if pending is not None:
        report.errors.append((pending[0], "line 1 without matching line 2"))
    return report


def read_series_csv(source: TextIO | str) -> TimeSeries:
    """The row-by-row series CSV reader: ``Epoch.from_iso`` per stamp."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    header = stream.readline()
    if not header.startswith("timestamp,"):
        raise TimeSeriesError(f"not a series CSV (header {header!r})")
    times: list[float] = []
    values: list[float] = []
    for line_number, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            stamp, cell = line.split(",", 1)
        except ValueError as exc:
            raise TimeSeriesError(f"bad CSV row at line {line_number}: {line!r}") from exc
        times.append(Epoch.from_iso(stamp).unix)
        if cell == "":
            values.append(float("nan"))
        else:
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise TimeSeriesError(
                    f"bad value at line {line_number}: {cell!r}"
                ) from exc
    return TimeSeries.from_pairs(zip(times, values))
