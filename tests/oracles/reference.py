"""The scalar kernels, kept verbatim as oracles."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.cleaning import CleanedHistory
from repro.core.config import CosmicDanceConfig
from repro.core.relations import TrajectoryEvent, TrajectoryEventKind
from repro.timeseries import TimeSeries


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
