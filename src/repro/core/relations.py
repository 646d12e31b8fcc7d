"""Happens-closely-after relations between solar and trajectory events.

This module is the paper's central device: it never claims causality —
space systems have too many unknowns — but extracts temporally ordered
pairs (solar event A, trajectory change B) with B starting within a
bounded window after A, i.e. *B happens closely after A*.

Trajectory events come in two kinds, matching the only orbital
elements the paper found responsive to storms:

* **drag spike** — the fitted B* rises well above its rolling baseline;
* **decay onset** — the altitude starts dropping below the satellite's
  long-term median beyond the already-decaying threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.cleaning import CleanedHistory
from repro.core.config import CosmicDanceConfig
from repro.core.decay import long_term_median_altitude
from repro.spaceweather.storms import StormEpisode
from repro.time import Epoch


class TrajectoryEventKind(enum.Enum):
    """Kind of satellite trajectory change."""

    DRAG_SPIKE = "drag-spike"
    DECAY_ONSET = "decay-onset"


@dataclass(frozen=True, slots=True)
class TrajectoryEvent:
    """One detected trajectory change of one satellite."""

    catalog_number: int
    kind: TrajectoryEventKind
    epoch: Epoch
    #: Magnitude: B* ratio over baseline for drag spikes; altitude
    #: deficit below the long-term median [km] for decay onsets.
    magnitude: float


@dataclass(frozen=True, slots=True)
class Association:
    """A trajectory event happening closely after a storm episode."""

    episode: StormEpisode
    event: TrajectoryEvent
    #: Hours from episode start to the trajectory event.
    lag_hours: float


#: Upper bound on the elements of one block of trailing windows in
#: :func:`trailing_median` (2 MB of float64), whatever the history length.
_WINDOW_BLOCK_ELEMENTS = 1 << 18


def trailing_median(
    times: np.ndarray, values: np.ndarray, window_s: float
) -> np.ndarray:
    """Median of *values* over each trailing window ``[t - window_s, t]``.

    Index ``i`` covers ``values[lo:i + 1]`` with ``lo`` the first index
    whose time is not before ``times[i] - window_s`` (``searchsorted``,
    ``side="left"``), and equals ``np.median`` of that slice exactly: a
    window holding a NaN gives NaN.  Windows are padded to a common
    width, sorted and indexed in blocks of rows of at most
    :data:`_WINDOW_BLOCK_ELEMENTS` elements each.
    """
    n = len(values)
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    rows = np.arange(n)
    lo = np.searchsorted(times, times - window_s, side="left")
    sizes = rows + 1 - lo
    nan_before = np.concatenate(([0], np.cumsum(np.isnan(values))))
    has_nan = nan_before[rows + 1] > nan_before[lo]
    width = int(sizes.max())
    block = max(1, _WINDOW_BLOCK_ELEMENTS // width)
    offsets = np.arange(width)
    for start in range(0, n, block):
        stop = min(start + block, n)
        index = lo[start:stop, None] + offsets
        # Padding past the row's own index sorts after every real value.
        windows = np.where(
            index <= rows[start:stop, None],
            values[np.minimum(index, n - 1)],
            np.inf,
        )
        windows.sort(axis=1)
        size = sizes[start:stop]
        block_rows = np.arange(stop - start)
        lower = windows[block_rows, (size - 1) // 2]
        upper = windows[block_rows, size // 2]
        out[start:stop] = np.where(size % 2, upper, (lower + upper) / 2.0)
    out[has_nan] = np.nan
    return out


def detect_drag_spikes(
    cleaned: CleanedHistory,
    config: CosmicDanceConfig | None = None,
) -> list[TrajectoryEvent]:
    """B* excursions above the rolling baseline.

    The baseline is a trailing median over ``drag_baseline_days``; a
    spike event is emitted at the first record of each excursion run
    exceeding ``drag_spike_factor`` times the baseline.  Records with a
    non-positive baseline neither start nor end a run; a NaN baseline
    ends one.
    """
    config = config or CosmicDanceConfig()
    elements = cleaned.elements
    if len(elements) < 3:
        return []
    times = np.array([e.epoch.unix for e in elements])
    bstars = np.array([e.bstar for e in elements])
    baseline = trailing_median(times, bstars, config.drag_baseline_days * 86400.0)

    counted = np.flatnonzero(~(baseline <= 0))
    ratios = bstars[counted] / baseline[counted]
    over = ratios >= config.drag_spike_factor
    starts = over & ~np.concatenate(([False], over[:-1]))
    return [
        TrajectoryEvent(
            catalog_number=cleaned.catalog_number,
            kind=TrajectoryEventKind.DRAG_SPIKE,
            epoch=elements[i].epoch,
            magnitude=float(ratio),
        )
        for i, ratio in zip(counted[starts].tolist(), ratios[starts].tolist())
    ]


def detect_decay_onsets(
    cleaned: CleanedHistory,
    config: CosmicDanceConfig | None = None,
    *,
    min_consecutive: int = 3,
) -> list[TrajectoryEvent]:
    """Onsets of sustained altitude loss below the long-term median.

    A decay onset is the first record of a run of at least
    *min_consecutive* records sitting more than the already-decaying
    threshold below the satellite's long-term median — one TLE alone
    can be noise; a sustained run is a trajectory change.
    """
    config = config or CosmicDanceConfig()
    elements = cleaned.elements
    if len(elements) < min_consecutive:
        return []
    median = long_term_median_altitude(cleaned)
    deficits = np.array([median - e.altitude_km for e in elements])
    below = deficits > config.already_decaying_threshold_km

    events: list[TrajectoryEvent] = []
    i = 0
    n = len(elements)
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j < n and below[j]:
            j += 1
        if j - i >= min_consecutive:
            events.append(
                TrajectoryEvent(
                    catalog_number=cleaned.catalog_number,
                    kind=TrajectoryEventKind.DECAY_ONSET,
                    epoch=elements[i].epoch,
                    magnitude=float(deficits[i:j].max()),
                )
            )
        i = j
    return events


def associate(
    episodes: list[StormEpisode],
    events: list[TrajectoryEvent],
    config: CosmicDanceConfig | None = None,
) -> list[Association]:
    """Pair trajectory events with the storm they closely follow.

    An event is associated with an episode when it occurs between the
    episode's start and ``association_window_hours`` after its end.
    When several episodes qualify, the most recent one (smallest lag)
    wins — the conservative choice for a happens-closely-after claim.
    """
    config = config or CosmicDanceConfig()
    window_h = config.association_window_hours
    ordered = sorted(episodes, key=lambda e: e.start.unix)
    associations: list[Association] = []
    for event in events:
        best: Association | None = None
        for episode in ordered:
            if episode.start.unix > event.epoch.unix:
                break
            lag_h = event.epoch.hours_since(episode.start)
            lag_after_end_h = event.epoch.hours_since(episode.end)
            if lag_after_end_h <= window_h:
                candidate = Association(episode=episode, event=event, lag_hours=lag_h)
                if best is None or candidate.lag_hours < best.lag_hours:
                    best = candidate
        if best is not None:
            associations.append(best)
    return associations
