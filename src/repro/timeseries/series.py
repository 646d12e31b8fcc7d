"""The :class:`TimeSeries` container.

A ``TimeSeries`` is a pair of equally long numpy arrays: Unix timestamps
(float seconds, strictly increasing) and values (float, NaN allowed for
gaps).  It is immutable by convention — every operation returns a new
series — which keeps the pipeline stages composable and easy to test.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TimeSeriesError
from repro.time import Epoch


class _AppendBuffer:
    """Arrays with room past their end, shared by series built by
    appending (see :meth:`TimeSeries._append`)."""

    __slots__ = ("times", "values", "extended")

    def __init__(self, capacity: int) -> None:
        self.times = np.empty(capacity, dtype=np.float64)
        self.values = np.empty(capacity, dtype=np.float64)
        #: Lengths some series on this buffer was already extended from
        #: (claimed with the atomic ``dict.setdefault``).
        self.extended: dict[int, object] = {}


class TimeSeries:
    """An ordered, NaN-aware scalar time series."""

    __slots__ = ("_times", "_values", "_buffer")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        *,
        _trusted: bool = False,
    ) -> None:
        """Build a series from Unix-second timestamps and values.

        Timestamps must be strictly increasing.  Pass ``_trusted=True``
        only from internal call sites that already guarantee the
        invariants (skips validation and copying).
        """
        self._buffer: _AppendBuffer | None = None
        if _trusted:
            self._times = times  # type: ignore[assignment]
            self._values = values  # type: ignore[assignment]
            return
        t = np.asarray(times, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1:
            raise TimeSeriesError("times and values must be one-dimensional")
        if t.shape != v.shape:
            raise TimeSeriesError(
                f"length mismatch: {t.shape[0]} times vs {v.shape[0]} values"
            )
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise TimeSeriesError("timestamps must be strictly increasing")
        if t.size and not np.all(np.isfinite(t)):
            raise TimeSeriesError("timestamps must be finite")
        t = t.copy()
        v = v.copy()
        t.setflags(write=False)
        v.setflags(write=False)
        self._times = t
        self._values = v

    # --- construction helpers ---------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "TimeSeries":
        """Build from an iterable of ``(unix_time, value)`` pairs.

        Pairs are sorted by time; duplicate timestamps keep the last
        value (matching how refreshed TLE records supersede old ones).
        """
        items = sorted(pairs, key=lambda p: p[0])
        deduped: dict[float, float] = {}
        for t, v in items:
            deduped[t] = v
        if not deduped:
            return cls.empty()
        times = np.fromiter(deduped.keys(), dtype=np.float64)
        values = np.fromiter(deduped.values(), dtype=np.float64)
        order = np.argsort(times, kind="stable")
        return cls(times[order], values[order])

    @classmethod
    def from_epochs(cls, epochs: Sequence[Epoch], values: Sequence[float]) -> "TimeSeries":
        """Build from :class:`Epoch` instants."""
        return cls([e.unix for e in epochs], values)

    @classmethod
    def empty(cls) -> "TimeSeries":
        """An empty series."""
        t = np.empty(0, dtype=np.float64)
        v = np.empty(0, dtype=np.float64)
        t.setflags(write=False)
        v.setflags(write=False)
        return cls(t, v, _trusted=True)

    @classmethod
    def _wrap(cls, times: np.ndarray, values: np.ndarray) -> "TimeSeries":
        """Internal: wrap arrays that already satisfy the invariants."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        times.setflags(write=False)
        values.setflags(write=False)
        return cls(times, values, _trusted=True)

    def _append(self, other: "TimeSeries") -> "TimeSeries":
        """Internal: this series followed by *other*, which must start
        after this one ends.

        The result views a buffer with spare room, and appending to the
        result writes into that room instead of copying the whole
        series, so a series grown block by block costs amortised
        O(block) per append.  A buffer is extended only from the end of
        the longest series on it: appending twice to the same series
        copies the second time, so no series ever sees its samples
        change.
        """
        length, total = len(self), len(self) + len(other)
        buffer = self._buffer
        claim = object()
        if (
            buffer is None
            or total > len(buffer.times)
            or buffer.extended.setdefault(length, claim) is not claim
        ):
            buffer = _AppendBuffer(max(2 * total, 1024))
            buffer.times[:length] = self._times
            buffer.values[:length] = self._values
        buffer.times[length:total] = other._times
        buffer.values[length:total] = other._values
        series = TimeSeries._wrap(buffer.times[:total], buffer.values[:total])
        series._buffer = buffer
        return series

    # --- basic protocol -----------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Read-only array of Unix timestamps [s]."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """Read-only array of values."""
        return self._values

    def __len__(self) -> int:
        return int(self._times.size)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self._times.tolist(), self._values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self._times, other._times) and np.array_equal(
            self._values, other._values, equal_nan=True
        )

    def __hash__(self) -> int:  # immutable by convention, but arrays aren't hashable
        return id(self)

    def __repr__(self) -> str:
        if not len(self):
            return "TimeSeries(empty)"
        start = Epoch.from_unix(float(self._times[0])).isoformat()
        end = Epoch.from_unix(float(self._times[-1])).isoformat()
        return f"TimeSeries({len(self)} points, {start} .. {end})"

    # --- accessors -------------------------------------------------------------
    @property
    def start(self) -> Epoch:
        """Epoch of the first sample."""
        self._require_nonempty()
        return Epoch.from_unix(float(self._times[0]))

    @property
    def end(self) -> Epoch:
        """Epoch of the last sample."""
        self._require_nonempty()
        return Epoch.from_unix(float(self._times[-1]))

    def value_at(self, when: Epoch | float, *, max_age_s: float | None = None) -> float:
        """Most recent value at/before *when* (step interpolation).

        Returns NaN when no sample exists before *when* or when the most
        recent sample is older than *max_age_s* seconds.
        """
        t = when.unix if isinstance(when, Epoch) else float(when)
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        if idx < 0:
            return float("nan")
        if max_age_s is not None and t - self._times[idx] > max_age_s:
            return float("nan")
        return float(self._values[idx])

    def interp_at(self, when: Epoch | float) -> float:
        """Linearly interpolated value at *when* (NaN outside the span)."""
        self._require_nonempty()
        t = when.unix if isinstance(when, Epoch) else float(when)
        if t < self._times[0] or t > self._times[-1]:
            return float("nan")
        return float(np.interp(t, self._times, self._values))

    # --- transformations ----------------------------------------------------
    def slice(self, start: Epoch | float | None = None, end: Epoch | float | None = None) -> "TimeSeries":
        """Sub-series with ``start <= t < end`` (half-open window)."""
        t0 = -np.inf if start is None else (start.unix if isinstance(start, Epoch) else float(start))
        t1 = np.inf if end is None else (end.unix if isinstance(end, Epoch) else float(end))
        lo = int(np.searchsorted(self._times, t0, side="left"))
        hi = int(np.searchsorted(self._times, t1, side="left"))
        return TimeSeries._wrap(self._times[lo:hi], self._values[lo:hi])

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "TimeSeries":
        """Apply a vectorized function to the values."""
        new_values = np.asarray(fn(self._values.copy()), dtype=np.float64)
        if new_values.shape != self._values.shape:
            raise TimeSeriesError("map function changed the series length")
        return TimeSeries._wrap(self._times, new_values)

    def shift(self, seconds: float) -> "TimeSeries":
        """Shift all timestamps by *seconds*."""
        return TimeSeries._wrap(self._times + seconds, self._values)

    def dropna(self) -> "TimeSeries":
        """Remove NaN samples."""
        mask = np.isfinite(self._values)
        return TimeSeries._wrap(self._times[mask], self._values[mask])

    def where(self, mask: np.ndarray) -> "TimeSeries":
        """Keep samples where the boolean *mask* is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._times.shape:
            raise TimeSeriesError("mask length does not match series length")
        return TimeSeries._wrap(self._times[mask], self._values[mask])

    def diff(self) -> "TimeSeries":
        """First difference of the values (timestamped at the later sample)."""
        if len(self) < 2:
            return TimeSeries.empty()
        return TimeSeries._wrap(self._times[1:], np.diff(self._values))

    def abs(self) -> "TimeSeries":
        """Element-wise absolute value."""
        return TimeSeries._wrap(self._times, np.abs(self._values))

    # --- reductions --------------------------------------------------------------
    def min(self) -> float:
        """NaN-ignoring minimum (NaN when empty/all-NaN)."""
        return self._reduce(np.nanmin)

    def max(self) -> float:
        """NaN-ignoring maximum (NaN when empty/all-NaN)."""
        return self._reduce(np.nanmax)

    def mean(self) -> float:
        """NaN-ignoring mean (NaN when empty/all-NaN)."""
        return self._reduce(np.nanmean)

    def median(self) -> float:
        """NaN-ignoring median (NaN when empty/all-NaN)."""
        return self._reduce(np.nanmedian)

    def _reduce(self, fn: Callable[[np.ndarray], np.floating]) -> float:
        finite = self._values[np.isfinite(self._values)]
        if finite.size == 0:
            return float("nan")
        return float(fn(finite))

    def _require_nonempty(self) -> None:
        if not len(self):
            raise TimeSeriesError("operation requires a non-empty series")
