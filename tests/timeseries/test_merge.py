"""Unit tests for multi-modal merge/align operations."""

import numpy as np
import pytest

from repro.errors import TimeSeriesError
from repro.timeseries import TimeSeries, align_to, interleave, merge_series
from repro.timeseries.merge import common_window


class TestAlignTo:
    def test_locf_alignment(self):
        s = TimeSeries([0.0, 100.0], [1.0, 2.0])
        aligned = align_to(s, [50.0, 100.0, 150.0])
        assert list(aligned.values) == [1.0, 2.0, 2.0]

    def test_before_first_sample_is_nan(self):
        s = TimeSeries([100.0], [1.0])
        aligned = align_to(s, [0.0, 100.0])
        assert np.isnan(aligned.values[0])
        assert aligned.values[1] == 1.0

    def test_max_age(self):
        s = TimeSeries([0.0], [1.0])
        aligned = align_to(s, [10.0, 1000.0], max_age_s=100.0)
        assert aligned.values[0] == 1.0
        assert np.isnan(aligned.values[1])

    def test_empty_source_gives_all_nan(self):
        aligned = align_to(TimeSeries.empty(), [0.0, 1.0])
        assert np.isnan(aligned.values).all()

    def test_rejects_unsorted_reference(self):
        s = TimeSeries([0.0], [1.0])
        with pytest.raises(TimeSeriesError):
            align_to(s, [1.0, 0.0])


class TestMergeSeries:
    def test_union(self):
        a = TimeSeries([0.0, 2.0], [1.0, 3.0])
        b = TimeSeries([1.0], [2.0])
        merged = merge_series(a, b)
        assert list(merged.times) == [0.0, 1.0, 2.0]

    def test_b_wins_on_overlap(self):
        a = TimeSeries([0.0], [1.0])
        b = TimeSeries([0.0], [99.0])
        assert merge_series(a, b).values[0] == 99.0

    def test_merge_with_empty(self):
        a = TimeSeries([0.0], [1.0])
        assert merge_series(a, TimeSeries.empty()) == a
        assert merge_series(TimeSeries.empty(), a) == a

    def test_merge_both_empty(self):
        assert len(merge_series(TimeSeries.empty(), TimeSeries.empty())) == 0


class TestRepeatedAppends:
    """Appends share a growing buffer; no series may see it change."""

    @staticmethod
    def block(start, n=3):
        return TimeSeries(np.arange(start, start + n, dtype=float), np.full(n, float(start)))

    def test_grown_series_matches_concatenation(self):
        series = self.block(0)
        for start in range(3, 3000, 3):
            series = merge_series(series, self.block(start))
        assert series.times.tolist() == list(map(float, range(3000)))
        assert series.values.tolist() == [float(t - t % 3) for t in range(3000)]
        assert not series.times.flags.writeable

    def test_appending_twice_to_one_series_keeps_both(self):
        base = merge_series(self.block(0), self.block(3))
        first = merge_series(base, self.block(6))
        second = merge_series(base, self.block(100))  # a branch: must copy
        assert first.times.tolist() == [0.0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert second.times.tolist() == [0.0, 1, 2, 3, 4, 5, 100, 101, 102]
        assert base.times.tolist() == [0.0, 1, 2, 3, 4, 5]
        assert merge_series(first, self.block(9)).times[-1] == 11.0
        assert first.times.tolist()[-1] == 8.0

    def test_concurrent_appends_to_one_series(self):
        import sys
        import threading

        base = merge_series(self.block(0), self.block(3))
        results: dict[tuple[int, int], TimeSeries] = {}
        start = threading.Barrier(8)

        def append(worker):
            start.wait(timeout=10)
            for round_ in range(200):
                results[worker, round_] = merge_series(base, self.block(100 + worker))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 * 200
        for (worker, _), series in results.items():
            expected = [0.0, 1, 2, 3, 4, 5, 100 + worker, 101 + worker, 102 + worker]
            assert series.times.tolist() == expected
        assert base.times.tolist() == [0.0, 1, 2, 3, 4, 5]

    def test_deep_copy_appends_independently(self):
        import copy

        grown = merge_series(self.block(0), self.block(3))
        twin = copy.deepcopy(grown)
        a = merge_series(grown, self.block(6))
        b = merge_series(twin, self.block(50))
        assert a.times.tolist()[-3:] == [6.0, 7.0, 8.0]
        assert b.times.tolist()[-3:] == [50.0, 51.0, 52.0]
        assert grown == twin


class TestInterleave:
    def test_ordering(self):
        a = TimeSeries([0.0, 2.0], [1.0, 1.0])
        b = TimeSeries([1.0], [2.0])
        events = interleave([("a", a), ("b", b)])
        assert [e[1] for e in events] == ["a", "b", "a"]

    def test_tie_broken_by_label(self):
        a = TimeSeries([0.0], [1.0])
        b = TimeSeries([0.0], [2.0])
        events = interleave([("zz", b), ("aa", a)])
        assert [e[1] for e in events] == ["aa", "zz"]

    def test_empty_streams(self):
        assert interleave([("a", TimeSeries.empty())]) == []


class TestCommonWindow:
    def test_overlap(self):
        a = TimeSeries([0.0, 10.0], [1.0, 1.0])
        b = TimeSeries([5.0, 20.0], [1.0, 1.0])
        assert common_window([a, b]) == (5.0, 10.0)

    def test_no_overlap(self):
        a = TimeSeries([0.0, 1.0], [1.0, 1.0])
        b = TimeSeries([5.0, 6.0], [1.0, 1.0])
        assert common_window([a, b]) is None

    def test_empty_series_means_none(self):
        a = TimeSeries([0.0, 1.0], [1.0, 1.0])
        assert common_window([a, TimeSeries.empty()]) is None
