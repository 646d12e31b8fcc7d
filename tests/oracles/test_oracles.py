"""The vectorised kernels against their scalar oracles.

Property tests draw the inputs the rewrites are most likely to get
wrong — irregular spacing, samples exactly on a window edge,
even-length windows, zero/negative/NaN B*, tiny histories, and Dst
blocks that overlap, backfill or leave gaps — and require the fast and
the scalar kernel to agree exactly.  The fixture digests pin whole
pipeline results to the bytes the scalar code produced.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import analyze
from repro.core import relations
from repro.core.cleaning import CleanedHistory, CleaningReport
from repro.core.config import CosmicDanceConfig
from repro.exec import result_digest
from repro.simulation.scenario import paper_scenario, quickstart_scenario
from repro.timeseries import TimeSeries, merge_series

from tests.core.helpers import record
from tests.oracles import reference

NAN = float("nan")

#: B* values around the baseline's edge cases, plus ordinary ones.
bstar_values = st.sampled_from(
    [0.0, -1e-4, NAN, 1e-4, 2e-4, 5e-4, 1e-3]
) | st.floats(-1e-3, 1e-2, allow_nan=False)


@st.composite
def sample_times(draw, max_len=40):
    """Non-decreasing whole-hour times: gaps of zero, one window or more
    put samples exactly on window edges."""
    gaps = draw(
        st.lists(st.sampled_from([0, 1, 2, 3, 6, 24, 48, 100]), max_size=max_len)
    )
    return np.cumsum(np.array([0] + gaps, dtype=np.float64)) * 3600.0


class TestTrailingMedian:
    @given(
        sample_times(),
        st.data(),
        st.sampled_from([0, 1, 2, 3, 6, 24, 48]),
        st.integers(1, 64),
    )
    def test_matches_per_record_median(self, times, data, window_h, block):
        values = np.array(
            data.draw(st.lists(bstar_values, min_size=len(times), max_size=len(times)))
        )
        window_s = window_h * 3600.0
        with mock.patch.object(relations, "_WINDOW_BLOCK_ELEMENTS", block):
            fast = relations.trailing_median(times, values, window_s)
        slow = reference.trailing_median(times, values, window_s)
        np.testing.assert_array_equal(fast, slow)

    def test_nan_in_window_gives_nan(self):
        times = np.arange(5) * 3600.0
        values = np.array([1.0, NAN, 1.0, 1.0, 1.0])
        out = relations.trailing_median(times, values, 2 * 3600.0)
        assert np.isnan(out[1:4]).all() and out[0] == out[4] == 1.0

    def test_empty(self):
        assert relations.trailing_median(np.empty(0), np.empty(0), 1.0).size == 0


@st.composite
def cleaned_histories(draw):
    gaps = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 7.0])
    days = np.cumsum(draw(st.lists(gaps, max_size=40)))
    elements = tuple(
        record(7, float(day), 550.0, bstar=draw(bstar_values)) for day in [0.0, *days]
    )
    n = len(elements)
    return CleanedHistory(
        catalog_number=7,
        elements=elements,
        operational_from=elements[0].epoch,
        report=CleaningReport(n, 0, 0, n),
    )


class TestDragSpikes:
    @given(
        cleaned_histories(),
        st.sampled_from([1.0, 2.0, 3.0, 7.0, 30.0]),
        st.sampled_from([1.5, 2.5, 4.0]),
    )
    def test_matches_scalar_loop(self, cleaned, window_days, factor):
        config = CosmicDanceConfig(
            drag_baseline_days=window_days, drag_spike_factor=factor
        )
        fast = relations.detect_drag_spikes(cleaned, config)
        assert fast == reference.detect_drag_spikes(cleaned, config)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_records(self, n):
        elements = tuple(record(7, float(d), 550.0, bstar=1.0) for d in range(n))
        cleaned = CleanedHistory(7, elements, None, CleaningReport(n, 0, 0, n))
        assert relations.detect_drag_spikes(cleaned) == []
        assert reference.detect_drag_spikes(cleaned) == []


@st.composite
def hourly_series(draw, max_len=30):
    hours = draw(st.lists(st.integers(0, 80), max_size=max_len, unique=True))
    values = draw(
        st.lists(
            st.floats(-500.0, 50.0, allow_nan=False) | st.just(NAN),
            min_size=len(hours),
            max_size=len(hours),
        )
    )
    order = np.argsort(hours)
    return TimeSeries(
        np.array(hours, dtype=np.float64)[order] * 3600.0, np.array(values)[order]
    )


class TestMergeSeries:
    @given(hourly_series(), hourly_series(), st.integers(-100, 100))
    def test_matches_dict_merge(self, a, b, shift_h):
        # Shifting b moves it to overlap a, backfill before it, or leave a gap.
        b = TimeSeries(b.times + shift_h * 3600.0, b.values)
        fast = merge_series(a, b)
        slow = reference.merge_series(a, b)
        np.testing.assert_array_equal(fast.times, slow.times)
        np.testing.assert_array_equal(fast.values, slow.values)

    def test_append_after_end_concatenates(self):
        a = TimeSeries([0.0, 3600.0], [1.0, 2.0])
        b = TimeSeries([21600.0], [NAN])
        merged = merge_series(a, b)
        assert merged.times.tolist() == [0.0, 3600.0, 21600.0]
        assert merged.values[:2].tolist() == [1.0, 2.0] and np.isnan(merged.values[2])


class TestResultDigest:
    @pytest.fixture(scope="class")
    def quickstart(self):
        scenario = quickstart_scenario()
        return analyze(scenario.dst, scenario.catalog)

    def test_quickstart_is_pinned(self, quickstart):
        assert result_digest(quickstart) == (
            "9ccce95fe7e7d89ff25a5fb612698e60213ba6686b612830e9f2f6f6c3c9e128"
        )

    @pytest.mark.parametrize("keep", [0, 1, 3, None])
    def test_streamed_text_matches_whole_text(self, quickstart, keep):
        numbers = sorted(quickstart.cleaned)[:keep]
        result = replace(
            quickstart, cleaned={n: quickstart.cleaned[n] for n in numbers}
        )
        assert result_digest(result) == reference.result_digest(result)

    def test_paper_scenario_is_pinned(self):
        scenario = paper_scenario(total_satellites=96, seed=1)
        result = analyze(scenario.dst, scenario.catalog)
        assert result_digest(result) == (
            "71172d5b90034eb2a3a49d88039e95d1437a6222f328ee8ca1f0d05f6bb79709"
        )
