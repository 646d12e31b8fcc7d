"""Executor semantics: ordering and strictness."""

import pytest

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import process_satellite, satellite_task
from repro.exec import SatelliteOutcome, SerialExecutor

from tests.core.helpers import steady_history


def fleet_tasks(count=6, days=20):
    return [
        satellite_task(steady_history(catalog=n, days=days))
        for n in range(1, count + 1)
    ]


def echo_stage(task, config, *, capture=True):
    return SatelliteOutcome(
        catalog_number=task.catalog_number,
        cleaned=None,
        events=(),
        assessment=None,
        report=None,
    )


def explode_on_even(task, config, *, capture=True):
    if task.catalog_number % 2 == 0:
        error = ValueError(f"boom {task.catalog_number}")
        if not capture:
            raise error
        return SatelliteOutcome(
            catalog_number=task.catalog_number,
            cleaned=None,
            events=(),
            assessment=None,
            report=None,
            error=f"{type(error).__name__}: {error}",
            error_stage="detect",
        )
    return echo_stage(task, config)


class TestSerialExecutor:
    def test_runs_real_stage_in_task_order(self):
        tasks = fleet_tasks()
        outcomes = SerialExecutor().run_fleet(
            process_satellite, tasks, CosmicDanceConfig()
        )
        assert [o.catalog_number for o in outcomes] == [
            t.catalog_number for t in tasks
        ]
        assert all(o.ok and o.cleaned is not None for o in outcomes)

    def test_lenient_captures_strict_raises(self):
        tasks = fleet_tasks(4)
        lenient = SerialExecutor().run_fleet(
            explode_on_even, tasks, CosmicDanceConfig()
        )
        assert [o.ok for o in lenient] == [True, False, True, False]
        with pytest.raises(ValueError, match="boom 2"):
            SerialExecutor().run_fleet(
                explode_on_even, tasks, CosmicDanceConfig(strict=True)
            )

