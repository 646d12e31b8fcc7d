"""Self-test of the benchmark at the quickstart fleet size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs once untraced and once traced, and once more
against a wrong reference digest, which must count failed operations.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.simulation.scenario import quickstart_scenario  # noqa: E402


def quickstart(seed: int):
    return quickstart_scenario(seed=seed)


@pytest.fixture
def context(request):
    work = ROOT / ".perfbench-work" / f"selftest-{request.node.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def make(**overrides) -> workloads.Context:
        settings = dict(
            root=ROOT, work=work, seed=3, seconds=0.01, trace=False,
            make_scenario=quickstart,
        )
        settings.update(overrides)
        return workloads.Context(**settings)

    yield make
    shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_every_metric(context, name):
    outcome = workloads.run_workload(name, context())
    assert outcome.attempted >= 1
    assert outcome.failed == 0
    assert outcome.consistent
    assert set(outcome.metrics) == {metric for metric, _ in run.END_TO_END}
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(context, name):
    outcome = workloads.run_workload(name, context(trace=True))
    assert outcome.failed == 0
    assert outcome.header["counts_match"]
    assert outcome.consistent
    assert set(outcome.metrics) == {metric for metric, _ in layers.PER_LAYER}
    residuals = [
        outcome.metrics[metric]
        for metric in ("cli.unattributed_s", "serve.unattributed_s", "stream.unattributed_s")
    ]
    # Exactly one residual is this workload's, and it is never negative.
    assert sum(1 for value in residuals if value > 0) == 1
    assert min(residuals) >= 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrong_reference_counts_failed_operations(context, name):
    outcome = workloads.run_workload(name, context(reference="0" * 64))
    assert outcome.failed >= 1


def test_speedometer_scales_each_time_by_its_bracketing_bursts():
    speed = workloads.Speedometer()
    # (burst midpoint, median reference time): 2 ms, then 1 ms, then 4 ms.
    speed.bursts = [(0.0, 2e-3), (10.0, 1e-3), (20.0, 4e-3)]
    samples = [(5.0, 3.0), (15.0, 5.0), (25.0, 8.0)]
    # Mean reference 1.5 ms, 2.5 ms, and 4 ms (only a burst before it).
    assert speed.scaled(samples) == pytest.approx([2.0, 2.0, 2.0])
