"""Fleet-stage, stage-cache and tracing-overhead benchmark.

Times the per-satellite fleet stage (clean → detect → assess) under the
:class:`~repro.exec.serial.SerialExecutor`, the cold and warm-cache
pipeline runs, and the traced vs untraced fleet stage, and records the
measurements to ``BENCH_fleet.json`` and ``BENCH_trace.json`` at the
repository root.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

from repro import CosmicDance, CosmicDanceConfig
from repro.core.pipeline import process_satellite, satellite_task
from repro.exec import SerialExecutor
from repro.obs import Tracer
from repro.simulation import paper_scenario

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_fleet.json"
TRACE_BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_trace.json"


def fleet_tasks(total_satellites=96, seed=0):
    scenario = paper_scenario(total_satellites=total_satellites, seed=seed)
    return [satellite_task(history) for history in scenario.catalog], scenario


def timed(fn, *args):
    best = float("inf")
    result = None
    for _ in range(3):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_fleet_warm_cache_speedup(emit):
    tasks, scenario = fleet_tasks()
    config = CosmicDanceConfig()

    serial_s, _ = timed(
        SerialExecutor().run_fleet, process_satellite, tasks, config
    )

    # Warm-cache re-run of the full pipeline: the second run() serves
    # every satellite from the memo and skips the fleet stage entirely.
    pipeline = CosmicDance()
    pipeline.ingest.add_dst(scenario.dst)
    pipeline.ingest.add_elements(scenario.catalog.all_elements())
    cold_started = time.perf_counter()
    pipeline.run()
    cold_s = time.perf_counter() - cold_started
    warm_started = time.perf_counter()
    warm = pipeline.run()
    warm_s = time.perf_counter() - warm_started
    assert warm.health.cache_hits == len(tasks)
    assert warm.health.cache_misses == 0

    warm_speedup = cold_s / warm_s if warm_s else float("inf")
    payload = {
        "cpu_count": os.cpu_count(),
        "satellites": len(tasks),
        "records": sum(t.record_count for t in tasks),
        "fleet_serial_s": round(serial_s, 4),
        "run_cold_s": round(cold_s, 4),
        "run_warm_cache_s": round(warm_s, 4),
        "warm_cache_speedup": round(warm_speedup, 3),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "fleet_stage",
        "\n".join(
            [
                f"fleet stage, {len(tasks)} satellites, "
                f"{payload['records']} records ({payload['cpu_count']} CPU(s)):",
                f"  serial            {serial_s:8.3f} s",
                f"  cold run          {cold_s:8.3f} s",
                f"  warm-cache run    {warm_s:8.3f} s   "
                f"speedup {warm_speedup:.2f}x",
            ]
        ),
    )

    # The warm cache always wins big — it skips the work entirely.
    assert warm_speedup >= 2.0


def test_traced_fleet_overhead(emit):
    """Tracing the fleet stage must stay under 5% wall-clock overhead.

    One span per satellite is the entire per-record cost, so anything
    above noise level here means an accidental hot-path allocation
    crept into the tracer.  Both sides are min-of-5 serial runs, taken
    alternately so a drift in host speed hits both sides alike.
    """
    tasks, _ = fleet_tasks()
    config = CosmicDanceConfig()
    executor = SerialExecutor()
    untraced = executor.run_fleet(process_satellite, tasks, config)
    traced = executor.run_fleet(
        process_satellite, tasks, config, tracer=Tracer()
    )
    assert traced == untraced  # tracing must not perturb the science
    del untraced, traced

    def timed_run(tracer):
        # Each timed run starts from the same live heap: the cyclic
        # GC's cost grows with live objects, so a kept-alive earlier
        # result would slow whichever side runs after it.
        gc.collect()
        started = time.perf_counter()
        executor.run_fleet(process_satellite, tasks, config, tracer=tracer)
        return time.perf_counter() - started

    untraced_s = traced_s = float("inf")
    for _ in range(5):
        untraced_s = min(untraced_s, timed_run(None))
        traced_s = min(traced_s, timed_run(Tracer()))

    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    TRACE_BENCH_PATH.write_text(
        json.dumps(
            {
                "cpu_count": os.cpu_count(),
                "satellites": len(tasks),
                "fleet_untraced_s": round(untraced_s, 4),
                "fleet_traced_s": round(traced_s, 4),
                "overhead_pct": round(100.0 * overhead, 2),
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "traced_fleet_overhead",
        "\n".join(
            [
                f"fleet stage, {len(tasks)} satellites, serial:",
                f"  untraced          {untraced_s:8.3f} s",
                f"  traced            {traced_s:8.3f} s   "
                f"overhead {100.0 * overhead:+.2f}%",
            ]
        ),
    )
    assert overhead < 0.05
