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
import statistics
import time

from repro import CosmicDance, CosmicDanceConfig
from repro.core.pipeline import process_satellite, satellite_task
from repro.exec import SerialExecutor
from repro.obs import Tracer
from repro.simulation import paper_scenario

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_fleet.json"
TRACE_BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_trace.json"

#: Traced/untraced pairs behind the overhead gate's median (odd, so the
#: median is one pair's ratio).
PAIRS = 9


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
    crept into the tracer.  The gate reads the median of per-pair
    traced/untraced ratios: the two runs of a pair are back to back, so
    a drift in host speed hits both alike, and which side runs first
    alternates, so neither side always runs on the warmer cache.
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

    untraced_times, traced_times = [], []
    for pair in range(PAIRS):
        if pair % 2:
            traced_times.append(timed_run(Tracer()))
            untraced_times.append(timed_run(None))
        else:
            untraced_times.append(timed_run(None))
            traced_times.append(timed_run(Tracer()))
    ratios = sorted(t / u for t, u in zip(traced_times, untraced_times))
    overhead = statistics.median(ratios) - 1.0
    TRACE_BENCH_PATH.write_text(
        json.dumps(
            {
                "cpu_count": os.cpu_count(),
                "satellites": len(tasks),
                "pairs": PAIRS,
                "fleet_untraced_median_s": round(statistics.median(untraced_times), 4),
                "fleet_traced_median_s": round(statistics.median(traced_times), 4),
                "pair_overhead_pct": [round(100.0 * (r - 1.0), 2) for r in ratios],
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
                f"fleet stage, {len(tasks)} satellites, serial, {PAIRS} pairs:",
                f"  untraced median   {statistics.median(untraced_times):8.3f} s",
                f"  traced median     {statistics.median(traced_times):8.3f} s",
                f"  median pair overhead {100.0 * overhead:+.2f}% "
                f"(pairs {100.0 * (ratios[0] - 1.0):+.2f}% .. "
                f"{100.0 * (ratios[-1] - 1.0):+.2f}%)",
            ]
        ),
    )
    assert overhead < 0.05
