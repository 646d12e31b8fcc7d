"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload replay --seeds 1-10 [--seconds 15]

Runs ``perfbench/run.py`` once per seed, one after another, and prints
for every end-to-end metric the median of the runs and the distance
between their first and third quartiles as a share of that median,
next to the metric's bound from ``BENCHMARK.json``.  Writes every run's
result line as JSON to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1))
    print(f"{'metric':16s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{metric['name']:16s} {median:12.4f} {(q3 - q1) / median:10.4f} "
              f"{metric['bound']:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
