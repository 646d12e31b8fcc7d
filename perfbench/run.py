"""The repository benchmark: one command, every metric, output checks.

Run from the repository root::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics from a traced run.  The
line before the last is a run header (seed, commit, machine, input
sizes); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero,
without a result, when the program's source is not under ``src/``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("refresh_p50_ms", "ms"),
    ("chunk_p50_ms", "ms"),
)


def git_commit(root: Path) -> str | None:
    """HEAD's commit when the tree is a git checkout (read, not run)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch-cold", "batch-warm", "serve-delta", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'repro'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    # The benchmark and every process it starts share one CPU: the
    # service then answers a request without waking an idle CPU (whose
    # wake-up latency on a shared host varies from run to run), and the
    # reference bursts time the same CPU the operations ran on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(src))
    import numpy
    import layers
    import workloads

    work = root / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(
        root=root, work=work, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
    )
    started = time.perf_counter()
    try:
        outcome = workloads.run_workload(args.workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "chunks": 0,
        "rounds": 0,
        **outcome.header,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
    print(json.dumps({"header": header}, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:40s} {outcome.metrics[name]:>14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.consistent,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
