"""Run the ``cosmicdance`` CLI with the benchmark's layer wrappers.

Usage: ``python perfbench/traced_cli.py SPANS_JSON <cli arguments...>``

Times the import of the package as the ``import.repro`` span, installs
:mod:`layers`' wrappers, runs ``repro.cli.main`` with the remaining
arguments and writes every span record to ``SPANS_JSON`` when the CLI
returns.  The exit code is the CLI's.
"""

from __future__ import annotations

import sys
import time

import layers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.Recorder()
    started = time.perf_counter()
    import repro.cli
    import repro.serve.stdio  # noqa: F401  (imported by 'serve' anyway)

    recorder.record("import.repro", started, time.perf_counter())
    recorder.install()
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
