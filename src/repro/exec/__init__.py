"""``repro.exec`` — the fleet-execution subsystem.

The CosmicDance pipeline's per-satellite stage (clean → detect →
assess) runs through an :class:`Executor`.  :class:`SerialExecutor`
runs it in-process, task by task; it is the default and the semantic
baseline.  The ``executor=`` injection point on
:class:`~repro.core.pipeline.CosmicDance` lets tests and callers
substitute their own implementation of the protocol.

:class:`StageMemo` memoizes stage outcomes by (history digest, config
digest) so a re-``run()`` after incremental ingest only recomputes
dirty satellites.  See ``docs/EXECUTION.md`` for the determinism
guarantees and cache-invalidation rules.
"""

from __future__ import annotations

from repro.exec.base import (
    SATELLITE_SPAN,
    Executor,
    SatelliteOutcome,
    SatelliteTask,
    StageFn,
    outcome_span_attrs,
)
from repro.exec.digests import (
    EXECUTION_FIELDS,
    cache_key,
    config_digest,
    history_digest,
    result_digest,
)
from repro.exec.memo import StageMemo
from repro.exec.serial import SerialExecutor

__all__ = [
    "EXECUTION_FIELDS",
    "Executor",
    "SATELLITE_SPAN",
    "SatelliteOutcome",
    "SatelliteTask",
    "SerialExecutor",
    "StageFn",
    "StageMemo",
    "cache_key",
    "config_digest",
    "history_digest",
    "outcome_span_attrs",
    "result_digest",
]
