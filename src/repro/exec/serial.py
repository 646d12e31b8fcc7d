"""The in-process executor — the default, and the semantic baseline.

Runs the stage function task by task in the calling process.  Strict
mode lets the first exception propagate with its original type and
traceback; lenient mode captures each failure in its outcome so the
pipeline can quarantine the satellite and continue.  An executor
substituted through ``CosmicDance(executor=...)`` must be
observationally equivalent to this one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.exec.base import (
    SATELLITE_SPAN,
    SatelliteOutcome,
    SatelliteTask,
    StageFn,
    outcome_span_attrs,
)

if TYPE_CHECKING:
    from repro.core.config import CosmicDanceConfig
    from repro.obs.tracer import Tracer


class SerialExecutor:
    """Runs the fleet stage satellite by satellite, in task order."""

    name = "serial"

    def run_fleet(
        self,
        stage: StageFn,
        tasks: Sequence[SatelliteTask],
        config: "CosmicDanceConfig",
        *,
        tracer: "Tracer | None" = None,
    ) -> list[SatelliteOutcome]:
        capture = not config.strict
        if tracer is None or not tracer.enabled:
            return [stage(task, config, capture=capture) for task in tasks]
        outcomes: list[SatelliteOutcome] = []
        for task in tasks:
            with tracer.span(SATELLITE_SPAN) as span:
                outcome = stage(task, config, capture=capture)
                span.set(**outcome_span_attrs(task, outcome))
            outcomes.append(outcome)
        return outcomes

    def __repr__(self) -> str:
        return "SerialExecutor()"
