"""Execution-layer value types: tasks, outcomes, and the Executor protocol.

The fleet stage of the pipeline (clean → detect → assess, once per
satellite) is embarrassingly parallel: satellites share no state until
the association step.  This module defines the unit of work
(:class:`SatelliteTask`), the unit of result (:class:`SatelliteOutcome`),
and the :class:`Executor` protocol that runs a *stage function* over a
fleet of tasks.

Outcomes carry failures as *strings* (``"ExcType: message"``), never
live exception objects, so a failed outcome is plain data that the
pipeline can ledger and the stage cache can refuse to store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:
    from repro.core.cleaning import CleanedHistory, CleaningReport
    from repro.core.config import CosmicDanceConfig
    from repro.core.decay import DecayAssessment
    from repro.core.relations import TrajectoryEvent
    from repro.obs.tracer import Tracer
    from repro.tle.elements import MeanElements


@dataclass(frozen=True, slots=True)
class SatelliteTask:
    """One satellite's raw history, packaged for a fleet executor.

    ``digest`` is the stable content hash of the element sets (see
    :func:`repro.exec.digests.history_digest`); together with the config
    digest it keys the stage-memoization cache.
    """

    catalog_number: int
    #: Epoch-ordered raw element sets (pre-cleaning).
    elements: tuple["MeanElements", ...]
    #: Content digest of *elements* (memoization key half).
    digest: str

    @property
    def record_count(self) -> int:
        """Number of raw element sets (reported on satellite spans)."""
        return len(self.elements)


@dataclass(frozen=True, slots=True)
class SatelliteOutcome:
    """Everything the per-satellite stage produced for one satellite.

    Exactly one of these holds per outcome:

    * success — ``cleaned``/``assessment`` set (``cleaned`` is None when
      the cleaning filters removed every record, which is a valid,
      cacheable result, not a failure);
    * failure — ``error`` holds ``"ExcType: message"`` and
      ``error_stage`` names the sub-stage (``clean``/``detect``/
      ``assess``) that raised; the pipeline quarantines the satellite.
    """

    catalog_number: int
    cleaned: "CleanedHistory | None"
    events: tuple["TrajectoryEvent", ...]
    assessment: "DecayAssessment | None"
    #: Per-satellite cleaning bookkeeping (None only when cleaning
    #: itself failed before producing a report).
    report: "CleaningReport | None"
    #: ``"ExcType: message"`` when the stage failed, else None.
    error: str | None = None
    #: Which sub-stage failed (``clean``/``detect``/``assess``).
    error_stage: str | None = None
    #: True when this outcome was served from the stage cache.
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


#: The per-satellite work unit.  ``capture=False`` lets the
#: first exception propagate (strict mode); ``capture=True`` folds it
#: into the outcome's ``error`` fields.
StageFn = Callable[..., SatelliteOutcome]


@runtime_checkable
class Executor(Protocol):
    """Runs a stage function over a fleet of satellite tasks.

    Implementations must return one outcome per task **in task order**,
    regardless of completion order, and must honor ``config.strict``:
    strict runs re-raise the first stage failure, lenient runs capture
    every failure in its outcome.

    ``tracer`` is the optional observability hook (see ``repro.obs``):
    when given an *enabled* tracer, implementations record one
    ``satellite`` span per executed task with the attribute schema of
    :func:`outcome_span_attrs`.  ``None`` (the default) and disabled
    tracers must cost nothing.
    """

    #: Short human-readable name (``serial``), used in logs and the
    #: ``run`` span.
    name: str

    def run_fleet(
        self,
        stage: StageFn,
        tasks: Sequence[SatelliteTask],
        config: "CosmicDanceConfig",
        *,
        tracer: "Tracer | None" = None,
    ) -> list[SatelliteOutcome]: ...


#: Span name every executor uses for one per-satellite stage unit.
SATELLITE_SPAN = "satellite"


def outcome_span_attrs(
    task: SatelliteTask, outcome: SatelliteOutcome
) -> dict[str, Any]:
    """The canonical span attributes for one executed satellite.

    Shared by every executor so the trace schema does not depend on
    which one ran the stage: catalog number, record count,
    ``cache="miss"`` (cache hits never reach an executor; the pipeline
    spans those itself), and — on failure — the quarantine stage and
    reason.
    """
    attrs: dict[str, Any] = {
        "catalog_number": task.catalog_number,
        "records": task.record_count,
        "cache": "miss",
    }
    if outcome.error is not None:
        attrs["quarantined"] = True
        attrs["error_stage"] = outcome.error_stage
        attrs["reason"] = outcome.error
    return attrs

