"""Content digests keying the stage-memoization cache.

A satellite's stage output is a pure function of (its raw element sets,
the analysis config).  Both halves get a stable SHA-256 digest:

* :func:`history_digest` hashes every field of every element set as
  packed binary columns — any added, removed, or changed record
  changes the digest, which is exactly the "dirty satellite" signal
  incremental ingest needs;
* :func:`config_digest` hashes the *analysis* fields of the config.
  Execution-only knobs (``strict``, ``cache_stages``, ``trace``)
  cannot change results and are excluded, so switching them never
  invalidates the cache.

:func:`cache_key` joins the two with :data:`KERNEL_VERSION`, so a
persisted stage cache never outlives the kernels that wrote it.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.config import CosmicDanceConfig
from repro.tle.elements import MeanElements

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineResult

#: Config fields that select *how* the pipeline runs, not *what* it
#: computes — excluded from the config digest.  ``trace`` belongs here:
#: observability must never invalidate a cache.
EXECUTION_FIELDS: frozenset[str] = frozenset(
    {"strict", "cache_stages", "trace"}
)

#: Version of the per-satellite kernels (clean, drag spikes, decay
#: onsets, assess) and of the history digest, folded into every
#: persisted stage-cache key.  Bump it in any change that alters what
#: a satellite's stage computes: entries written by older code then
#: miss once and are recomputed instead of being served stale.
KERNEL_VERSION = 2


def _float_row(e: MeanElements) -> tuple[float, ...]:
    return (
        e.epoch.jd,
        e.inclination_deg,
        e.raan_deg,
        e.eccentricity,
        e.argp_deg,
        e.mean_anomaly_deg,
        e.mean_motion_rev_day,
        e.bstar,
        e.ndot_over_2,
        e.nddot_over_6,
    )


def _int_row(e: MeanElements) -> tuple[int, ...]:
    return (e.catalog_number, e.element_number, e.rev_number, e.ephemeris_type)


def _framed(texts: list[str]) -> bytes:
    """Length-prefixed UTF-8: no content can imitate a boundary."""
    data = [text.encode("utf-8") for text in texts]
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    return lengths.tobytes() + b"".join(data)


def history_digest(elements: Iterable[MeanElements]) -> str:
    """SHA-256 over every field of an element-set sequence.

    The epoch (as its Julian date) and the nine float fields are hashed
    as packed ``float64`` columns, the four int fields as ``int64``
    columns and the two string fields length-prefixed, after the record
    count.  Floats are hashed bit-exactly, so two histories with
    identical records always share a digest and any record-level change
    — down to the epoch's last bit — breaks it.
    """
    records = list(elements)
    floats = np.array([_float_row(e) for e in records], dtype=np.float64)
    ints = np.array([_int_row(e) for e in records], dtype=np.int64)
    digest = hashlib.sha256(np.int64(len(records)).tobytes())
    digest.update(floats.tobytes(order="F"))
    digest.update(ints.tobytes(order="F"))
    digest.update(_framed([e.classification for e in records]))
    digest.update(_framed([e.intl_designator for e in records]))
    return digest.hexdigest()


def config_digest(config: CosmicDanceConfig) -> str:
    """SHA-256 over the analysis-relevant config fields."""
    parts = [
        f"{field.name}={getattr(config, field.name)!r}"
        for field in fields(config)
        if field.name not in EXECUTION_FIELDS
    ]
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()


def result_digest(result: "PipelineResult") -> str:
    """SHA-256 over everything scientifically meaningful in one
    :class:`~repro.core.pipeline.PipelineResult`.

    Two runs over the same inputs must share a digest regardless of
    cache temperature (cold vs warm), tracing, or streaming chunking —
    the seed-determinism property the parity suite pins.  Execution
    bookkeeping (stage timings, cache hit/miss counts, metrics) is
    deliberately excluded; the quarantine ledger text is included
    because degradation *is* part of the result.
    """
    digest = hashlib.sha256()
    for section in (
        (repr(result.storm_episodes),),
        (repr(result.trajectory_events),),
        (repr(result.associations),),
        (repr(sorted(result.decay_assessments.items())),),
        _cleaned_text(result),
        (repr(result.cleaning_report),),
        (repr(result.event_threshold_nt),),
        (result.health.ledger_text(),),
    ):
        for text in section:
            digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _cleaned_text(result: "PipelineResult") -> Iterator[str]:
    """The text of ``repr(sorted(result.cleaned.items()))`` in pieces.

    The cleaned histories are the bulk of a result's text; yielding it
    one satellite at a time keeps only one satellite's text alive.
    """
    yield "["
    for i, item in enumerate(sorted(result.cleaned.items())):
        if i:
            yield ", "
        yield repr(item)
    yield "]"


def cache_key(history_digest_hex: str, config_digest_hex: str) -> str:
    """Filesystem-safe joint key for one (history, config) pair.

    128 bits of history digest + 64 of config digest — far beyond
    collision risk for any real constellation, short enough for a
    file name — plus :func:`kernel_suffix`.
    """
    return f"{history_digest_hex[:32]}-{config_digest_hex[:16]}{kernel_suffix()}"


def kernel_suffix() -> str:
    """The ending every current :func:`cache_key` has, ``-k<version>``."""
    return f"-k{KERNEL_VERSION}"
