"""Per-layer tracing for the benchmark's traced runs.

The program is not instrumented for this: :meth:`Recorder.install` replaces the
public functions of each layer, at the module where they are called,
with wrappers that record a span (start, end, self time) and the
layer's exact counts.  A layer's self time is its span's duration minus
the time its child spans cover, kept per thread, so the self times of
all spans inside a window plus the window's unattributed residual add
up to the window's wall time.

Timestamps come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans recorded in a subprocess (the
CLI, the service) can be clipped to a window measured by the parent.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterable

#: Per-layer metrics in report order: (name, unit).  Times are self
#: seconds, counts and ratios exact.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("import.repro_s", "s"),
    ("io.store.load_dst_s", "s"),
    ("io.store.load_catalog_s", "s"),
    ("tle.parse.parse_tle_file_s", "s"),
    ("tle.parse.records", "count"),
    ("tle.parse.errors", "count"),
    ("exec.digests.history_digest_s", "s"),
    ("exec.digests.history_digest_calls", "count"),
    ("exec.digests.records_hashed", "count"),
    ("exec.digests.result_digest_s", "s"),
    ("exec.memo.get_s", "s"),
    ("exec.memo.put_s", "s"),
    ("exec.memo.hits", "count"),
    ("exec.memo.misses", "count"),
    ("exec.memo.hit_ratio", "ratio"),
    ("exec.run_fleet_s", "s"),
    ("exec.tasks", "count"),
    ("exec.quarantined", "count"),
    ("core.cleaning.clean_history_s", "s"),
    ("core.relations.detect_drag_spikes_s", "s"),
    ("core.relations.detect_decay_onsets_s", "s"),
    ("core.decay.assess_decay_s", "s"),
    ("spaceweather.storms.detect_episodes_s", "s"),
    ("core.relations.associate_s", "s"),
    ("stream.planner.plan_s", "s"),
    ("stream.planner.digest_reuse_ratio", "ratio"),
    ("stream.planner.dirty", "count"),
    ("stream.planner.clean", "count"),
    ("core.ingest.add_dst_s", "s"),
    ("core.ingest.add_elements_delta_s", "s"),
    ("stream.ingestor.offer_s", "s"),
    ("stream.chunks", "count"),
    ("stream.dst_hours", "count"),
    ("stream.detector.observe_s", "s"),
    ("stream.alerts.emit_s", "s"),
    ("stream.alerts.emitted", "count"),
    ("serve.protocol.decode_s", "s"),
    ("serve.protocol.encode_s", "s"),
    ("inputs.coerce_elements_s", "s"),
    ("serve.coalesced", "count"),
    ("cli.unattributed_s", "s"),
    ("serve.unattributed_s", "s"),
    ("stream.unattributed_s", "s"),
    ("obs.trace_overhead_pct", "%"),
)

#: Counts two traced runs of the same code must reproduce exactly.
EXACT_COUNTS: tuple[str, ...] = tuple(
    name for name, unit in PER_LAYER if unit == "count"
) + ("stream.planner.task_for_calls", "stream.planner.task_for_reused")


def _parse_counts(result, args, kwargs) -> dict[str, int]:
    return {
        "tle.parse.records": result.parsed_count,
        "tle.parse.errors": result.error_count,
    }


def _digest_counts(result, args, kwargs) -> dict[str, int]:
    return {
        "exec.digests.history_digest_calls": 1,
        "exec.digests.records_hashed": len(args[0]),
    }


def _memo_counts(result, args, kwargs) -> dict[str, int]:
    return {"exec.memo.misses" if result is None else "exec.memo.hits": 1}


def _fleet_counts(result, args, kwargs) -> dict[str, int]:
    return {
        "exec.tasks": len(args[2]),
        "exec.quarantined": sum(1 for o in result if o.error is not None),
    }


def _plan_counts(result, args, kwargs) -> dict[str, int]:
    return {
        "stream.planner.dirty": len(result.dirty),
        "stream.planner.clean": len(result.clean),
    }


def _offer_counts(result, args, kwargs) -> dict[str, int]:
    return {"stream.chunks": 1, "stream.dst_hours": result.new_dst_hours}


def _emit_counts(result, args, kwargs) -> dict[str, int]:
    return {"stream.alerts.emitted": len(result)}


def _submit_counts(result, args, kwargs) -> dict[str, int]:
    return {"serve.coalesced": int(result[1])}


#: (module, attribute or Class.method, layer, counts hook).  A layer of
#: None records counts only: its time stays with the enclosing span
#: (with no hook, the counts are DeltaPlanner.task_for's digest reuse).
#: Every entry patches the name its callers look up at call time.
WRAPPED: tuple[tuple[str, str, str | None, Callable | None], ...] = (
    ("repro.io.store", "DataStore.load_dst", "io.store.load_dst", None),
    ("repro.io.store", "DataStore.load_catalog", "io.store.load_catalog", None),
    ("repro.io.store", "parse_tle_file", "tle.parse.parse_tle_file", _parse_counts),
    ("repro.core.ingest", "parse_tle_file", "tle.parse.parse_tle_file", _parse_counts),
    # repro.inputs imports parse_tle_file from here inside the call.
    ("repro.tle.parse", "parse_tle_file", "tle.parse.parse_tle_file", _parse_counts),
    ("repro.core.pipeline", "history_digest", "exec.digests.history_digest", _digest_counts),
    ("repro.stream.chunks", "history_digest", "exec.digests.history_digest", _digest_counts),
    # The CLI imports result_digest from repro.exec inside the call.
    ("repro.exec", "result_digest", "exec.digests.result_digest", None),
    ("repro.serve.service", "result_digest", "exec.digests.result_digest", None),
    ("repro.exec.memo", "StageMemo.get", "exec.memo.get", _memo_counts),
    ("repro.exec.memo", "StageMemo.put", "exec.memo.put", None),
    ("repro.exec.serial", "SerialExecutor.run_fleet", "exec.run_fleet", _fleet_counts),
    ("repro.core.pipeline", "clean_history", "core.cleaning.clean_history", None),
    ("repro.core.pipeline", "detect_drag_spikes", "core.relations.detect_drag_spikes", None),
    ("repro.core.pipeline", "detect_decay_onsets", "core.relations.detect_decay_onsets", None),
    ("repro.core.pipeline", "assess_decay", "core.decay.assess_decay", None),
    ("repro.core.pipeline", "detect_episodes", "spaceweather.storms.detect_episodes", None),
    ("repro.core.pipeline", "associate", "core.relations.associate", None),
    ("repro.stream.planner", "DeltaPlanner.plan", "stream.planner.plan", _plan_counts),
    ("repro.stream.planner", "DeltaPlanner.task_for", None, None),
    ("repro.core.ingest", "IngestState.add_dst", "core.ingest.add_dst", None),
    ("repro.core.ingest", "IngestState.add_elements_delta", "core.ingest.add_elements_delta", None),
    ("repro.stream.ingestor", "StreamIngestor.offer", "stream.ingestor.offer", _offer_counts),
    ("repro.stream.detector", "OnlineStormDetector.observe", "stream.detector.observe", None),
    ("repro.stream.alerts", "AlertEngine.emit", "stream.alerts.emit", _emit_counts),
    ("repro.serve.protocol", "ServeRequest.from_json", "serve.protocol.decode", None),
    ("repro.serve.protocol", "ServeResponse.to_json", "serve.protocol.encode", None),
    ("repro.serve.service", "coerce_elements", "inputs.coerce_elements", None),
    ("repro.serve.broker", "RequestBroker.submit", None, _submit_counts),
)


class Recorder:
    """Collects span records: ``[layer, start, end, self_s, counts]``."""

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self._local = threading.local()
        self._digest_calls = 0
        self._restore: list[Callable[[], None]] = []

    def record(self, layer: str, start: float, end: float) -> None:
        """Record a span measured by the caller (no children)."""
        self.records.append([layer, start, end, end - start, None])

    def call(
        self, layer: str | None, hook: Callable | None,
        fn: Callable, args: tuple, kwargs: dict,
    ) -> Any:
        if layer is None:
            return self._count_only(hook, fn, args, kwargs)
        stack = self._local.__dict__.setdefault("stack", [])
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
        counts = hook(result, args, kwargs) if hook is not None else None
        if layer == "exec.digests.history_digest":
            self._digest_calls += 1
        self.records.append([layer, start, end, end - start - children[0], counts])
        return result

    def _count_only(self, hook, fn, args, kwargs) -> Any:
        # DeltaPlanner.task_for: a call that hashes nothing reused the
        # planner's cached digest.
        before = self._digest_calls
        result = fn(*args, **kwargs)
        if hook is not None:
            counts = hook(result, args, kwargs)
        else:
            counts = {
                "stream.planner.task_for_calls": 1,
                "stream.planner.task_for_reused": int(self._digest_calls == before),
            }
        now = time.perf_counter()
        self.records.append([None, now, now, 0.0, counts])
        return result

    # --- installing wrappers -------------------------------------------
    def install(self) -> None:
        """Wrap every entry of :data:`WRAPPED` (idempotent per recorder)."""
        if self._restore:
            return
        for module_name, attr, layer, hook in WRAPPED:
            self._wrap(importlib.import_module(module_name), attr, layer, hook)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, module, attr: str, layer, hook) -> None:
        owner, _, name = attr.rpartition(".")
        target = getattr(module, owner) if owner else module
        original = target.__dict__[name] if owner else getattr(module, name)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        if layer == "exec.digests.history_digest":
            inner = fn

            def fn(elements, *args, **kwargs):
                # Callers pass tuples; materialise anything else so the
                # records_hashed count never consumes an iterator.
                if not hasattr(elements, "__len__"):
                    elements = tuple(elements)
                return inner(elements, *args, **kwargs)

        recorder = self

        def wrapper(*args, **kwargs):
            return recorder.call(layer, hook, fn, args, kwargs)

        setattr(target, name, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append(lambda: setattr(target, name, original))

    # --- persistence (for traced subprocesses) ------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)

    @staticmethod
    def load(path: str) -> list[list[Any]]:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


def summarize(
    records: Iterable[list[Any]], start: float, end: float
) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds per layer and summed counts of the spans inside
    ``[start, end]``."""
    self_s: dict[str, float] = {}
    counts: Counter[str] = Counter()
    for layer, span_start, span_end, self_time, span_counts in records:
        if span_start < start or span_end > end:
            continue
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + self_time
        if span_counts:
            counts.update(span_counts)
    return self_s, {name: counts.get(name, 0) for name in EXACT_COUNTS}


def layer_metrics(
    self_s: dict[str, float],
    counts: dict[str, int],
    *,
    wall_s: float,
    residual: str,
) -> dict[str, float]:
    """Every per-layer metric except the overhead, for one traced window.

    *residual* names the unattributed metric this workload's window
    reports; the others read 0.
    """
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] = self_s.get(name[: -len("_s")], 0.0)
        elif unit == "count":
            values[name] = counts.get(name, 0)
    hits, misses = counts["exec.memo.hits"], counts["exec.memo.misses"]
    values["exec.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    calls = counts["stream.planner.task_for_calls"]
    values["stream.planner.digest_reuse_ratio"] = (
        counts["stream.planner.task_for_reused"] / calls if calls else 0.0
    )
    for name in ("cli.unattributed_s", "serve.unattributed_s", "stream.unattributed_s"):
        values[name] = 0.0
    values[residual] = wall_s - sum(self_s.values())
    return values
