"""Digest and stage-memoization tests, including the persistence tier."""

from dataclasses import fields, replace

import pytest

from repro import analyze
from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import process_satellite, satellite_task
from repro.exec import (
    StageMemo,
    cache_key,
    config_digest,
    digests,
    history_digest,
    result_digest,
)
from repro.io.store import DataStore
from repro.simulation.scenario import quickstart_scenario
from repro.tle.elements import MeanElements

from tests.core.helpers import record, steady_history


class TestHistoryDigest:
    def test_stable_for_identical_histories(self):
        a = tuple(steady_history(catalog=5, days=30))
        b = tuple(steady_history(catalog=5, days=30))
        assert history_digest(a) == history_digest(b)

    def test_changes_on_any_record_change(self):
        base = tuple(steady_history(catalog=5, days=30))
        appended = base + (record(5, 30.0, 550.0),)
        altered = base[:-1] + (record(5, 29.0, 551.0),)
        digests = {history_digest(base), history_digest(appended), history_digest(altered)}
        assert len(digests) == 3

    def test_order_sensitive(self):
        base = tuple(steady_history(catalog=5, days=10))
        assert history_digest(base) != history_digest(tuple(reversed(base)))

    def test_sub_second_epoch_shift_changes_digest(self):
        # Epoch reprs round to the second, TLE epochs resolve to ~1 ms:
        # histories a 0.3 s shift apart must not share a memo entry.
        base = tuple(steady_history(catalog=5, days=10))
        last = base[-1]
        shifted = base[:-1] + (last.with_epoch(last.epoch.add_seconds(0.3)),)
        assert repr(shifted) == repr(base)
        assert history_digest(shifted) != history_digest(base)

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(MeanElements) if f.init]
    )
    def test_every_field_changes_digest(self, name):
        base = tuple(steady_history(catalog=5, days=3))
        value = getattr(base[-1], name)
        if isinstance(value, str):
            changed = value + "X"
        elif isinstance(value, int):
            changed = value + 1
        elif isinstance(value, float):
            changed = value / 2 + 0.25
        else:
            changed = value.add_seconds(0.3)
        altered = base[:-1] + (replace(base[-1], **{name: changed}),)
        assert history_digest(altered) != history_digest(base)

    def test_covers_all_sixteen_fields(self):
        assert len([f for f in fields(MeanElements) if f.init]) == 16

    def test_string_fields_are_framed(self):
        a, b = record(5, 0.0, 550.0), record(5, 1.0, 550.0)
        pairs = [
            ((a, "19074AB"), (b, "")),
            ((a, "19074A"), (b, "B")),
        ]
        assert len({
            history_digest([replace(e, intl_designator=d) for e, d in pair])
            for pair in pairs
        }) == 2
        moved = [
            replace(a, classification="U", intl_designator="C19074A"),
            replace(a, classification="UC", intl_designator="19074A"),
        ]
        assert history_digest(moved[:1]) != history_digest(moved[1:])

    def test_empty_history(self):
        assert history_digest([]) == history_digest(())


class TestConfigDigest:
    def test_analysis_fields_matter(self):
        assert config_digest(CosmicDanceConfig()) != config_digest(
            CosmicDanceConfig(drag_spike_factor=3.0)
        )

    def test_execution_fields_do_not(self):
        # Toggling strictness, caching or tracing must not invalidate
        # cached outcomes — they cannot change what a satellite computes.
        base = config_digest(CosmicDanceConfig())
        assert base == config_digest(CosmicDanceConfig(trace=True))
        assert base == config_digest(CosmicDanceConfig(strict=True))
        assert base == config_digest(CosmicDanceConfig(cache_stages=False))

    def test_default_digest_is_pinned(self):
        # Persisted stage_cache/ keys embed this digest: a change here
        # cold-starts every existing cache directory, so it must be a
        # deliberate one.
        assert config_digest(CosmicDanceConfig()) == (
            "4614e9fc064c7713f2862ffd6c14ae559a881e2bd8457f81a2bfa6cb0db85cf5"
        )


class TestStageMemo:
    def outcome(self, catalog=1, days=40):
        task = satellite_task(steady_history(catalog=catalog, days=days))
        return task, process_satellite(task, CosmicDanceConfig())

    def test_miss_then_hit(self):
        memo = StageMemo()
        task, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        assert memo.get(task.digest, cfg) is None
        memo.put(task.digest, cfg, outcome)
        hit = memo.get(task.digest, cfg)
        assert hit is not None
        assert hit.from_cache
        assert replace(hit, from_cache=False) == outcome
        assert (memo.hits, memo.misses) == (1, 1)

    def test_failures_never_cached(self):
        memo = StageMemo()
        task, outcome = self.outcome()
        failed = replace(outcome, error="ValueError: transient", error_stage="assess")
        memo.put(task.digest, "cfg", failed)
        assert memo.get(task.digest, "cfg") is None

    def test_config_digest_partitions_entries(self):
        memo = StageMemo()
        task, outcome = self.outcome()
        memo.put(task.digest, "cfg-a", outcome)
        assert memo.get(task.digest, "cfg-b") is None

    def test_persistent_roundtrip(self, tmp_path):
        task, outcome = self.outcome(catalog=44713)
        cfg = config_digest(CosmicDanceConfig())
        writer = StageMemo(DataStore(tmp_path))
        writer.put(task.digest, cfg, outcome)
        # A fresh memo over the same store starts warm...
        reader = StageMemo(DataStore(tmp_path))
        hit = reader.get(task.digest, cfg)
        assert hit is not None and hit.from_cache
        # ...and the rehydrated outcome is exact, not approximate.
        assert replace(hit, from_cache=False) == outcome

    def test_corrupt_persistent_entry_degrades_to_miss(self, tmp_path):
        task, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        store = DataStore(tmp_path)
        StageMemo(store).put(task.digest, cfg, outcome)
        name = cache_key(task.digest, cfg)
        entry = tmp_path / "stage_cache" / f"{name}.json"
        entry.write_text("{ not json")
        fresh_store = DataStore(tmp_path)
        memo = StageMemo(fresh_store)
        assert memo.get(task.digest, cfg) is None
        assert len(fresh_store.ledger) == 1
        assert not entry.exists()  # quarantined aside, not left to re-fail

    def test_kernel_version_bump_misses_persisted_entries(
        self, tmp_path, monkeypatch
    ):
        scenario = quickstart_scenario()

        def run():
            memo = StageMemo(DataStore(tmp_path))
            return analyze(scenario.dst, scenario.catalog, memo=memo)

        cold = run()
        assert cold.health.cache_misses > 0
        assert run().health.cache_misses == 0
        monkeypatch.setattr(digests, "KERNEL_VERSION", digests.KERNEL_VERSION + 1)
        bumped = run()
        assert bumped.health.cache_hits == 0
        assert bumped.health.cache_misses == cold.health.cache_misses
        assert result_digest(bumped) == result_digest(cold)

    def test_first_put_prunes_entries_of_other_kernel_versions(
        self, tmp_path, monkeypatch
    ):
        scenario = quickstart_scenario()
        stage_cache = tmp_path / "stage_cache"

        def run():
            memo = StageMemo(DataStore(tmp_path))
            return analyze(scenario.dst, scenario.catalog, memo=memo)

        run()
        old = sorted(stage_cache.glob("*.json"))
        assert old and all(p.stem.endswith(digests.kernel_suffix()) for p in old)
        unversioned = stage_cache / f"{'0' * 32}-{'0' * 16}.json"
        unversioned.write_text("{}")
        bystander = stage_cache / "notes.txt"
        bystander.write_text("kept")
        monkeypatch.setattr(digests, "KERNEL_VERSION", digests.KERNEL_VERSION + 1)
        bumped = run()
        assert bumped.health.cache_misses == len(old)
        new = sorted(stage_cache.glob("*.json"))
        assert len(new) == len(old)
        assert all(p.stem.endswith(digests.kernel_suffix()) for p in new)
        assert not any(p.exists() for p in old) and not unversioned.exists()
        assert bystander.read_text() == "kept"
        assert not (tmp_path / "quarantine").exists()  # deleted, not quarantined

    def test_prune_keeps_current_entries(self, tmp_path):
        task, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        store = DataStore(tmp_path)
        StageMemo(store).put(task.digest, cfg, outcome)
        assert store.prune_stage_cache(keep_suffix=digests.kernel_suffix()) == 0
        assert StageMemo(store).get(task.digest, cfg) is not None

    def test_clear_drops_memory_not_store(self, tmp_path):
        task, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        memo = StageMemo(DataStore(tmp_path))
        memo.put(task.digest, cfg, outcome)
        memo.clear()
        assert len(memo) == 0
        assert memo.get(task.digest, cfg) is not None  # reloaded from disk
