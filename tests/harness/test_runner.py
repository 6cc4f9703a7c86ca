"""Runner determinism, process-pool parity, and the on-disk cache."""

import json
import multiprocessing
import os
from concurrent.futures import BrokenExecutor

import pytest

from repro.harness import (
    JOBS_ENV,
    ResultCache,
    RunSettings,
    SweepSpec,
    resolve_jobs,
    run_sweep,
)
from repro.harness import runner as runner_module
from repro.harness.runner import Runner, execute_spec
from repro.sim.units import MS

TINY = RunSettings(warmup_ns=5 * MS, measure_ns=40 * MS, drain_ns=30 * MS, seed=2)

SWEEP = SweepSpec(
    apps=("apache",),
    policies=("perf",),
    loads=(24_000, 30_000, 36_000),
    settings=TINY,
)


def exit_on_first_load(spec):
    """Stands in for ``execute_spec``: the worker given 24K RPS dies.

    Module-level, so the pool pickles it by name; forked workers inherit
    the patched ``execute_spec`` that points here.
    """
    if spec.target_rps == 24_000:
        os._exit(3)
    return execute_spec(spec)


def record_json(records):
    return json.dumps(
        [r.to_json_dict() for r in records], sort_keys=True
    )


class TestDeterminism:
    def test_pool_matches_serial_bit_for_bit(self):
        """The acceptance bar: parallel == serial, byte-identical JSON."""
        serial = run_sweep(SWEEP, jobs=1)
        pooled = run_sweep(SWEEP, jobs=2)
        assert len(serial) == 3
        assert record_json(serial) == record_json(pooled)
        # Order follows the spec list, not completion order.
        assert [r.target_rps for r in serial] == [24_000.0, 30_000.0, 36_000.0]

    def test_cache_second_run_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_sweep(SWEEP, jobs=1, cache=cache)
        assert cache.stores == 3 and cache.hits == 0

        cache2 = ResultCache(str(tmp_path / "cache"))
        second = run_sweep(SWEEP, jobs=1, cache=cache2)
        assert cache2.hits == 3 and cache2.stores == 0
        assert all(r.from_cache for r in second)
        assert not any(r.from_cache for r in first)
        # from_cache is bookkeeping, not data: records compare equal and
        # serialize identically.
        assert second == first
        assert record_json(second) == record_json(first)


class TestRunnerMechanics:
    def test_progress_hook_sees_every_point(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        events = []
        runner = Runner(jobs=1, cache=cache, progress=events.append)
        specs = SWEEP.expand()
        runner.run(specs)
        assert [e.index for e in events] == [0, 1, 2]
        assert all(e.total == 3 and not e.cached for e in events)

        events.clear()
        Runner(jobs=1, cache=cache, progress=events.append).run(specs)
        assert all(e.cached for e in events)

    def test_map_preserves_item_order(self):
        runner = Runner(jobs=2)
        assert runner.map(abs, [-3, 1, -2]) == [3, 1, 2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched execute_spec only when they are forked",
    )
    def test_dead_worker_names_the_sweep_point(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_spec", exit_on_first_load)
        with pytest.raises(RuntimeError) as info:
            Runner(jobs=2).run(SWEEP.expand()[:2])
        assert str(info.value).startswith(
            "sweep point 0 (apache/perf/24000/2) did not complete: "
            "a pool worker died"
        )
        assert isinstance(info.value.__cause__, BrokenExecutor)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        records = run_sweep(SWEEP.expand()[:1], jobs=1, cache=cache)
        path = cache.path_for(records[0].config_hash)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(records[0].config_hash) is None
        assert fresh.misses == 1


class TestSchemaInvalidation:
    def seed_stale_entries(self, cache, records, schema):
        """Rewrite cached entries as if written by an older schema."""
        for record in records:
            path = cache.path_for(record.config_hash)
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            data["schema"] = schema
            data.pop("attribution", None)  # v2 records predate the field
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)

    def test_stale_schema_is_miss_with_one_counted_warning(
        self, tmp_path, caplog
    ):
        cache = ResultCache(str(tmp_path))
        records = run_sweep(SWEEP, jobs=1, cache=cache)
        self.seed_stale_entries(cache, records, schema=2)

        fresh = ResultCache(str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.harness.cache"):
            for record in records:
                assert fresh.get(record.config_hash) is None
        assert fresh.misses == len(records)
        warnings = [r for r in caplog.records if "older record schemas"
                    in r.getMessage()]
        assert len(warnings) == 1  # once per cache, not once per entry
        assert f"{len(records)} entries" in warnings[0].getMessage()

    def test_warning_deduped_across_cache_instances(self, tmp_path, caplog):
        # Sweeps build a ResultCache per runner over the same directory;
        # the dedupe is per (cache dir, old version) per process, so a
        # second instance (or a re-run in the same process) stays silent.
        cache = ResultCache(str(tmp_path))
        records = run_sweep(SWEEP, jobs=1, cache=cache)
        self.seed_stale_entries(cache, records, schema=2)

        with caplog.at_level("WARNING", logger="repro.harness.cache"):
            for _ in range(3):
                fresh = ResultCache(str(tmp_path))
                for record in records:
                    assert fresh.get(record.config_hash) is None
        warnings = [r for r in caplog.records if "older record schemas"
                    in r.getMessage()]
        assert len(warnings) == 1
        assert "first seen: v2" in warnings[0].getMessage()

        # A different old version in the same directory is new information.
        self.seed_stale_entries(cache, records, schema=3)
        with caplog.at_level("WARNING", logger="repro.harness.cache"):
            again = ResultCache(str(tmp_path))
            assert again.get(records[0].config_hash) is None
        assert any("first seen: v3" in r.getMessage()
                   for r in caplog.records)

    def test_current_schema_does_not_warn(self, tmp_path, caplog):
        cache = ResultCache(str(tmp_path))
        records = run_sweep(SWEEP.expand()[:1], jobs=1, cache=cache)
        fresh = ResultCache(str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.harness.cache"):
            assert fresh.get(records[0].config_hash) is not None
        assert not [r for r in caplog.records
                    if "older record schemas" in r.getMessage()]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1
