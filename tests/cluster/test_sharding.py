"""Tests for conservative time-window sharded execution.

The headline contract: a sharded run — any shard count, serial or in
worker processes — merges to a fleet ResultRecord byte-identical (JSON
and sha256) to the single-process run.
"""

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import BrokenExecutor
from dataclasses import replace

import pytest

from repro.cluster.datacenter import DatacenterConfig, run_datacenter
from repro.cluster.frontend import FrontendConfig
from repro.cluster.sharding import (
    ShardedDatacenterRun,
    _ShardHost,
    conservative_window_ns,
    shard_plan,
)
from repro.sim.units import MS


def record_sha(result):
    payload = json.dumps(
        result.record.to_json_dict(), sort_keys=True
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def client_config(**overrides):
    base = dict(
        app="apache",
        policy="ncap.cons",
        n_servers=4,
        total_rps=60_000.0,
        clients_per_server=2,
        warmup_ns=5 * MS,
        measure_ns=20 * MS,
        drain_ns=15 * MS,
        seed=7,
    )
    base.update(overrides)
    return DatacenterConfig(**base)


def frontend_config(**overrides):
    base = dict(
        app="memcached",
        policy="ncap.cons",
        n_servers=4,
        load_shares="uniform",
        total_rps=80_000.0,
        warmup_ns=5 * MS,
        measure_ns=20 * MS,
        drain_ns=15 * MS,
        seed=11,
        frontend=FrontendConfig(
            n_users=5_000, spray="po2", burst_size=75,
            intra_burst_gap_ns=1_000, dispatch_latency_ns=1 * MS,
        ),
    )
    base.update(overrides)
    return DatacenterConfig(**base)


class TestShardPlan:
    def test_contiguous_and_exhaustive(self):
        plan = shard_plan(10, 3)
        assert plan == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_one_shard_is_everything(self):
        assert shard_plan(4, 1) == [[0, 1, 2, 3]]

    def test_one_server_per_shard(self):
        assert shard_plan(3, 3) == [[0], [1], [2]]

    def test_more_shards_than_servers_rejected(self):
        with pytest.raises(ValueError):
            shard_plan(2, 3)


class TestWindow:
    def test_client_mode_window_is_min_burst_period(self):
        config = client_config()
        w = conservative_window_ns(config)
        assert w >= 1
        # The busiest server (largest share) has the shortest period.
        from repro.apps.workload import burst_period_ns, default_burst_size

        shares = config.resolved_shares()
        expected = min(
            burst_period_ns(
                config.total_rps * s,
                config.clients_per_server,
                default_burst_size(config.app),
            )
            for s in shares
        )
        assert w == expected

    def test_frontend_mode_window_is_dispatch_latency(self):
        config = frontend_config()
        assert conservative_window_ns(config) == 1 * MS

    def test_window_above_dispatch_latency_rejected(self):
        with pytest.raises(ValueError):
            ShardedDatacenterRun(
                frontend_config(), jobs=1, window_ns=2 * MS
            )

    @pytest.mark.parametrize("window_ns", [0, -1])
    def test_nonpositive_window_rejected(self, window_ns):
        # A negative window would never let execute() return, and 0
        # would read as "use the default".
        with pytest.raises(ValueError, match="window_ns"):
            ShardedDatacenterRun(client_config(), jobs=1, window_ns=window_ns)


class TestShardParityClientMode:
    def test_shard_count_and_pool_invariance(self):
        config = client_config()
        serial = run_datacenter(replace(config, n_shards=1), jobs=1)
        sharded = run_datacenter(replace(config, n_shards=2), jobs=1)
        pooled = run_datacenter(replace(config, n_shards=2), jobs=2)
        assert record_sha(serial) == record_sha(sharded) == record_sha(pooled)
        assert serial.record.responses_received > 0

    def test_window_size_invariance(self):
        # Client mode has no inter-shard events: windows are pure sync
        # points and any size gives identical results.
        config = client_config(n_shards=2)
        default = run_datacenter(config, jobs=1)
        small = run_datacenter(config, jobs=1, window_ns=1 * MS)
        large = run_datacenter(config, jobs=1, window_ns=40 * MS)
        assert record_sha(default) == record_sha(small) == record_sha(large)

    def test_per_server_outcomes_match(self):
        config = client_config()
        serial = run_datacenter(replace(config, n_shards=1), jobs=1)
        pooled = run_datacenter(replace(config, n_shards=4), jobs=2)
        for a, b in zip(serial.servers, pooled.servers):
            assert a.server == b.server
            assert a.latency.count == b.latency.count
            if a.latency.count:  # nan != nan on idle servers
                assert a.latency.p99_ns == b.latency.p99_ns
            assert a.energy.energy_j == b.energy.energy_j
            assert a.utilization == b.utilization


class TestShardParityFrontendMode:
    def test_shard_count_and_pool_invariance(self):
        config = frontend_config()
        serial = run_datacenter(replace(config, n_shards=1), jobs=1)
        sharded = run_datacenter(replace(config, n_shards=4), jobs=1)
        two_serial = run_datacenter(replace(config, n_shards=2), jobs=1)
        pooled = run_datacenter(replace(config, n_shards=2), jobs=2)
        assert (
            record_sha(serial)
            == record_sha(sharded)
            == record_sha(two_serial)
            == record_sha(pooled)
        )
        assert serial.record.responses_received > 0


class TestRecordedShardParity:
    def test_recorded_run_merges_identically(self):
        config = client_config()
        serial = run_datacenter(
            replace(config, n_shards=1), jobs=1, record_timeseries=True
        )
        pooled = run_datacenter(
            replace(config, n_shards=2), jobs=2, record_timeseries=True
        )
        assert serial.record.timeseries  # something was recorded
        assert record_sha(serial) == record_sha(pooled)

    def test_series_prefixed_by_server(self):
        config = client_config()
        result = run_datacenter(config, jobs=1, record_timeseries=True)
        names = {s["name"] for s in result.record.timeseries["series"]}
        assert any(n.startswith("server0.") for n in names)


class TestResultShape:
    def test_config_hash_independent_of_shards(self):
        config = client_config()
        serial = run_datacenter(replace(config, n_shards=1), jobs=1)
        sharded = run_datacenter(replace(config, n_shards=2), jobs=1)
        assert serial.record.config_hash == sharded.record.config_hash

    def test_shard_stats_reported(self):
        result = run_datacenter(client_config(n_shards=2), jobs=1)
        assert len(result.shards) == 2
        assert result.shards[0].server_indices == [0, 1]
        assert all(s.events > 0 for s in result.shards)
        assert all(s.wall_s > 0 for s in result.shards)
        assert result.shard_speedup >= 1.0

    def test_profile_attaches_per_shard(self):
        result = run_datacenter(
            client_config(n_shards=2), jobs=1, profile=True
        )
        assert all(s.profile for s in result.shards)

    def test_merged_record_round_trips_through_schema(self):
        from repro.harness.record import ResultRecord

        result = run_datacenter(
            client_config(n_shards=2), jobs=1, record_timeseries=True
        )
        clone = ResultRecord.from_json_dict(result.record.to_json_dict())
        assert clone.to_json_dict() == result.record.to_json_dict()
        assert clone.responses_received == result.record.responses_received
        assert clone.timeseries == result.record.timeseries


class TestDeadWorker:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched advance only when they are forked",
    )
    def test_error_names_the_shards_and_the_window(self, monkeypatch):
        config = client_config(n_shards=2)
        window = conservative_window_ns(config)
        advance = _ShardHost.advance

        def dying_advance(host, until_ns, injections):
            if 1 in host.shards and until_ns > window:
                os._exit(3)
            return advance(host, until_ns, injections)

        monkeypatch.setattr(_ShardHost, "advance", dying_advance)
        run = ShardedDatacenterRun(config, jobs=2)
        with pytest.raises(RuntimeError) as info:
            run.execute()
        assert str(info.value).startswith(
            f"window [{window}, {2 * window}) ns on shards [1] did not "
            f"complete: a pool worker died"
        )
        assert isinstance(info.value.__cause__, BrokenExecutor)
