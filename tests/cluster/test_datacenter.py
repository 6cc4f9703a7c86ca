"""Tests for the multi-server (datacenter) cluster builder."""

import pytest

from repro.apps.workload import default_burst_size
from repro.cluster.datacenter import DatacenterConfig, run_datacenter
from repro.cluster.sharding import ShardedDatacenterRun, conservative_window_ns
from repro.cluster.simulation import BURST_JITTER
from repro.sim.units import MS


def tiny_config(**overrides):
    defaults = dict(
        app="apache",
        policy="perf",
        n_servers=2,
        load_shares=(0.7, 0.3),
        total_rps=40_000,
        clients_per_server=2,
        warmup_ns=5 * MS,
        measure_ns=40 * MS,
        drain_ns=40 * MS,
        seed=9,
    )
    defaults.update(overrides)
    return DatacenterConfig(**defaults)


class TestValidation:
    def test_share_count_must_match_servers(self):
        with pytest.raises(ValueError):
            tiny_config(n_servers=3)

    def test_shares_must_be_positive(self):
        with pytest.raises(ValueError):
            tiny_config(load_shares=(1.0, 0.0))


class TestTopology:
    def test_all_nodes_routable(self):
        (shard,) = ShardedDatacenterRun(tiny_config(), jobs=1).inline_shards()
        expected = {"server0", "server1", "client0_0", "client0_1",
                    "client1_0", "client1_1"}
        assert set(shard.switch.known_destinations) == expected

    def test_load_split_by_share(self):
        (shard,) = ShardedDatacenterRun(tiny_config(), jobs=1).inline_shards()
        s0, s1 = shard.stations
        p0 = s0.clients[0].burst_period_ns
        p1 = s1.clients[0].burst_period_ns
        # 70/30 split: server1's clients burst ~2.33x less often.
        assert p1 / p0 == pytest.approx(7 / 3, rel=0.01)

    def test_servers_come_from_the_shared_builder(self):
        config = tiny_config(n_servers=4, load_shares=(0.4, 0.3, 0.2, 0.1))
        (shard,) = ShardedDatacenterRun(config, jobs=1).inline_shards()
        shares = config.resolved_shares()
        periods = []
        for i, station in enumerate(shard.stations):
            assert station.server.name == f"server{i}"
            assert [c.name for c in station.clients] == [f"client{i}_0", f"client{i}_1"]
            period = config.server_config(shares[i]).burst_period_ns
            for client in station.clients:
                assert client.jitter_fraction == BURST_JITTER
                assert client.burst_size == default_burst_size("apache")
                assert client.burst_period_ns == period
            periods.append(period)
        assert conservative_window_ns(config) == min(periods)


class TestRun:
    def test_per_server_outcomes(self):
        result = run_datacenter(tiny_config())
        assert len(result.servers) == 2
        hot, cold = result.servers
        assert hot.target_rps > cold.target_rps
        assert hot.utilization > cold.utilization
        assert hot.latency.count > 0 and cold.latency.count > 0
        assert result.total_energy_j == pytest.approx(
            sum(s.energy.energy_j for s in result.servers)
        )

    def test_servers_isolated(self):
        # Traffic for one server never shows up at the other.  The shards
        # are released once measured, so they are taken before execute().
        run = ShardedDatacenterRun(tiny_config(), jobs=1)
        (shard,) = run.inline_shards()
        run.execute()
        for station in shard.stations:
            sent = sum(c.requests_sent for c in station.clients)
            assert abs(station.server.app.requests_received - sent) < 30

    def test_ncap_policy_runs_fleetwide(self):
        result = run_datacenter(tiny_config(policy="ncap.cons"))
        assert all(s.latency.count > 0 for s in result.servers)
