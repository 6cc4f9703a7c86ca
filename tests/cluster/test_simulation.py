"""Tests for the cluster experiment runner."""

import gc
import weakref

import pytest

from repro.apps.workload import LOAD_LEVELS
from repro.cluster.datacenter import DatacenterConfig
from repro.cluster.frontend import FrontendConfig
from repro.cluster.simulation import Cluster, ExperimentConfig, run_experiment
from repro.harness.settings import RunSettings
from repro.sim.units import MS
from tests.probe_log import ProbeLog


def quick_config(**overrides):
    defaults = dict(
        app="apache",
        policy="perf",
        target_rps=24_000,
        warmup_ns=10 * MS,
        measure_ns=50 * MS,
        drain_ns=40 * MS,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestClusterBuild:
    def test_star_topology(self):
        cluster = Cluster(quick_config())
        assert len(cluster.clients) == 3
        assert sorted(cluster.switch.known_destinations) == [
            "client0", "client1", "client2", "server",
        ]

    def test_one_station_shard_run(self):
        cluster = Cluster(quick_config())
        assert cluster.shard.stations == [cluster.station]
        assert cluster.station.server.name == "server"
        assert [c.name for c in cluster.station.clients] == [
            "client0", "client1", "client2",
        ]
        assert cluster.sim is cluster.shard.sim

    def test_burst_size_defaults_per_app(self):
        assert Cluster(quick_config(app="apache")).burst_size == 200
        assert Cluster(quick_config(app="memcached")).burst_size == 75
        assert Cluster(quick_config(burst_size=42)).burst_size == 42


WINDOWED = {
    "experiment": ExperimentConfig,
    "datacenter": DatacenterConfig,
    "settings": lambda **window: RunSettings(
        **{"warmup_ns": MS, "measure_ns": 5 * MS, "drain_ns": MS, **window}
    ),
}


class TestRunWindow:
    @pytest.mark.parametrize("kind", sorted(WINDOWED))
    @pytest.mark.parametrize(
        "field,value",
        [("warmup_ns", -5 * MS), ("measure_ns", 0), ("measure_ns", -MS), ("drain_ns", -1)],
    )
    def test_bad_window_rejected_naming_the_field(self, kind, field, value):
        # Rejected on construction, before any simulator is built.
        with pytest.raises(ValueError, match=field):
            WINDOWED[kind](**{field: value})

    @pytest.mark.parametrize("kind", sorted(WINDOWED))
    def test_zero_warmup_and_drain_are_legal(self, kind):
        WINDOWED[kind](warmup_ns=0, drain_ns=0)

    def test_zero_warmup_and_drain_run(self):
        result = run_experiment(quick_config(warmup_ns=0, drain_ns=0))
        assert result.requests_sent > 0


def frontend_datacenter(**fields):
    return DatacenterConfig(
        frontend=FrontendConfig(n_users=100, burst_size=10), **fields
    )


WORKLOADS = {
    "experiment": ExperimentConfig,
    "datacenter": DatacenterConfig,
    "frontend": frontend_datacenter,
}


class TestWorkloadFields:
    @pytest.mark.parametrize(
        "kind,field,value",
        [
            ("experiment", "app", "bogus"),
            ("experiment", "target_rps", 0.0),
            ("experiment", "n_clients", 0),
            ("experiment", "burst_size", 0),
            ("datacenter", "app", "bogus"),
            ("datacenter", "total_rps", 0.0),
            ("datacenter", "clients_per_server", 0),
            ("frontend", "total_rps", 0.0),
        ],
    )
    def test_bad_field_rejected_naming_it(self, kind, field, value):
        # Rejected on construction, before any simulator is built.
        with pytest.raises(ValueError, match=field):
            WORKLOADS[kind](**{field: value})


class TestOfferedLoad:
    """A client sends one request per 1 us gap, so ``n`` clients offer at
    most ``n * 1e6`` RPS; a faster rate would need a burst period shorter
    than the burst."""

    @pytest.mark.parametrize("n_clients", [1, 3])
    def test_rate_above_the_clients_limit_rejected(self, n_clients):
        for rps in (1e12, n_clients * 1e6 + 1):
            with pytest.raises(ValueError, match=f"at most {n_clients}000000 with"):
                ExperimentConfig(target_rps=rps, n_clients=n_clients)

    @pytest.mark.parametrize("n_clients", [1, 3])
    def test_the_limit_itself_is_one_burst_per_period(self, n_clients):
        config = ExperimentConfig(target_rps=n_clients * 1e6, n_clients=n_clients)
        assert config.burst_period_ns == config.resolved_burst_size * 1_000

    @pytest.mark.parametrize("kind", ["datacenter", "frontend"])
    def test_fleet_checks_its_busiest_server_on_construction(self, kind):
        with pytest.raises(ValueError, match="target_rps must be at most"):
            WORKLOADS[kind](total_rps=1e12)

    def test_every_preset_load_accepted(self):
        for app, levels in LOAD_LEVELS.items():
            for level in levels.values():
                ExperimentConfig(app=app, target_rps=level.target_rps)


class TestRun:
    def test_measure_window_accounting(self):
        result = run_experiment(quick_config())
        assert result.responses_received > 0
        assert result.incomplete == 0  # drain long enough at this load
        assert result.achieved_rps == pytest.approx(24_000, rel=0.2)
        assert result.meets_sla

    def test_energy_positive_and_power_sane(self):
        result = run_experiment(quick_config())
        assert result.energy.energy_j > 0
        # A 4-core package tops out at ~80 W busy; idle-at-P0 floor ~44 W.
        assert 10 < result.avg_power_w < 85

    def test_ncap_stats_populated_for_ncap_policy(self):
        result = run_experiment(quick_config(policy="ncap.cons"))
        assert "it_high_posts" in result.ncap_stats

    def test_ncap_stats_empty_for_conventional(self):
        result = run_experiment(quick_config(policy="perf"))
        assert result.ncap_stats == {}

    def test_cstate_entries_only_with_cstates(self):
        with_idle = run_experiment(quick_config(policy="perf.idle"))
        without = run_experiment(quick_config(policy="perf"))
        assert sum(with_idle.cstate_entries.values()) > 0
        assert sum(without.cstate_entries.values()) == 0

    def test_traces_only_when_requested(self):
        plain = run_experiment(quick_config())
        log = ProbeLog()
        traced = run_experiment(quick_config(), sinks=[log], record_timeseries=True)
        assert plain.timeseries is None
        assert traced.timeseries is not None
        rx_bytes = sum(e.wire_bytes for e in log.events["nic.rx"])
        assert rx_bytes == traced.counters["nic.rx.bytes"] > 0
        assert len(traced.timeseries.get("cpu.util").values) > 0
        # Observers are pure: the traced run measures the same system.
        assert traced.latency == plain.latency
        assert traced.energy.energy_j == pytest.approx(plain.energy.energy_j, rel=1e-9)

    def test_determinism_same_seed(self):
        a = run_experiment(quick_config(policy="ncap.cons", seed=11))
        b = run_experiment(quick_config(policy="ncap.cons", seed=11))
        assert a.latency.p95_ns == b.latency.p95_ns
        assert a.energy.energy_j == pytest.approx(b.energy.energy_j, rel=1e-12)
        assert a.ncap_stats == b.ncap_stats

    def test_different_seeds_differ(self):
        a = run_experiment(quick_config(seed=1))
        b = run_experiment(quick_config(seed=2))
        assert a.latency.p95_ns != b.latency.p95_ns

    def test_normalized_latency_uses_app_sla(self):
        result = run_experiment(quick_config())
        norm = result.normalized_latency
        assert norm["p95"] == pytest.approx(
            result.latency.p95_ns / result.sla_ns
        )

    def test_clients_stop_at_window_end(self):
        config = quick_config()
        cluster = Cluster(config)
        cluster.run()
        sent_after = sum(
            1 for c in cluster.clients for s, _ in c.rtts
            if s >= config.warmup_ns + config.measure_ns
        )
        assert sent_after == 0


class TestKeepServer:
    def test_server_dropped_by_default(self):
        result = run_experiment(quick_config())
        assert result.server is None

    def test_server_kept_on_request(self):
        result = run_experiment(quick_config(), keep_server=True)
        assert result.server is not None
        assert result.server.name == "server"

    def test_result_picklable_without_server(self):
        import pickle

        result = run_experiment(quick_config())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.latency == result.latency
        assert clone.energy.energy_j == result.energy.energy_j

    def test_simulate_then_collect_split(self):
        cluster = Cluster(quick_config())
        cluster.simulate()
        dropped = cluster.collect()
        kept = cluster.collect(keep_server=True)
        assert dropped.server is None
        assert kept.server is cluster.server
        assert dropped.latency == kept.latency


def short_config(**overrides):
    return quick_config(warmup_ns=0, measure_ns=5 * MS, drain_ns=5 * MS, **overrides)


class TestRunLifetime:
    """``run_experiment`` frees the run it built before it returns, and
    leaves a caller's own collector settings alone."""

    def test_finished_run_is_freed(self, monkeypatch):
        sims = []
        run = Cluster.run

        def tracked(self, keep_server=False):
            sims.append(weakref.ref(self.sim))
            return run(self, keep_server=keep_server)

        monkeypatch.setattr(Cluster, "run", tracked)
        result = run_experiment(short_config())
        assert result.responses_received > 0
        assert sims[0]() is None
        assert gc.get_freeze_count() == 0

    def test_kept_server_survives(self):
        result = run_experiment(short_config(policy="ncap.cons"), keep_server=True)
        engine = result.server.engine
        assert engine.it_high_posts == result.ncap_stats["it_high_posts"]
        assert engine.it_low_posts == result.ncap_stats["it_low_posts"]

    def test_disabled_collector_left_alone(self):
        phases = []

        def watch(phase, info):
            phases.append(phase)

        gc.callbacks.append(watch)
        gc.disable()
        try:
            run_experiment(short_config())
            enabled = gc.isenabled()
            collections = list(phases)
        finally:
            gc.enable()
            gc.callbacks.remove(watch)
        assert not enabled
        assert collections == []

    def test_caller_frozen_objects_stay_frozen(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_experiment(short_config())
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_failed_run_unfreezes(self, monkeypatch):
        during = []

        def fail(self, keep_server=False):
            during.append(gc.get_freeze_count())
            raise RuntimeError("run failed")

        monkeypatch.setattr(Cluster, "run", fail)
        with pytest.raises(RuntimeError, match="run failed"):
            run_experiment(short_config())
        assert during[0] > 0
        assert gc.get_freeze_count() == 0
