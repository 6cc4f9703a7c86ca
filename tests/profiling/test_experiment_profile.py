"""``profile=`` as a run observer: populated results, unchanged hashes."""

import pytest

from repro.cluster.simulation import Cluster, ExperimentConfig, run_experiment
from repro.harness.hashing import config_hash
from repro.harness.settings import RunSettings
from repro.profiling import SimProfiler
from repro.sim.units import MS

TINY = RunSettings(warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=20 * MS, seed=3)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.from_settings(
        TINY, app="apache", policy="ncap.cons", target_rps=24_000.0
    )


class TestProfileObserver:
    def test_plain_run_has_no_profile(self, config):
        result = run_experiment(config)
        assert result.profile is None

    def test_profile_true_populates_result(self, config):
        result = run_experiment(config, profile=True)
        profile = result.profile
        assert profile is not None
        assert profile.events > 0
        assert profile.sim_ns == config.end_ns
        assert profile.handlers
        subsystems = {h.subsystem for h in profile.handlers}
        # A cluster run exercises handlers across the whole stack.
        assert {"net", "cpu", "apps"} <= subsystems
        share = profile.attributed_wall_ns / profile.loop_wall_ns
        assert share == pytest.approx(1.0, abs=0.01)

    def test_explicit_profiler_instance_is_used(self, config):
        # Building schedules nothing, so a profiler of the caller's own,
        # attached after construction, still times every event.
        cluster = Cluster(config)
        assert cluster.sim.heap_size() == 0
        profiler = SimProfiler()
        profiler.attach(cluster.sim)
        result = cluster.run()
        assert result.profile is None
        assert profiler.profile().events == cluster.sim.events_executed

    def test_profile_never_in_config_hash(self, config):
        # The observer changes nothing about the run's identity: the
        # hash is a pure function of the config, and the config
        # dataclass has no profile field for it to leak through.
        before = config_hash(config)
        run_experiment(config, profile=True)
        assert config_hash(config) == before
        assert not hasattr(config, "profile")

    def test_profiled_and_plain_runs_agree(self, config):
        plain = run_experiment(config)
        profiled = run_experiment(config, profile=True)
        assert profiled.responses_received == plain.responses_received
        assert profiled.latency.p99_ns == plain.latency.p99_ns
        assert profiled.energy.energy_j == plain.energy.energy_j
