"""One ``Observers`` value: purity of every observer, and rejection of the
observers a run kind cannot carry.

An observer fills its own record section and nothing else.  Every field
of :class:`~repro.cluster.simulation.Observers` has a case below, run
alone against the plain record; a field without a case fails the suite.
"""

import json
from dataclasses import fields

import pytest

from repro.analysis.attribution import AttributionSink
from repro.cluster.datacenter import DatacenterConfig, run_datacenter
from repro.cluster.frontend import FrontendConfig
from repro.cluster import simulation
from repro.cluster.sharding import ShardedDatacenterRun
from repro.cluster.simulation import (
    FLEET_ONLY,
    SINGLE_RUN_ONLY,
    Cluster,
    ExperimentConfig,
    Observers,
    run_experiment,
)
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.profiling import SimProfiler
from repro.sim.units import MS
from repro.telemetry.monitor import RunMonitor

#: Record sections only observers fill.
OBSERVER_SECTIONS = ("attribution", "timeseries", "profile", "fleet", "energy_attribution")
#: The flight recorder's ``PowerMeter.sync()`` splits the energy integral,
#: so recorded energy differs from plain in the last digits: a documented
#: deviation, compared at this relative tolerance.
ENERGY_FIELDS = ("energy_j", "avg_power_w", "energy_by_mode_j")
ENERGY_REL_TOL = 1e-12

SINGLE = ExperimentConfig(
    app="apache", policy="ncap.cons", target_rps=24_000.0,
    warmup_ns=5 * MS, measure_ns=20 * MS, drain_ns=10 * MS, seed=1,
)
FLEET = DatacenterConfig(
    app="memcached", n_servers=4, n_shards=2, load_shares="uniform",
    total_rps=40_000.0, warmup_ns=5 * MS, measure_ns=15 * MS,
    drain_ns=10 * MS, seed=1,
    frontend=FrontendConfig(
        n_users=2_000, spray="po2", burst_size=50,
        intra_burst_gap_ns=1_000, dispatch_latency_ns=1 * MS,
    ),
)


def _monitor() -> RunMonitor:
    return RunMonitor("-", interval_s=3600.0)


#: Field -> (run kind, keywords factory, proof the observer ran).  The
#: proof reads the built run and its result.
CASES = {
    "sinks": (
        "single", lambda: dict(sinks=[AttributionSink()]),
        lambda run, result: result.attribution is not None,
    ),
    "audit": (
        "single", lambda: dict(audit=True),
        lambda run, result: run.auditor is not None,
    ),
    "record_timeseries": (
        "fleet", lambda: dict(record_timeseries="coarse"),
        lambda run, result: bool(result.record.timeseries),
    ),
    "profile": (
        "fleet", lambda: dict(profile=True),
        lambda run, result: all(s.profile for s in result.shards),
    ),
    "energy_attribution": (
        "fleet", lambda: dict(energy_attribution=True),
        lambda run, result: bool(result.record.energy_attribution),
    ),
    "trace_requests": (
        "fleet", lambda: dict(trace_requests=16),
        lambda run, result: bool(result.record.fleet),
    ),
    "profile_fleet": (
        "fleet", lambda: dict(profile_fleet=True),
        lambda run, result: result.fleet_profile is not None,
    ),
    "monitor": (
        "fleet", lambda: dict(monitor=_monitor()),
        lambda run, result: run.observers.monitor.emitted[0]["type"] == "begin",
    ),
}

def all_single() -> dict:
    """Every single-run observer at once."""
    return dict(
        sinks=[AttributionSink()],
        audit=True,
        record_timeseries="coarse",
        profile=True,
        energy_attribution=True,
    )


def all_fleet() -> dict:
    """Every fleet observer at once."""
    return dict(
        record_timeseries="coarse",
        profile=True,
        energy_attribution=True,
        trace_requests=16,
        profile_fleet=True,
        monitor=_monitor(),
    )


def run_single(**observers):
    cluster = Cluster(SINGLE, **observers)
    result = cluster.run()
    record = ResultRecord.from_result(
        result, config_hash=config_hash(SINGLE), seed=SINGLE.seed
    )
    return cluster, result, record


def run_fleet(**observers):
    run = ShardedDatacenterRun(FLEET, jobs=1, **observers)
    result = run.execute()
    return run, result, result.record


RUNS = {"single": run_single, "fleet": run_fleet}


@pytest.fixture(scope="module")
def plain():
    return {kind: RUNS[kind]()[2] for kind in RUNS}


def assert_pure(plain: ResultRecord, observed: ResultRecord) -> None:
    """``observed`` equals ``plain`` outside the observer sections, with
    energy at the recorder's documented tolerance."""
    a, b = plain.to_json_dict(), observed.to_json_dict()
    assert a.keys() == b.keys()
    for key in a:
        if key in OBSERVER_SECTIONS:
            continue
        if key not in ENERGY_FIELDS:
            assert b[key] == a[key], key
        elif isinstance(a[key], dict):
            assert b[key].keys() == a[key].keys(), key
            for mode, joules in a[key].items():
                assert b[key][mode] == pytest.approx(joules, rel=ENERGY_REL_TOL), key
        else:
            assert b[key] == pytest.approx(a[key], rel=ENERGY_REL_TOL), key


class TestPurity:
    @pytest.mark.parametrize("name", [f.name for f in fields(Observers)])
    def test_each_observer_alone_leaves_the_record(self, plain, name):
        kind, keywords, ran = CASES[name]
        run, result, record = RUNS[kind](**keywords())
        assert ran(run, result), f"{name} observed nothing"
        assert_pure(plain[kind], record)

    def test_every_case_is_a_field(self):
        assert set(CASES) == {f.name for f in fields(Observers)}

    def test_all_single_run_observers_together(self, plain):
        _, result, record = run_single(**all_single())
        assert result.attribution and result.timeseries
        assert result.profile and result.energy_attribution
        assert_pure(plain["single"], record)

    def test_all_fleet_observers_together(self, plain):
        _, result, record = run_fleet(**all_fleet())
        assert record.timeseries and record.fleet and record.energy_attribution
        assert result.fleet_profile is not None
        assert_pure(plain["fleet"], record)


class TestRejection:
    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="streaming_latency"):
            run_experiment(SINGLE, streaming_latency=True)
        with pytest.raises(TypeError, match="bogus"):
            run_datacenter(FLEET, jobs=1, bogus=True)

    @pytest.mark.parametrize("name", FLEET_ONLY)
    def test_single_run_rejects_fleet_observers(self, name):
        value = all_fleet()[name]
        with pytest.raises(ValueError, match=name):
            Cluster(SINGLE, **{name: value})

    @pytest.mark.parametrize("name", SINGLE_RUN_ONLY)
    def test_fleet_rejects_single_run_observers(self, name):
        value = all_single()[name]
        with pytest.raises(ValueError, match=name):
            ShardedDatacenterRun(FLEET, jobs=1, **{name: value})

    def test_rejection_names_every_offender(self):
        with pytest.raises(ValueError, match="trace_requests, profile_fleet"):
            run_experiment(SINGLE, trace_requests=True, profile_fleet=True)

    @pytest.mark.parametrize("kind", sorted(RUNS))
    def test_profiler_instance_is_a_type_error(self, kind):
        with pytest.raises(TypeError, match="profile"):
            RUNS[kind](profile=SimProfiler())

    @pytest.mark.parametrize("build, error, match", [
        (lambda: run_experiment(SINGLE, record_timeseries="ultra"),
         ValueError, "ultra"),
        (lambda: ShardedDatacenterRun(FLEET, jobs=1, monitor=3.5),
         TypeError, "monitor"),
        (lambda: ShardedDatacenterRun(FLEET, jobs=1, trace_requests="x"),
         TypeError, "trace_requests"),
    ], ids=["record_timeseries", "monitor", "trace_requests"])
    def test_bad_observer_value_fails_before_any_simulator(
        self, build, error, match, monkeypatch
    ):
        def no_simulator():
            raise AssertionError("a simulator was built")

        monkeypatch.setattr(simulation, "Simulator", no_simulator)
        with pytest.raises(error, match=match):
            build()


class TestMonitorFile:
    def test_each_run_truncates_its_path(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        for _ in range(2):
            run_datacenter(FLEET, jobs=1, monitor=str(path))
        kinds = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert kinds[0] == "begin" and kinds[-1] == "end"
        assert kinds.count("begin") == 1 and kinds.count("end") == 1
