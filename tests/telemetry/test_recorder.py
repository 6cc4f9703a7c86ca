"""Flight-recorder tests: ring decimation, lifecycle, cluster wiring."""

import pytest

from repro.cluster.simulation import Cluster, ExperimentConfig, run_experiment
from repro.harness import Runner
from repro.sim import Simulator
from repro.sim.units import MS, US
from repro.telemetry import (
    RecorderConfig,
    TimeseriesBundle,
    TimeSeriesRecorder,
    resolve_recorder_config,
)
from repro.telemetry.recorder import DEFAULT_CAPACITY, SeriesBuffer, SeriesData
from tests.metrics.test_timeseries import _ReferenceSampler
from tests.probe_log import ProbeLog


class TestSeriesBuffer:
    def test_retains_on_stride_grid(self):
        buffer = SeriesBuffer("s", "gauge", capacity=4)
        for i in range(8):
            buffer.append(i * 10, float(i))
        # Filled at 4 samples -> decimated to evens, stride 2; later
        # samples retained only on the doubled grid.
        assert buffer.stride in (2, 4)
        times = buffer.times
        spacing = {b - a for a, b in zip(times, times[1:])}
        assert len(spacing) == 1  # uniform grid survives decimation

    def test_origin_sample_always_survives(self):
        buffer = SeriesBuffer("s", "gauge", capacity=4)
        for i in range(64):
            buffer.append(i, float(i))
        assert buffer.times[0] == 0

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            SeriesBuffer("s", "gauge", capacity=2)


class TestRecorderLifecycle:
    def _recorder(self, sim, interval_ns=MS):
        recorder = TimeSeriesRecorder(sim, interval_ns=interval_ns)
        ticks = []

        def source():
            ticks.append(sim.now)
            return float(len(ticks))

        recorder.add_source("t", source)
        return recorder, ticks

    def test_start_idempotent(self):
        sim = Simulator()
        recorder, ticks = self._recorder(sim)
        recorder.start()
        recorder.start()
        sim.run(until=MS)
        assert ticks == [MS]

    def test_restart_after_stop_never_double_schedules(self):
        # Regression for the old utilization sampler's bug: stop() left its
        # queued callback alive, so a start() before it fired stacked a
        # second sampling chain (duplicate samples per interval).
        sim = Simulator()
        recorder, ticks = self._recorder(sim)
        recorder.start()
        sim.run(until=int(1.5 * MS))
        recorder.stop()
        recorder.start()  # pending event from the first chain not yet due
        sim.run(until=4 * MS)
        assert ticks == sorted(set(ticks)), "duplicate samples: two chains"
        # Restarted chain ticks at 1.5+1, 1.5+2, ... ms.
        assert ticks == [MS, int(2.5 * MS), int(3.5 * MS)]

    def test_stop_cancels_pending(self):
        sim = Simulator()
        recorder, ticks = self._recorder(sim)
        recorder.start()
        sim.schedule_at(int(2.5 * MS), recorder.stop)
        sim.run(until=10 * MS)
        assert ticks == [MS, 2 * MS]

    def test_duplicate_series_rejected(self):
        recorder = TimeSeriesRecorder(Simulator())
        recorder.add_source("x", lambda: 0.0)
        with pytest.raises(ValueError, match="already declared"):
            recorder.add_source("x", lambda: 1.0)

    def test_registry_series_need_telemetry(self):
        recorder = TimeSeriesRecorder(Simulator())
        with pytest.raises(ValueError, match="Telemetry"):
            recorder.add_stat("nic.rx.bytes")


class TestResolveConfig:
    def test_none_and_false(self):
        assert resolve_recorder_config(None) is None
        assert resolve_recorder_config(False) is None

    def test_true_is_coarse(self):
        assert resolve_recorder_config(True) == RecorderConfig.coarse()

    def test_presets(self):
        assert resolve_recorder_config("coarse").interval_ns == MS
        assert resolve_recorder_config("fine").interval_ns == MS // 10

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown recorder preset"):
            resolve_recorder_config("ultra")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_recorder_config(3.5)


TINY = dict(
    app="apache", policy="ond.idle", target_rps=24_000.0,
    warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=15 * MS,
)


def _bundle_json(args):
    """Module-level pool worker: run one recorded experiment, return the
    serialized bundle (plain JSON data crosses the pool boundary)."""
    seed, interval_ns = args
    config = ExperimentConfig(seed=seed, **TINY)
    result = run_experiment(
        config, record_timeseries=RecorderConfig(interval_ns=interval_ns)
    )
    return result.timeseries.to_json_dict()


class TestDeterminism:
    def test_serial_and_pool_bundles_identical(self):
        # A 10 us cadence over the 50 ms run offers 5,000 samples per
        # series, more than the ring holds, so every series decimates; the
        # retained grid must depend only on the sample count, so serial
        # and process-pool runs of the same seed agree exactly.
        run_ns = TINY["warmup_ns"] + TINY["measure_ns"] + TINY["drain_ns"]
        assert run_ns // (10 * US) > DEFAULT_CAPACITY
        items = [(7, 10 * US), (8, 10 * US)]
        serial = Runner(jobs=1).map(_bundle_json, items)
        pooled = Runner(jobs=2).map(_bundle_json, items)
        assert serial == pooled
        strides = {s["name"]: s["stride"] for s in serial[0]["series"]}
        assert strides["cpu.util"] >= 2  # decimation actually happened

    def test_same_seed_reproduces(self):
        assert _bundle_json((5, MS)) == _bundle_json((5, MS))


class TestBundleJson:
    def test_payload_with_watchpoint_keys_loads_unchanged(self):
        # Records cached before the watchpoint feature was removed carry
        # two always-empty keys in their timeseries section; they load to
        # the same bundle as a payload without them.
        bundle = TimeseriesBundle(
            interval_ns=MS, start_ns=0, end_ns=2 * MS,
            series=[SeriesData("cpu.util", "gauge", 1, [MS, 2 * MS], [0.25, 0.5])],
        )
        payload = bundle.to_json_dict()
        assert set(payload) == {"interval_ns", "start_ns", "end_ns", "series"}
        cached = dict(payload, windows=[], fired=[])
        assert TimeseriesBundle.from_json_dict(cached) == bundle
        assert TimeseriesBundle.from_json_dict(payload) == bundle


class TestClusterWiring:
    @pytest.fixture(scope="class")
    def traced(self):
        log = ProbeLog(points=("cpu.pstate",))
        config = ExperimentConfig(seed=4, **TINY)
        return run_experiment(config, record_timeseries="coarse", sinks=[log]), log

    @pytest.fixture(scope="class")
    def result(self, traced):
        return traced[0]

    def test_standard_series_present(self, result):
        names = result.timeseries.names()
        for expected in ("cpu.freq_ghz", "cpu.util", "power.watts",
                         "runq.depth", "nic.rx_ring", "nic.rx.bytes",
                         "app.requests"):
            assert expected in names
        assert any(n.startswith("core") and n.endswith(".cstate") for n in names)

    def test_legacy_util_channel_parity(self):
        # The recorded cpu.util series is bit-identical with the original
        # utilization sampler's bins, run alongside on the same cluster.
        cluster = Cluster(ExperimentConfig(seed=4, **TINY), record_timeseries="coarse")
        reference = _ReferenceSampler(cluster.sim, cluster.server.package, bin_ns=MS)
        reference.start()
        series = cluster.run().timeseries.get("cpu.util")
        assert series.times == reference.times
        assert series.values == reference.values

    def test_freq_matches_trace_channel_bin_for_bin(self, traced):
        # Every 1 ms frequency sample equals the step function of the
        # exact P-state transitions seen on the probe bus.
        result, log = traced
        series = result.timeseries.get("cpu.freq_ghz")
        assert len(log.events["cpu.pstate"]) > 1
        for t, v in zip(series.times, series.values):
            assert log.freq_ghz_at(t) == v

    def test_counters_cumulative(self, result):
        rx = result.timeseries.get("nic.rx.bytes")
        assert rx.kind == "counter"
        assert rx.values == sorted(rx.values)
        assert rx.values[-1] > 0

    def test_no_recorder_no_bundle(self):
        config = ExperimentConfig(seed=4, **TINY)
        result = run_experiment(config)
        assert result.timeseries is None

    def test_observer_does_not_change_measurements(self):
        config = ExperimentConfig(seed=6, **TINY)
        plain = run_experiment(config)
        recorded = run_experiment(config, record_timeseries="coarse")
        assert recorded.latency.p99_ns == plain.latency.p99_ns
        assert recorded.requests_sent == plain.requests_sent
        assert recorded.energy.energy_j == pytest.approx(
            plain.energy.energy_j, rel=1e-9
        )

    def test_bundle_round_trip(self, result):
        data = result.timeseries.to_json_dict()
        clone = TimeseriesBundle.from_json_dict(data)
        assert clone.to_json_dict() == data
