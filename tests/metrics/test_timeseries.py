"""Tests for the utilization source and the recorded-series helpers."""

import pytest

from repro.cluster.recording import utilization_source
from repro.cpu import Job, ProcessorConfig
from repro.metrics import (
    bandwidth_series_mbps,
    counter_bins,
    normalized_series,
    window_points,
)
from repro.sim import Simulator
from repro.sim.units import MS
from repro.telemetry.recorder import SeriesData, TimeSeriesRecorder


def _recorder(sim, package, bin_ns=MS):
    """A recorder sampling mean core utilization only."""
    recorder = TimeSeriesRecorder(sim, interval_ns=bin_ns)
    recorder.add_source("cpu.util", utilization_source(package, bin_ns))
    return recorder


def _util(recorder):
    return recorder.buffer("cpu.util")


class _ReferenceSampler:
    """The original (pre-recorder) utilization sampler, verbatim apart
    from where it stores its bins, as the parity oracle for
    ``utilization_source`` on the flight recorder."""

    def __init__(self, sim, package, bin_ns=1 * MS):
        self._sim = sim
        self._package = package
        self.bin_ns = bin_ns
        self._last_busy = package.busy_ns_per_core()
        self._running = False
        self.times = []
        self.values = []

    def start(self):
        if self._running:
            return
        self._running = True
        self._last_busy = self._package.busy_ns_per_core()
        self._sim.schedule(self.bin_ns, self._sample)

    def _sample(self):
        if not self._running:
            return
        busy = self._package.busy_ns_per_core()
        deltas = [b - last for b, last in zip(busy, self._last_busy)]
        self._last_busy = busy
        mean_util = sum(deltas) / (len(deltas) * self.bin_ns)
        self.times.append(self._sim.now)
        self.values.append(min(1.0, mean_util))
        self._sim.schedule(self.bin_ns, self._sample)


class TestUtilizationSource:
    def test_samples_busy_fraction(self):
        sim = Simulator()
        package = ProcessorConfig(n_cores=2).build_package(sim)
        recorder = _recorder(sim, package)
        recorder.start()
        # Core 0 busy for exactly half of the first bin.
        package.cores[0].dispatch(Job(3.1e9 * 500e-6))
        sim.run(until=2 * MS)
        values = _util(recorder).values
        # Mean across 2 cores: core0 50%, core1 0% -> 25%.
        assert values[0] == pytest.approx(0.25, abs=0.01)
        assert values[1] == pytest.approx(0.0, abs=0.01)

    def test_stop(self):
        sim = Simulator()
        package = ProcessorConfig(n_cores=1).build_package(sim)
        recorder = _recorder(sim, package)
        recorder.start()
        sim.schedule_at(int(2.5 * MS), recorder.stop)
        sim.run(until=10 * MS)
        assert len(_util(recorder)) == 2

    def test_start_idempotent(self):
        sim = Simulator()
        package = ProcessorConfig(n_cores=1).build_package(sim)
        recorder = _recorder(sim, package)
        recorder.start()
        recorder.start()
        sim.run(until=MS)
        assert len(_util(recorder)) == 1

    def test_restart_after_stop_does_not_double_schedule(self):
        # Regression: the original sampler left its queued callback alive
        # across stop(), so stop() + start() before the callback fired
        # stacked a second sampling chain and produced duplicate bins.
        sim = Simulator()
        package = ProcessorConfig(n_cores=1).build_package(sim)
        recorder = _recorder(sim, package)
        recorder.start()
        sim.run(until=int(1.5 * MS))
        recorder.stop()
        recorder.start()  # first chain's next tick (t=2ms) still queued
        sim.run(until=5 * MS)
        times = list(_util(recorder).times)
        assert times == sorted(set(times)), "duplicate bins: two chains"
        assert times == [MS, int(2.5 * MS), int(3.5 * MS), int(4.5 * MS)]

    def test_parity_with_original_implementation(self):
        # The recorder and the verbatim original math, driven by the same
        # simulation, must bin identically.
        sim = Simulator()
        package = ProcessorConfig(n_cores=2).build_package(sim)
        recorder = _recorder(sim, package)
        reference = _ReferenceSampler(sim, package, bin_ns=MS)
        recorder.start()
        reference.start()
        # Staggered work so bins land at varied fractions.
        for i, us in enumerate((200, 750, 0, 1000, 333)):
            if us:
                sim.schedule_at(
                    i * MS + 100_000,
                    (lambda core, n: lambda: core.dispatch(Job(3.1e9 * n * 1e-6)))(
                        package.cores[i % 2], us * 0.8
                    ),
                )
        sim.run(until=6 * MS)
        series = _util(recorder)
        assert series.times == reference.times
        assert series.values == reference.values  # bit-identical bins


class TestBandwidthSeries:
    def test_bytes_to_mbps(self):
        # 125 KB in a 1 ms bin = 1 Gb/s.
        rx = SeriesData("rx", "counter", 1, times=[0, MS], values=[0.0, 125_000.0])
        series = bandwidth_series_mbps(rx, 0, MS)
        assert series == [(0, pytest.approx(1000.0))]

    def test_bins_labelled_by_start_and_cut_to_window(self):
        rx = SeriesData(
            "rx", "counter", 1,
            times=[MS, 2 * MS, 3 * MS, 4 * MS], values=[10.0, 30.0, 60.0, 100.0],
        )
        assert counter_bins(rx, 2 * MS, 4 * MS) == [
            (2 * MS, MS, 30.0), (3 * MS, MS, 40.0),
        ]


class TestWindowPoints:
    def test_window_is_inclusive(self):
        util = SeriesData(
            "cpu.util", "gauge", 1,
            times=[MS, 2 * MS, 3 * MS, 4 * MS], values=[0.1, 0.2, 0.3, 0.4],
        )
        assert window_points(util, 2 * MS, 3 * MS) == [(2 * MS, 0.2), (3 * MS, 0.3)]


class TestNormalizedSeries:
    def test_normalizes_to_peak(self):
        series = [(0, 2.0), (1, 8.0), (2, 4.0)]
        assert normalized_series(series) == [(0, 0.25), (1, 1.0), (2, 0.5)]

    def test_all_zero_series(self):
        assert normalized_series([(0, 0.0), (1, 0.0)]) == [(0, 0.0), (1, 0.0)]

    def test_empty(self):
        assert normalized_series([]) == []
