"""Watchpoint tests: predicates, trip -> hi-res capture, probe emission."""

import pytest

from repro.sim import Simulator
from repro.sim.units import MS
from repro.telemetry import (
    ChromeTraceSink,
    Telemetry,
    TimeSeriesRecorder,
    Watchpoint,
    WatchpointFired,
    quantile_above,
    rate_above,
    spike,
    threshold_above,
    threshold_below,
)


def _driven_recorder(sim, telemetry=None, values=(), interval_ns=MS):
    """A recorder sampling a scripted series ``load`` (one value per tick)."""
    recorder = TimeSeriesRecorder(sim, telemetry=telemetry, interval_ns=interval_ns)
    script = list(values)

    def source() -> float:
        index = min(sim.now // interval_ns - 1, len(script) - 1)
        return float(script[index]) if script else 0.0

    recorder.add_source("load", source)
    return recorder


class TestPredicates:
    def _view(self, values):
        from repro.telemetry.recorder import SeriesBuffer
        from repro.telemetry.triggers import SeriesView

        buffer = SeriesBuffer("s", "gauge", capacity=1024)
        for i, v in enumerate(values):
            buffer.append(i * MS, float(v))
        return SeriesView("s", MS, buffer)

    def test_threshold_above(self):
        predicate = threshold_above(5.0)
        assert not predicate(self._view([1, 5]))
        assert predicate(self._view([1, 6]))
        assert "5" in predicate.description

    def test_threshold_below(self):
        predicate = threshold_below(2.0)
        assert predicate(self._view([3, 1]))
        assert not predicate(self._view([3, 2]))

    def test_quantile_above(self):
        predicate = quantile_above(0.99, 8.0, window=10)
        assert not predicate(self._view([1] * 10))
        assert predicate(self._view([1] * 9 + [100]))

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            quantile_above(1.5, 1.0)
        with pytest.raises(ValueError):
            quantile_above(0.5, 1.0, window=1)

    def test_rate_above(self):
        # 1000 units in 1 ms = 1e6/s.
        predicate = rate_above(5e5)
        assert predicate(self._view([0, 1000]))
        assert not predicate(self._view([0, 100]))

    def test_spike(self):
        predicate = spike(factor=4.0, window=8)
        steady = [10, 20, 30, 40, 50, 60, 70]
        assert not predicate(self._view(steady))
        assert predicate(self._view(steady + [200]))

    def test_spike_validation(self):
        with pytest.raises(ValueError):
            spike(factor=1.0)
        with pytest.raises(ValueError):
            spike(window=2)


class TestWatchpointFiring:
    def test_trip_opens_hires_window_and_emits_probe(self):
        sim = Simulator()
        telemetry = Telemetry()
        sink = ChromeTraceSink()
        telemetry.add_sink(sink)
        fired_events = []
        telemetry.probes.subscribe("telemetry.watchpoint", fired_events.append)

        values = [0, 0, 0, 9, 9, 0, 0, 0, 0, 0]
        recorder = _driven_recorder(sim, telemetry, values)
        watchpoint = Watchpoint(
            "overload", "load", threshold_above(5.0),
            capture_ns=2 * MS, hires_factor=4,
        )
        recorder.add_watchpoint(watchpoint)
        recorder.start()
        sim.run(until=10 * MS)

        bundle = recorder.bundle()
        # Fired exactly once (edge-triggered, quiet during capture).
        assert watchpoint.fire_count == 1
        assert len(bundle.fired) == 1
        record = bundle.fired[0]
        assert record.name == "overload"
        assert record.series == "load"
        assert record.t_ns == 4 * MS
        assert record.value == 9.0

        # Typed probe event reached subscribers.
        assert len(fired_events) == 1
        event = fired_events[0]
        assert isinstance(event, WatchpointFired)
        assert event.name == "overload" and event.t_ns == 4 * MS

        # Chrome-trace instant marker present.
        instants = [e for e in sink.trace_events()
                    if e.get("name") == "watchpoint.overload"]
        assert len(instants) == 1
        assert instants[0]["ph"] == "i"

        # Hi-res window sampled at interval/4 for the capture span.
        assert len(bundle.windows) == 1
        window = bundle.windows[0]
        assert window.interval_ns == MS // 4
        assert window.start_ns == 4 * MS
        hires = window.series["load"]
        assert len(hires.times) >= 8  # 2 ms window at 250 us cadence
        assert all(t > 4 * MS for t in hires.times)

        # The firing is kept in the bundle alone: the registry, whose
        # snapshot is a record's counters, is left as a plain run leaves it.
        assert telemetry.stats.get("recorder.watchpoints.fired") is None

    def test_rearm_on_clear(self):
        sim = Simulator()
        # Two separate excursions with a clear gap -> two windows; the
        # sustained second half of excursion one never re-fires.
        values = [0, 9, 9, 9, 9, 9, 0, 0, 9, 9, 0, 0]
        recorder = _driven_recorder(sim, values=values)
        watchpoint = Watchpoint(
            "overload", "load", threshold_above(5.0),
            capture_ns=2 * MS, hires_factor=2,
        )
        recorder.add_watchpoint(watchpoint)
        recorder.start()
        sim.run(until=12 * MS)
        bundle = recorder.bundle()
        assert watchpoint.fire_count == 2
        assert [f.t_ns for f in bundle.fired] == [2 * MS, 9 * MS]
        assert len(bundle.windows) == 2

    def test_still_tripped_after_window_stays_quiet(self):
        sim = Simulator()
        values = [0, 9, 9, 9, 9, 9, 9, 9, 9, 9]
        recorder = _driven_recorder(sim, values=values)
        watchpoint = Watchpoint(
            "overload", "load", threshold_above(5.0),
            capture_ns=2 * MS, hires_factor=2,
        )
        recorder.add_watchpoint(watchpoint)
        recorder.start()
        sim.run(until=10 * MS)
        # One sustained excursion = one firing, despite window closing
        # while the predicate still holds.
        assert watchpoint.fire_count == 1

    def test_base_cadence_untouched_by_capture(self):
        sim = Simulator()
        values = [0, 9, 0, 0, 0, 0]
        recorder = _driven_recorder(sim, values=values)
        recorder.add_watchpoint(
            Watchpoint("w", "load", threshold_above(5.0),
                       capture_ns=2 * MS, hires_factor=8)
        )
        recorder.start()
        sim.run(until=6 * MS)
        series = recorder.bundle().get("load")
        assert series.times == [MS * (i + 1) for i in range(6)]
        assert series.stride == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Watchpoint("w", "s", threshold_above(1.0), capture_ns=0)
        with pytest.raises(ValueError):
            Watchpoint("w", "s", threshold_above(1.0), hires_factor=1)

    def test_experiment_watchpoint_end_to_end(self):
        from repro.cluster.simulation import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            app="apache", policy="ond.idle", target_rps=24_000.0,
            warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=15 * MS, seed=4,
        )
        watchpoint = Watchpoint(
            "any-rx", "nic.rx.bytes", rate_above(1.0), capture_ns=2 * MS
        )
        result = run_experiment(
            config, record_timeseries="coarse", watchpoints=[watchpoint]
        )
        bundle = result.timeseries
        assert watchpoint.fire_count >= 1
        assert bundle.fired and bundle.windows
        assert bundle.fired[0].name == "any-rx"
        assert "cpu.util" in bundle.windows[0].series
