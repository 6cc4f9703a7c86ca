"""Tests for CSV series export."""

import csv
import os

from repro.metrics.export import export_timeseries_csv
from repro.sim.units import MS
from repro.telemetry.recorder import RecorderConfig, SeriesData, TimeseriesBundle


def _bundle(*series):
    return TimeseriesBundle(interval_ns=MS, start_ns=0, end_ns=10 * MS, series=list(series))


def _rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestEventExport:
    def test_roundtrip(self, tmp_path):
        freq = SeriesData(
            "cpu.freq_ghz", "gauge", 1, times=[0, 5 * MS, 6 * MS], values=[3.1, 0.8, 0.8]
        )
        paths = export_timeseries_csv(_bundle(freq), str(tmp_path), 0, 5 * MS)
        assert paths == [os.path.join(str(tmp_path), "cpu_freq_ghz.csv")]
        data = _rows(paths[0])
        assert data[0] == ["time_ns", "value"]
        assert data[1] == ["0", "3.1"]
        assert data[2] == [str(5 * MS), "0.8"]
        assert len(data) == 3  # the 6 ms sample is outside the window

    def test_empty_channel(self, tmp_path):
        empty = SeriesData("nothing", "gauge", 1)
        (path,) = export_timeseries_csv(_bundle(empty), str(tmp_path), 0, MS)
        assert len(_rows(path)) == 1  # header only


class TestCounterExport:
    def test_binned_rows(self, tmp_path):
        rx = SeriesData(
            "nic.rx.bytes", "counter", 1,
            times=[0, MS, 2 * MS], values=[0.0, 1000.0, 1500.0],
        )
        (path,) = export_timeseries_csv(_bundle(rx), str(tmp_path), 0, 2 * MS)
        assert os.path.basename(path) == "nic_rx_bytes.csv"
        data = _rows(path)
        assert data[0] == ["bin_start_ns", "amount"]
        assert data[1] == ["0", "1000.0"]
        assert data[2] == [str(MS), "500.0"]
        assert len(data) == 3


class TestBundle:
    def test_figure4_bundle_from_real_run(self, tmp_path):
        from repro import ExperimentConfig, run_experiment

        result = run_experiment(
            ExperimentConfig(
                app="apache", policy="ond.idle", target_rps=24_000,
                warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=20 * MS,
            ),
            record_timeseries=RecorderConfig(interval_ns=MS),
        )
        paths = export_timeseries_csv(
            result.timeseries, str(tmp_path), 5 * MS, 35 * MS
        )
        names = {os.path.basename(p) for p in paths}
        for expected in ("nic_rx_bytes.csv", "nic_tx_bytes.csv", "cpu_util.csv",
                         "cpu_freq_ghz.csv", "core0_cstate.csv", "core3_cstate.csv"):
            assert expected in names
        # The rx series carries real traffic, binned over the 30 ms window.
        rx_rows = _rows(next(p for p in paths if p.endswith("nic_rx_bytes.csv")))[1:]
        assert len(rx_rows) == 30
        assert sum(float(row[1]) for row in rx_rows) > 0
        # Gauges: one row per 1 ms sample, both window edges included.
        assert len(_rows(next(p for p in paths if p.endswith("cpu_util.csv")))) == 1 + 31
