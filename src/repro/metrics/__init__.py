"""Metrics: latency percentiles, energy windows, recorded series, text reports."""

from repro.metrics.energy import average_power_w, energy_delta
from repro.metrics.latency import LatencyStats
from repro.metrics.report import format_series, format_table, sparkline
from repro.metrics.timeseries import (
    bandwidth_series_mbps,
    counter_bins,
    normalized_series,
    window_points,
)

__all__ = [
    "average_power_w",
    "energy_delta",
    "LatencyStats",
    "format_series",
    "format_table",
    "sparkline",
    "bandwidth_series_mbps",
    "counter_bins",
    "normalized_series",
    "window_points",
]
