"""Metrics: latency percentiles, energy windows, recorded series, text reports."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".energy": ("average_power_w", "energy_delta"),
    ".latency": ("LatencyStats",),
    ".report": ("format_series", "format_table", "sparkline"),
    ".timeseries": (
        "bandwidth_series_mbps", "counter_bins", "normalized_series", "window_points",
    ),
})
