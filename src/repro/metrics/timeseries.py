"""Series helpers for the Figure 4 / 8 / 9 plots.

The flight recorder (:class:`~repro.telemetry.recorder.TimeSeriesRecorder`)
samples every standard series on a fixed cadence — 1 ms for the paper's
plots.  These helpers cut a recorded
:class:`~repro.telemetry.recorder.SeriesData` to a measurement window and
turn cumulative byte counters into per-bin increments and bandwidth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.recorder import SeriesData


def window_points(
    series: "SeriesData", start_ns: int, end_ns: int
) -> List[Tuple[int, float]]:
    """Samples with ``start <= t <= end``."""
    return [(t, v) for t, v in series.points() if start_ns <= t <= end_ns]


def counter_bins(
    series: "SeriesData", start_ns: int, end_ns: int
) -> List[Tuple[int, int, float]]:
    """``(bin_start_ns, bin_ns, amount)`` for each sampling interval of a
    cumulative counter that starts in ``[start, end)``."""
    out: List[Tuple[int, int, float]] = []
    times, values = series.times, series.values
    for i in range(1, len(times)):
        t_prev, t = times[i - 1], times[i]
        if start_ns <= t_prev < end_ns and t > t_prev:
            out.append((t_prev, t - t_prev, values[i] - values[i - 1]))
    return out


def bandwidth_series_mbps(
    series: "SeriesData", start_ns: int, end_ns: int
) -> List[Tuple[int, float]]:
    """Per-bin bandwidth (Mb/s) from a cumulative byte counter, labelled
    by bin start."""
    return [
        (t, amount * 1e9 / bin_ns * 8 / 1e6)
        for t, bin_ns, amount in counter_bins(series, start_ns, end_ns)
    ]


def normalized_series(
    series: Sequence[Tuple[int, float]]
) -> List[Tuple[int, float]]:
    """Normalize a series to its own maximum (the paper's BW plots)."""
    peak = max((v for _, v in series), default=0.0)
    if peak <= 0:
        return [(t, 0.0) for t, _ in series]
    return [(t, v / peak) for t, v in series]
