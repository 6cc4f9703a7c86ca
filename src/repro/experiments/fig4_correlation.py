"""Figure 4 — correlation between network activity and power management.

Reproduces the paper's Section 3 observation study: on a server running
Apache under ond.idle, the received-bandwidth surges lead utilization,
which leads frequency; the menu governor parks cores in C-states between
bursts and churns through short C-state visits as a surge begins.

Outputs:

- 1 ms-binned series of BW(Rx), BW(Tx) (normalized to their maxima, as in
  the paper), mean core utilization U, and frequency F — all sampled by
  the flight recorder (``record_timeseries=``);
- Pearson correlations between the series (the "strong correlation" claim);
- the ondemand reaction lag: how far F's rise trails the BW(Rx) surge
  (the paper measures ~11 ms with a 10 ms invocation period);
- per-C-state residency and entry counts (Figure 4(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.experiments.common import RunSettings
from repro.metrics.report import format_series, format_table
from repro.metrics.timeseries import (
    bandwidth_series_mbps,
    normalized_series,
    window_points,
)
from repro.sim.units import MS
from repro.telemetry.recorder import RecorderConfig


@dataclass
class Fig4Result:
    bw_rx: List[Tuple[int, float]]         # normalized
    bw_tx: List[Tuple[int, float]]         # normalized
    utilization: List[Tuple[int, float]]
    frequency_ghz: List[Tuple[int, float]]
    corr_rx_util: float
    corr_util_freq: float
    freq_lag_ms: Optional[float]
    cstate_residency_ns: Dict[str, int] = field(default_factory=dict)
    cstate_entries: Dict[str, int] = field(default_factory=dict)


def run(
    policy: str = "ond.idle",
    app: str = "apache",
    target_rps: float = 24_000.0,
    settings: RunSettings = RunSettings.standard(),
    bin_ns: int = 1 * MS,
) -> Fig4Result:
    config = ExperimentConfig(
        app=app,
        policy=policy,
        target_rps=target_rps,
        warmup_ns=settings.warmup_ns,
        measure_ns=settings.measure_ns,
        drain_ns=settings.drain_ns,
        seed=settings.seed,
    )
    result = run_experiment(
        config, record_timeseries=RecorderConfig(interval_ns=bin_ns)
    )
    bundle = result.timeseries
    assert bundle is not None
    start = config.warmup_ns
    end = config.warmup_ns + config.measure_ns

    bw_rx = bandwidth_series_mbps(bundle.get("nic.rx.bytes"), start, end)
    bw_tx = bandwidth_series_mbps(bundle.get("nic.tx.bytes"), start, end)
    util = window_points(bundle.get("cpu.util"), start, end)
    freq = window_points(bundle.get("cpu.freq_ghz"), start, end)

    rx_vals = np.array([v for _, v in bw_rx])
    util_vals = np.array([v for _, v in util][: len(rx_vals)])
    freq_vals = np.array([v for _, v in freq][: len(rx_vals)])
    # A BW(Rx) surge is a 1-2 ms spike, but the utilization it causes
    # persists for the whole burst drain; smooth rx over a drain-sized
    # trailing window before correlating (the paper's claim is that the
    # *surge* drives the busy period, not that the two are bin-aligned).
    rx_smoothed = _trailing_mean(rx_vals, window=8)
    corr_rx_util = _safe_corr(rx_smoothed, util_vals)
    # The ondemand governor reacts a sampling period late: correlate U
    # against F shifted by the lag that aligns them best, and report that
    # lag (the paper measures ~11 ms with a 10 ms invocation period).
    corr_util_freq, lag = _best_lagged_corr(util_vals, freq_vals, bin_ns)

    return Fig4Result(
        bw_rx=normalized_series(bw_rx),
        bw_tx=normalized_series(bw_tx),
        utilization=util,
        frequency_ghz=freq,
        corr_rx_util=corr_rx_util,
        corr_util_freq=corr_util_freq,
        freq_lag_ms=lag,
        cstate_residency_ns={
            k: v for k, v in result.energy.residency_ns.items() if k.startswith("C")
        },
        cstate_entries=result.cstate_entries,
    )


def _safe_corr(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) < 2 or a.std() == 0 or b.std() == 0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])


def _trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average (each point averages its last ``window``)."""
    if window <= 1 or len(values) == 0:
        return values
    kernel = np.ones(window) / window
    padded = np.concatenate([np.full(window - 1, values[0]), values])
    return np.convolve(padded, kernel, mode="valid")


def _best_lagged_corr(
    leader: np.ndarray, follower: np.ndarray, bin_ns: int, max_lag_bins: int = 25
) -> "Tuple[float, Optional[float]]":
    """Max correlation of ``follower`` against ``leader`` shifted forward,
    and the lag (ms) achieving it — how far the follower trails."""
    if len(leader) < max_lag_bins * 2:
        return _safe_corr(leader, follower), None
    best_lag, best_corr = None, float("-inf")
    for lag in range(0, max_lag_bins):
        a = leader[: len(leader) - lag] if lag else leader
        b = follower[lag:]
        corr = _safe_corr(np.asarray(a), np.asarray(b))
        if corr == corr and corr > best_corr:  # not NaN
            best_corr, best_lag = corr, lag
    if best_lag is None:
        return float("nan"), None
    return best_corr, best_lag * bin_ns / 1e6


def format_report(result: Fig4Result) -> str:
    lines = [
        "Figure 4 — network activity vs power management (ond.idle, Apache)",
        format_series("BW(Rx)", result.bw_rx),
        format_series("BW(Tx)", result.bw_tx),
        format_series("U", result.utilization),
        format_series("F (GHz)", result.frequency_ghz),
        f"corr(BW(Rx) smoothed, U) = {result.corr_rx_util:.3f}",
        f"corr(U, F @ best lag)    = {result.corr_util_freq:.3f}",
        f"ondemand reaction lag ~= {result.freq_lag_ms} ms (paper: ~11 ms late)",
    ]
    if result.cstate_residency_ns:
        rows = [
            [state,
             round(result.cstate_residency_ns.get(state, 0) / 1e6, 2),
             result.cstate_entries.get(state, 0)]
            for state in sorted(set(result.cstate_residency_ns) | set(result.cstate_entries))
        ]
        lines.append(
            format_table(
                ["C-state", "residency (ms, all cores)", "entries"],
                rows,
                title="Figure 4(b) — C-state residency over the window",
            )
        )
    return "\n".join(lines)
