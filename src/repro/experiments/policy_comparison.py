"""Figures 8 and 9 — the paper's main evaluation.

For one application (Apache = Figure 8, Memcached = Figure 9):

- **left panels**: response-time distribution (p50/p90/p95/p99, normalized
  to the SLA) for all seven policies at each load level;
- **middle panels**: processor energy normalized to ``perf``;
- **right panels**: a BW(Rx)-versus-F snapshot for ``ond.idle`` (top) and
  ``ncap.cons`` (bottom), with the proactive "INT (wake)" interrupt times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.apps.workload import load_level
from repro.cluster.policies import POLICY_ORDER
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.experiments.common import RunSettings
from repro.harness import ResultCache, SweepSpec, run_sweep
from repro.metrics.report import format_series, format_table
from repro.metrics.timeseries import (
    bandwidth_series_mbps,
    normalized_series,
    window_points,
)
from repro.sim.units import MS
from repro.telemetry.recorder import RecorderConfig


@dataclass
class PolicyRow:
    policy: str
    load: str
    p50_norm: float
    p90_norm: float
    p95_norm: float
    p99_norm: float
    energy_rel_perf: float
    meets_sla: bool
    mean_ms: float
    energy_j: float


@dataclass
class Snapshot:
    policy: str
    bw_rx: List[Tuple[int, float]]       # normalized 1 ms bins
    frequency_ghz: List[Tuple[int, float]]
    wake_interrupts_ns: List[int]


@dataclass
class ComparisonResult:
    app: str
    rows: List[PolicyRow]
    snapshots: List[Snapshot] = field(default_factory=list)

    def row(self, policy: str, load: str) -> PolicyRow:
        for r in self.rows:
            if r.policy == policy and r.load == load:
                return r
        raise KeyError((policy, load))

    def energy_rel(self, policy: str, load: str) -> float:
        return self.row(policy, load).energy_rel_perf


def run(
    app: str = "apache",
    loads: Sequence[str] = ("low", "medium", "high"),
    policies: Sequence[str] = tuple(POLICY_ORDER),
    settings: RunSettings = RunSettings.standard(),
    snapshot_policies: Sequence[str] = ("ond.idle", "ncap.cons"),
    snapshot_load: str = "low",
    snapshot_window_ms: int = 200,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> ComparisonResult:
    specs = SweepSpec(
        apps=(app,), policies=tuple(policies), loads=tuple(loads),
        settings=settings,
    ).expand()
    records = run_sweep(specs, jobs=jobs, cache=cache)

    rows: List[PolicyRow] = []
    for load in loads:
        perf_energy: Optional[float] = None
        for record in (
            r for s, r in zip(specs, records) if s.load == load
        ):
            if record.policy == "perf":
                perf_energy = record.energy_j
            assert perf_energy is not None, "run the perf policy first"
            norm = record.normalized_latency
            rows.append(
                PolicyRow(
                    policy=record.policy,
                    load=load,
                    p50_norm=norm["p50"],
                    p90_norm=norm["p90"],
                    p95_norm=norm["p95"],
                    p99_norm=norm["p99"],
                    energy_rel_perf=record.energy_j / perf_energy,
                    meets_sla=record.meets_sla,
                    mean_ms=record.mean_ns / 1e6,
                    energy_j=record.energy_j,
                )
            )

    # Snapshots need 1 ms series and the live engine, so they stay out of
    # the record pipeline and run in-process.
    snapshots = [
        _snapshot(app, policy, snapshot_load, settings, snapshot_window_ms)
        for policy in snapshot_policies
    ]
    return ComparisonResult(app=app, rows=rows, snapshots=snapshots)


def _snapshot(
    app: str, policy: str, load: str, settings: RunSettings, window_ms: int
) -> Snapshot:
    level = load_level(app, load)
    config = ExperimentConfig.from_settings(
        settings,
        app=app,
        policy=policy,
        target_rps=level.target_rps,
        measure_ns=min(settings.measure_ns, window_ms * MS),
    )
    result = run_experiment(
        config, keep_server=True, record_timeseries=RecorderConfig(interval_ns=1 * MS)
    )
    bundle = result.timeseries
    assert bundle is not None
    start = config.warmup_ns
    end = config.warmup_ns + config.measure_ns
    bw_rx = bandwidth_series_mbps(bundle.get("nic.rx.bytes"), start, end)
    freq = window_points(bundle.get("cpu.freq_ghz"), start, end)
    wakes: List[int] = []
    engine = result.server.engine if result.server else None
    if engine is not None:
        wakes = [t for t in engine.wake_interrupt_times() if start <= t < end]
    return Snapshot(
        policy=policy,
        bw_rx=normalized_series(bw_rx),
        frequency_ghz=freq,
        wake_interrupts_ns=wakes,
    )


def format_report(result: ComparisonResult, figure_name: str = "") -> str:
    loads = []
    for row in result.rows:
        if row.load not in loads:
            loads.append(row.load)
    lines = []
    title = figure_name or ("Figure 8" if result.app == "apache" else "Figure 9")
    for load in loads:
        rows = [r for r in result.rows if r.load == load]
        lines.append(
            format_table(
                ["policy", "p50/SLA", "p90/SLA", "p95/SLA", "p99/SLA",
                 "energy vs perf", "SLA"],
                [
                    [r.policy, round(r.p50_norm, 3), round(r.p90_norm, 3),
                     round(r.p95_norm, 3), round(r.p99_norm, 3),
                     round(r.energy_rel_perf, 3),
                     "ok" if r.meets_sla else "VIOLATED"]
                    for r in rows
                ],
                title=f"{title} — {result.app} @ {load} load",
            )
        )
    for snap in result.snapshots:
        lines.append(f"-- snapshot: {snap.policy} --")
        lines.append(format_series("BW(Rx)", snap.bw_rx))
        lines.append(format_series("F (GHz)", snap.frequency_ghz))
        if snap.wake_interrupts_ns:
            lines.append(
                f"  INT (wake) x{len(snap.wake_interrupts_ns)}, first at "
                f"{snap.wake_interrupts_ns[0] / 1e6:.2f} ms"
            )
    return "\n".join(lines)
