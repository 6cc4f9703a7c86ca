"""Section 7 — NCAP under datacenter load imbalance.

Runs the same imbalanced multi-server cluster once under the always-max
baseline and once under NCAP, then relates each server's utilization to
its energy saving.  The paper's expectation: underutilized servers (the
majority in a real datacenter) are exactly where NCAP's savings live.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.cluster.datacenter import (
    DatacenterConfig,
    DatacenterResult,
    run_datacenter,
)
from repro.cluster.frontend import FrontendConfig
from repro.harness import Runner
from repro.metrics.report import format_table
from repro.sim.units import MS

#: Named cluster shapes for ``repro datacenter``.
#:
#: - ``imbalance``: the paper's four-node Section 7 shape (the default);
#: - ``zipf200``: 200 servers on a generated Zipf(1.2) load profile,
#:   exercising generated shares + sharding with classic client pools;
#: - ``datacenter_1000``: 1000 servers behind the frontend tier spraying
#:   an open-loop population of one million users — the scale the paper
#:   argues NCAP is for ("a production datacenter consists of hundreds
#:   or thousands of servers").
PRESETS: Dict[str, DatacenterConfig] = {
    "imbalance": DatacenterConfig(),
    "zipf200": DatacenterConfig(
        n_servers=200,
        load_shares="zipf:1.2",
        total_rps=600_000.0,
        clients_per_server=2,
        warmup_ns=10 * MS,
        measure_ns=60 * MS,
        drain_ns=30 * MS,
        n_shards=4,
    ),
    # The frontend tier at smoke scale: same shape as datacenter_1000
    # (po2 spray, 1 ms dispatch latency) on 4 servers / 2 shards, small
    # enough for CI to run with every fleet observer enabled.
    "frontend": DatacenterConfig(
        app="memcached",
        n_servers=4,
        load_shares="uniform",
        total_rps=80_000.0,
        warmup_ns=5 * MS,
        measure_ns=30 * MS,
        drain_ns=20 * MS,
        n_shards=2,
        frontend=FrontendConfig(
            n_users=5_000,
            spray="po2",
            burst_size=75,
            intra_burst_gap_ns=1_000,
            dispatch_latency_ns=1 * MS,
        ),
    ),
    "datacenter_1000": DatacenterConfig(
        app="memcached",
        n_servers=1000,
        load_shares="uniform",
        total_rps=2_000_000.0,
        warmup_ns=10 * MS,
        measure_ns=60 * MS,
        drain_ns=30 * MS,
        n_shards=8,
        frontend=FrontendConfig(
            n_users=1_000_000,
            spray="po2",
            burst_size=500,
            intra_burst_gap_ns=400,
            dispatch_latency_ns=1 * MS,
        ),
    ),
}


@dataclass
class ImbalanceRow:
    server: str
    target_rps: float
    utilization: float
    baseline_energy_j: float
    ncap_energy_j: float
    saving_pct: float
    ncap_meets_sla: bool


def run(
    config: DatacenterConfig = DatacenterConfig(),
    ncap_policy: str = "ncap.cons",
    baseline_policy: str = "perf",
    jobs: Optional[int] = None,
) -> List[ImbalanceRow]:
    baseline, ncap = Runner(jobs=jobs).map(
        run_datacenter,
        [
            replace(config, policy=baseline_policy),
            replace(config, policy=ncap_policy),
        ],
    )
    rows = []
    for base_server, ncap_server in zip(baseline.servers, ncap.servers):
        saving = 1 - ncap_server.energy.energy_j / base_server.energy.energy_j
        rows.append(
            ImbalanceRow(
                server=ncap_server.server,
                target_rps=ncap_server.target_rps,
                utilization=ncap_server.utilization,
                baseline_energy_j=base_server.energy.energy_j,
                ncap_energy_j=ncap_server.energy.energy_j,
                saving_pct=saving * 100,
                ncap_meets_sla=ncap_server.meets_sla,
            )
        )
    return rows


def format_report(rows: List[ImbalanceRow]) -> str:
    table = format_table(
        ["server", "load (RPS)", "utilization", "perf (J)", "ncap (J)",
         "saving (%)", "SLA"],
        [
            [r.server, f"{r.target_rps/1000:.0f}K", round(r.utilization, 3),
             round(r.baseline_energy_j, 2), round(r.ncap_energy_j, 2),
             round(r.saving_pct, 1), "ok" if r.ncap_meets_sla else "VIOLATED"]
            for r in rows
        ],
        title="Section 7 — NCAP savings across an imbalanced server fleet",
    )
    total_base = sum(r.baseline_energy_j for r in rows)
    total_ncap = sum(r.ncap_energy_j for r in rows)
    table += (
        f"\nfleet total: {total_base:.1f} J -> {total_ncap:.1f} J "
        f"({(1 - total_ncap / total_base) * 100:.1f}% saved)"
    )
    return table


def run_preset(
    name: str,
    *,
    overrides: Optional[dict] = None,
    jobs: Optional[int] = None,
    **observers,
) -> DatacenterResult:
    """Run one named cluster preset (optionally with config overrides).

    ``observers`` are the fleet keywords of
    :meth:`~repro.cluster.simulation.Observers.of`.
    """
    try:
        config = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown datacenter preset {name!r} "
            f"(available: {', '.join(sorted(PRESETS))})"
        ) from None
    if overrides:
        config = replace(config, **overrides)
    return run_datacenter(config, jobs=jobs, **observers)


def format_fleet_report(result: DatacenterResult) -> str:
    """Fleet summary + per-shard execution table for a sharded run."""
    config = result.config
    record = result.record
    utils = [s.utilization for s in result.servers]
    violators = sum(1 for s in result.servers if not s.meets_sla)
    rows = [
        ["servers", config.n_servers],
        ["policy", record.policy if record else config.policy],
        ["offered RPS", f"{config.total_rps / 1000:.0f}K"],
    ]
    if record is not None:
        rows += [
            ["achieved RPS", f"{record.achieved_rps / 1000:.1f}K"],
            ["responses", record.responses_received],
            ["p50 (ms)", round(record.p50_ns / 1e6, 3)],
            ["p99 (ms)", round(record.p99_ns / 1e6, 3)],
            ["fleet energy (J)", round(record.energy_j, 1)],
            ["fleet avg power (W)", round(record.avg_power_w, 1)],
        ]
    rows += [
        ["utilization (min/mean/max)",
         f"{min(utils):.3f} / {sum(utils) / len(utils):.3f} / {max(utils):.3f}"],
        ["SLA", "met fleet-wide" if violators == 0
         else f"VIOLATED on {violators}/{len(utils)} servers"],
    ]
    out = format_table(
        ["metric", "value"], rows,
        title=f"Datacenter fleet — {config.app}, "
              f"{config.n_shards} shard{'s' if config.n_shards != 1 else ''}",
    )
    if result.shards:
        # events/s and peak RSS come from the per-shard loop-health
        # checkpoints (the self-profiler payload), so imbalance is
        # visible from any profiled run even without --profile-fleet.
        shard_rows = []
        for s in result.shards:
            rate = s.events / s.wall_s / 1e6 if s.wall_s > 0 else 0.0
            loop_rate = s.profile.get("events_per_wall_s") if s.profile else None
            peak_rss = s.profile.get("peak_rss_bytes") if s.profile else None
            shard_rows.append([
                s.shard_index,
                f"{s.server_indices[0]}-{s.server_indices[-1]}",
                s.events,
                round(s.wall_s, 2),
                f"{rate:.2f}",
                f"{loop_rate / 1e3:.0f}K" if loop_rate else "-",
                f"{peak_rss / 1e6:.0f}" if peak_rss else "-",
            ])
        out += "\n\n" + format_table(
            ["shard", "servers", "events", "wall (s)", "Mev/s",
             "loop ev/s", "peak RSS (MB)"],
            shard_rows, title="Per-shard execution",
        )
        out += (
            f"\nparallel speedup (sum of shard work / critical path): "
            f"{result.shard_speedup:.2f}x"
        )
    return out
