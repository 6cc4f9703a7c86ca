"""Section 8 comparison — NCAP versus an Adrenaline-style baseline.

The paper argues (without measuring) that NCAP beats Adrenaline because
it detects latency-critical requests "at the lowest network layer", needs
no special on-chip voltage regulators, and also *lowers* performance
proactively by watching the transmit rate.  With both systems implemented
on the same substrate, this experiment measures the comparison.

Note what the baseline gets that NCAP does not: per-core VRs that switch
in ~100 ns.  What it pays: software detection only after the packet has
crossed DMA + moderation + SoftIRQ, per-packet classification cycles, and
no proactive C-state wake (its cores still eat the full exit latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.workload import load_level, sla_for
from repro.cluster.simulation import ExperimentConfig, run_experiment, station_clients
from repro.experiments.common import RunSettings, run_star
from repro.ext.adrenaline import AdrenalineServerNode
from repro.harness import Runner
from repro.metrics.report import format_table
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class BaselineRow:
    system: str
    p95_ms: float
    p99_ms: float
    energy_j: float
    meets_sla: bool


def run_adrenaline(
    app: str,
    target_rps: float,
    settings: RunSettings = RunSettings.standard(),
    n_clients: int = 3,
) -> BaselineRow:
    sim = Simulator()
    rng = RngRegistry(settings.seed)
    server = AdrenalineServerNode(sim, "server", app, rng)
    config = ExperimentConfig.from_settings(
        settings, app=app, target_rps=target_rps, n_clients=n_clients
    )
    clients = station_clients(sim, rng, config, server.name)
    latency, energy = run_star(sim, server, clients, settings)
    return BaselineRow(
        system="adrenaline",
        p95_ms=latency.p95_ns / 1e6,
        p99_ms=latency.p99_ns / 1e6,
        energy_j=energy.energy_j,
        meets_sla=latency.meets_sla(sla_for(app)),
    )


def _system_task(args) -> BaselineRow:
    system, app, target_rps, settings = args
    if system == "adrenaline":
        return run_adrenaline(app, target_rps, settings=settings)
    result = run_experiment(
        ExperimentConfig.from_settings(
            settings, app=app, policy=system, target_rps=target_rps,
        )
    )
    return BaselineRow(
        system=system,
        p95_ms=result.latency.p95_ns / 1e6,
        p99_ms=result.latency.p99_ns / 1e6,
        energy_j=result.energy.energy_j,
        meets_sla=result.meets_sla,
    )


def run(
    app: str = "memcached",
    load: str = "low",
    settings: RunSettings = RunSettings.standard(),
    jobs: Optional[int] = None,
) -> List[BaselineRow]:
    """ncap.cons and ncap.sw versus the Adrenaline-style baseline."""
    level = load_level(app, load)
    tasks = [
        (system, app, level.target_rps, settings)
        for system in ("ncap.cons", "ncap.sw", "adrenaline")
    ]
    return Runner(jobs=jobs).map(_system_task, tasks)


def format_report(rows: List[BaselineRow], app: str, load: str) -> str:
    return format_table(
        ["system", "p95 (ms)", "p99 (ms)", "energy (J)", "SLA"],
        [
            [r.system, round(r.p95_ms, 2), round(r.p99_ms, 2),
             round(r.energy_j, 2), "ok" if r.meets_sla else "VIOLATED"]
            for r in rows
        ],
        title=f"Section 8 — NCAP vs Adrenaline-style baseline ({app} @ {load})",
    )
