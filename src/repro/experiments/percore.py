"""Section 7 extension — per-core NCAP versus chip-wide NCAP.

The paper argues a multi-queue NIC lets NCAP retune only the target core,
improving on the chip-wide P/C-state changes its evaluation platform
forces.  This experiment runs the same workload against:

- the chip-wide :class:`ServerNode` under ``ncap.cons``, and
- the :class:`PerCoreServerNode` (per-core V/F domains, one NCAP per
  rx queue, RFS-style core affinity),

and reports latency and energy side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.workload import load_level, sla_for
from repro.cluster.percore_node import PerCoreServerNode
from repro.cluster.simulation import ExperimentConfig, run_experiment, station_clients
from repro.experiments.common import RunSettings, run_star
from repro.harness import Runner
from repro.metrics.report import format_table
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class VariantResult:
    variant: str
    p95_ms: float
    p99_ms: float
    energy_j: float
    meets_sla: bool
    wake_posts: int


def run_percore(
    app: str,
    target_rps: float,
    settings: RunSettings = RunSettings.standard(),
    n_clients: int = 3,
    fcons: int = 5,
) -> VariantResult:
    """One run of the per-core NCAP server in the standard star topology."""
    sim = Simulator()
    rng = RngRegistry(settings.seed)
    server = PerCoreServerNode(sim, "server", app, rng, fcons=fcons)
    config = ExperimentConfig.from_settings(
        settings, app=app, target_rps=target_rps, n_clients=n_clients
    )
    clients = station_clients(sim, rng, config, server.name)
    latency, energy = run_star(sim, server, clients, settings)
    return VariantResult(
        variant="ncap.percore",
        p95_ms=latency.p95_ns / 1e6,
        p99_ms=latency.p99_ns / 1e6,
        energy_j=energy.energy_j,
        meets_sla=latency.meets_sla(sla_for(app)),
        wake_posts=server.total_it_high_posts() + server.total_immediate_rx_posts(),
    )


def _chipwide_task(args) -> VariantResult:
    app, target_rps, settings = args
    result = run_experiment(
        ExperimentConfig.from_settings(
            settings, app=app, policy="ncap.cons", target_rps=target_rps,
        )
    )
    return VariantResult(
        variant="ncap.cons (chip-wide)",
        p95_ms=result.latency.p95_ns / 1e6,
        p99_ms=result.latency.p99_ns / 1e6,
        energy_j=result.energy.energy_j,
        meets_sla=result.meets_sla,
        wake_posts=result.ncap_stats.get("it_high_posts", 0)
        + result.ncap_stats.get("immediate_rx_posts", 0),
    )


def _percore_task(args) -> VariantResult:
    app, target_rps, settings = args
    return run_percore(app, target_rps, settings=settings)


def _variant_task(task) -> VariantResult:
    fn, args = task
    return fn(args)


def run(
    app: str = "memcached",
    load: str = "low",
    settings: RunSettings = RunSettings.standard(),
    jobs: Optional[int] = None,
) -> List[VariantResult]:
    """Chip-wide ncap.cons versus per-core NCAP on the same workload."""
    level = load_level(app, load)
    args = (app, level.target_rps, settings)
    return Runner(jobs=jobs).map(
        _variant_task, [(_chipwide_task, args), (_percore_task, args)]
    )


def format_report(rows: List[VariantResult], app: str, load: str) -> str:
    return format_table(
        ["variant", "p95 (ms)", "p99 (ms)", "energy (J)", "SLA", "wake posts"],
        [
            [r.variant, round(r.p95_ms, 2), round(r.p99_ms, 2),
             round(r.energy_j, 2), "ok" if r.meets_sla else "VIOLATED",
             r.wake_posts]
            for r in rows
        ],
        title=f"Section 7 — per-core vs chip-wide NCAP ({app} @ {load})",
    )
