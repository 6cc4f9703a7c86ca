"""Load-dynamics experiment: NCAP tracking time-varying load.

Drives the server with a compressed "diurnal" swing (low-to-high-to-low
over a few hundred milliseconds) or a flash-crowd spike, and compares the
policies' ability to follow the load: the always-max baseline wastes
energy in the valleys, the reactive governor is late at the edges, and
NCAP rides the transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.apps.patterns import DiurnalPattern, LoadPattern, SpikePattern, VariableRateClient
from repro.apps.workload import default_burst_size, sla_for
from repro.cluster.node import ServerNode
from repro.cluster.policies import PolicyConfig
from repro.cluster.simulation import client_pool
from repro.experiments.common import RunSettings, run_star
from repro.harness import Runner
from repro.metrics.report import format_table
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS


@dataclass
class DynamicsRow:
    policy: str
    p95_ms: float
    energy_j: float
    meets_sla: bool


def run_pattern(
    pattern: LoadPattern,
    policy: Union[str, PolicyConfig],
    app: str = "apache",
    n_clients: int = 3,
    settings: RunSettings = RunSettings.standard(),
) -> DynamicsRow:
    """One server under ``policy`` driven by ``pattern``."""
    sim = Simulator()
    rng = RngRegistry(settings.seed)
    server = ServerNode(sim, "server", policy, app, rng)
    clients = client_pool(
        sim, rng, app, "server", [f"client{i}" for i in range(n_clients)],
        client_cls=VariableRateClient,
        burst_size=max(20, default_burst_size(app) // 2),  # finer rate tracking
        burst_period_ns=10 * MS,  # recomputed per burst
        pattern=pattern, share=1.0 / n_clients, jitter_fraction=0.20,
    )
    latency, energy = run_star(sim, server, clients, settings)
    name = policy if isinstance(policy, str) else policy.name
    return DynamicsRow(
        policy=name,
        p95_ms=latency.p95_ns / 1e6,
        energy_j=energy.energy_j,
        meets_sla=latency.meets_sla(sla_for(app)),
    )


def _pattern_task(args) -> DynamicsRow:
    pattern, policy, app, settings = args
    return run_pattern(pattern, policy, app=app, settings=settings)


def _run_policies(
    pattern: LoadPattern,
    app: str,
    settings: RunSettings,
    jobs: Optional[int],
    policies=("perf", "ond.idle", "ncap.cons"),
) -> List[DynamicsRow]:
    tasks = [(pattern, policy, app, settings) for policy in policies]
    return Runner(jobs=jobs).map(_pattern_task, tasks)


def diurnal(
    app: str = "apache",
    settings: RunSettings = RunSettings.standard(),
    jobs: Optional[int] = None,
):
    """Half-day valley-peak-valley swing between 20% and 90% of capacity."""
    peak = 60_000 if app == "apache" else 130_000
    base = peak / 4
    pattern = DiurnalPattern(
        base_rps=base, peak_rps=peak,
        period_ns=settings.measure_ns, phase=-1.5707963,  # start at the valley
    )
    return _run_policies(pattern, app, settings, jobs)


def flash_crowd(
    app: str = "apache",
    settings: RunSettings = RunSettings.standard(),
    jobs: Optional[int] = None,
):
    """A quiet service hit by a 5x flash crowd for a fifth of the window."""
    base = 10_000 if app == "apache" else 20_000
    pattern = SpikePattern(
        base_rps=base,
        spike_rps=base * 5,
        spike_start_ns=settings.warmup_ns + settings.measure_ns // 2,
        spike_len_ns=settings.measure_ns // 5,
    )
    return _run_policies(pattern, app, settings, jobs)


def format_report(rows: List[DynamicsRow], title: str) -> str:
    base = rows[0].energy_j
    return format_table(
        ["policy", "p95 (ms)", "energy (J)", "vs perf", "SLA"],
        [
            [r.policy, round(r.p95_ms, 2), round(r.energy_j, 2),
             round(r.energy_j / base, 3), "ok" if r.meets_sla else "VIOLATED"]
            for r in rows
        ],
        title=title,
    )
