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

from repro.apps.client import http_request_factory, memcached_request_factory
from repro.apps.patterns import DiurnalPattern, LoadPattern, SpikePattern, VariableRateClient
from repro.apps.workload import default_burst_size, sla_for
from repro.cluster.node import ServerNode
from repro.cluster.policies import PolicyConfig
from repro.experiments.common import RunSettings
from repro.harness import Runner
from repro.metrics.energy import energy_delta
from repro.metrics.latency import LatencyStats
from repro.metrics.report import format_table
from repro.net.switch import Switch
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
    switch = Switch(sim)
    burst_size = max(20, default_burst_size(app) // 2)  # finer rate tracking
    clients: List[VariableRateClient] = []
    for i in range(n_clients):
        name = f"client{i}"
        if app == "apache":
            factory = http_request_factory(name, "server")
        else:
            factory = memcached_request_factory(
                name, "server", rng=rng.stream(f"{name}.keys")
            )
        clients.append(
            VariableRateClient(
                sim, name, factory, burst_size=burst_size,
                burst_period_ns=10 * MS,  # recomputed per burst
                pattern=pattern, share=1.0 / n_clients,
                jitter_rng=rng.stream(f"{name}.jitter"), jitter_fraction=0.20,
            )
        )
    switch.connect(server)
    for client in clients:
        switch.connect(client)

    server.start()
    for client in clients:
        client.start()
    window_start = settings.warmup_ns
    window_end = settings.warmup_ns + settings.measure_ns
    snapshots = {}
    sim.schedule_at(window_start, lambda: snapshots.__setitem__("a", server.package.energy_report()))
    sim.schedule_at(window_end, lambda: snapshots.__setitem__("b", server.package.energy_report()))
    for client in clients:
        sim.schedule_at(window_end, client.stop)
    sim.run(until=window_end + settings.drain_ns)

    rtts = []
    for client in clients:
        rtts.extend(client.rtts_in_window(window_start, window_end))
    latency = LatencyStats.from_values(rtts)
    energy = energy_delta(snapshots["a"], snapshots["b"])
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
