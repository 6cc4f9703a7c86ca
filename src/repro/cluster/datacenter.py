"""A multi-server cluster with imbalanced load (Section 7 of the paper).

"A production datacenter consists of hundreds or thousands of servers...
One of key characteristics of large-scale datacenters is the load
imbalance amongst server nodes.  Therefore, there is a significant
fraction of underutilized servers even at a high overall load level and
NCAP can achieve energy reduction for such underutilized servers."

This builder scales the four-node experiment out pd-gem5 style: N servers
behind switches, each with its own share of the offered load, and
per-server energy/latency/utilization reported side by side.  Two things
make datacenter scale reachable:

- **Sharding** (``n_shards > 1``): servers are partitioned across worker
  processes advanced in conservative time windows by
  :mod:`repro.cluster.sharding`.  A sharded run merges to a
  :class:`~repro.harness.record.ResultRecord` bit-identical to the
  single-process run.
- **A frontend tier** (``frontend=FrontendConfig(...)``): instead of
  per-server client pools, an open-loop population of users is sprayed
  across servers by a load-balancing policy
  (:mod:`repro.cluster.frontend`), which is how millions of simulated
  users reach a thousand servers.

Load shares may be a literal per-server tuple (the classic four-node
shape), or a generated profile name (``"uniform"``, ``"zipf:<s>"``) so
``n_servers=1000`` works out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.apps.workload import check_app, generate_load_shares
from repro.cluster.frontend import FrontendConfig
from repro.cluster.policies import PolicyConfig
from repro.cluster.simulation import ExperimentConfig, ShardResult, check_run_window
from repro.cpu.energy import EnergyReport
from repro.harness.record import ResultRecord
from repro.metrics.latency import LatencyStats
from repro.sim.units import MS

#: The classic four-node imbalance shape, kept as the default so existing
#: configs (and their validation behaviour) are unchanged.
_LEGACY_SHARES = (0.45, 0.30, 0.15, 0.10)


@dataclass
class DatacenterConfig:
    """A scaled-out, imbalanced cluster run."""

    app: str = "apache"
    policy: Union[str, PolicyConfig] = "ncap.cons"
    n_servers: int = 4
    #: Each server's share of ``total_rps``: a per-server sequence
    #: (normalized internally), a generated profile name (``"uniform"`` or
    #: ``"zipf:<s>"``), or None for the default (the legacy four-node
    #: tuple when ``n_servers == 4``, else ``"uniform"``).
    load_shares: Union[str, Sequence[float], None] = _LEGACY_SHARES
    total_rps: float = 120_000.0
    clients_per_server: int = 3
    warmup_ns: int = 20 * MS
    measure_ns: int = 150 * MS
    drain_ns: int = 80 * MS
    seed: int = 1
    #: Number of conservative time-window shards the servers are split
    #: over.  Results are independent of the shard count (and of whether
    #: shards run serially or in worker processes).
    n_shards: int = 1
    #: When set, the per-server client pools are replaced by the frontend
    #: load-balancer tier spraying an open-loop user population.
    frontend: Optional[FrontendConfig] = None

    def __post_init__(self) -> None:
        check_run_window(self.warmup_ns, self.measure_ns, self.drain_ns)
        check_app(self.app)
        if self.total_rps <= 0:
            raise ValueError(f"total_rps must be positive, got {self.total_rps}")
        if self.clients_per_server < 1:
            raise ValueError(f"clients_per_server must be at least 1, got {self.clients_per_server}")
        if self.n_servers < 1:
            raise ValueError("n_servers must be at least 1")
        shares = self.load_shares
        if shares is None or isinstance(shares, str):
            if shares is not None:
                generate_load_shares(shares, self.n_servers)  # validate spec
        else:
            if len(shares) != self.n_servers:
                raise ValueError("one load share per server is required")
            if any(s <= 0 for s in shares):
                raise ValueError("load shares must be positive")
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if self.n_shards > self.n_servers:
            raise ValueError("n_shards cannot exceed n_servers")
        if self.frontend is not None and not isinstance(
            self.frontend, FrontendConfig
        ):
            raise TypeError("frontend must be a FrontendConfig (or None)")
        # Every server is built from its ``server_config``: build the
        # busiest one now, so a rate its clients cannot offer fails here
        # rather than in a shard worker.
        self.server_config(max(self.resolved_shares()))

    def resolved_shares(self) -> Tuple[float, ...]:
        """The normalized per-server load shares."""
        shares = self.load_shares
        if shares is None:
            if self.n_servers == len(_LEGACY_SHARES):
                shares = _LEGACY_SHARES
            else:
                return generate_load_shares("uniform", self.n_servers)
        if isinstance(shares, str):
            return generate_load_shares(shares, self.n_servers)
        total = sum(shares)
        return tuple(s / total for s in shares)

    def server_config(self, share: float) -> ExperimentConfig:
        """The config a fleet server with load ``share`` is built from: the
        fleet's app, policy, windows and seed, ``total_rps * share`` over
        ``clients_per_server`` clients, every other field at its default."""
        return ExperimentConfig(
            app=self.app,
            policy=self.policy,
            target_rps=self.total_rps * share,
            n_clients=self.clients_per_server,
            warmup_ns=self.warmup_ns,
            measure_ns=self.measure_ns,
            drain_ns=self.drain_ns,
            seed=self.seed,
        )

    @property
    def end_ns(self) -> int:
        return self.warmup_ns + self.measure_ns + self.drain_ns


@dataclass
class ServerOutcome:
    server: str
    target_rps: float
    utilization: float
    latency: LatencyStats
    energy: EnergyReport
    meets_sla: bool


@dataclass
class DatacenterResult:
    config: DatacenterConfig
    servers: List[ServerOutcome]
    #: Each shard's result with its measures and trace emptied: execution
    #: stats, never part of the record (wall time depends on the machine,
    #: not on the simulated system).
    shards: List[ShardResult] = field(default_factory=list)
    #: The merged fleet-level record — bit-identical across shard counts.
    record: Optional[ResultRecord] = None
    #: Merged cross-shard request traces (``trace_requests=`` runs only);
    #: a :class:`~repro.telemetry.tracing.FleetTraceBundle`.
    trace: Optional[object] = None
    #: Window/imbalance profile (``profile_fleet=`` runs only); wall-clock
    #: data, so — like ``shards`` — never part of the record.
    fleet_profile: Optional[object] = None

    @property
    def total_energy_j(self) -> float:
        return sum(s.energy.energy_j for s in self.servers)

    @property
    def shard_speedup(self) -> float:
        """Estimated parallel speedup: total shard work / critical path."""
        if not self.shards:
            return 1.0
        slowest = max(s.wall_s for s in self.shards)
        if slowest <= 0:
            return 1.0
        return sum(s.wall_s for s in self.shards) / slowest


def run_datacenter(
    config: DatacenterConfig,
    *,
    jobs: Optional[int] = None,
    window_ns: Optional[int] = None,
    **observers,
) -> DatacenterResult:
    """Run a datacenter config, sharded when ``config.n_shards > 1``.

    The keywords are those of
    :class:`~repro.cluster.sharding.ShardedDatacenterRun`; none enters
    the config hash or can change the simulated outcome.
    """
    from repro.cluster.sharding import ShardedDatacenterRun

    return ShardedDatacenterRun(config, jobs=jobs, window_ns=window_ns, **observers).execute()
