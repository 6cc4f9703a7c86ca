"""Conservative time-window sharded execution of a datacenter run.

pd-gem5 — the simulator NCAP was evaluated on — parallelizes a cluster
by giving every node its own simulator process and synchronizing them in
fixed time quanta no larger than the minimum cross-node latency.  This
module is that shape in Python:

- a :class:`ShardRun` owns one :class:`~repro.sim.kernel.Simulator` with
  a contiguous slice of the fleet's servers (plus their client pools or
  frontend ports and a shard-local switch);
- a :class:`ShardedDatacenterRun` coordinator advances every shard to
  the same boundary, window by window, injecting the frontend tier's
  planned dispatches at the top of each window.

**Why windows are safe.**  In classic (per-server client pool) mode there
are *no* inter-shard events at all — the star topology gives every
server its own links, clients and RNG streams — so windows are pure sync
points and any window size gives the same result.  In frontend mode the
only inter-shard events are frontend dispatches, every one of which
leaves the frontend ``dispatch_latency_ns`` after its spray decision;
with a window no larger than that latency, decisions for a window are
always complete before the window executes (the classic conservative
lookahead argument).  The window defaults to
:func:`conservative_window_ns`: the dispatch latency in frontend mode,
the minimum client burst period otherwise.

**Why results are bit-identical across shard counts.**  Shard placement
never changes what any server's simulator executes: per-server event
streams are decoupled (own links/ports, name-derived RNG streams,
per-server telemetry), the frontend plan is computed coordinator-side as
a pure function of the config seed, and collection merges per-server
measurements in server-index order (fixing float summation order).  A
``n_shards=8`` run in 8 worker processes therefore merges to a
:class:`~repro.harness.record.ResultRecord` byte-identical — JSON and
sha256 — to the ``n_shards=1`` in-process run.  The recorder's
serial==pool byte-identical contract (PR 4) is the template, extended to
whole simulators.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.apps.client import OpenLoopClient
from repro.apps.workload import burst_period_ns, default_burst_size, sla_for
from repro.cluster.datacenter import (
    DatacenterConfig,
    DatacenterResult,
    ServerOutcome,
    ShardStats,
)
from repro.cluster.frontend import Dispatch, FrontendPlanner, FrontendPort
from repro.cluster.node import ServerNode
from repro.cluster.simulation import (
    SINGLE_RUN_ONLY,
    Observers,
    ServerMeasure,
    Station,
    arm_window,
    client_pool,
)
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.harness.runner import pool_result, resolve_jobs
from repro.metrics.energy import average_power_w
from repro.metrics.latency import LatencyStats
from repro.net.switch import Switch
from repro.profiling.fleet import FleetProfile, WindowSample
from repro.profiling.profiler import SimProfiler
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.recorder import merge_timeseries_bundles
from repro.telemetry.tracing import (
    FleetTraceBundle,
    RequestTraceCollector,
    merge_fleet_traces,
)

#: At most this many servers get a flight recorder in a recorded run
#: (always the lowest indices, independent of sharding).
MAX_RECORDED_SERVERS = 4


def shard_plan(n_servers: int, n_shards: int) -> List[List[int]]:
    """Partition server indices into ``n_shards`` contiguous slices."""
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_shards > n_servers:
        raise ValueError("n_shards cannot exceed n_servers")
    base, extra = divmod(n_servers, n_shards)
    plan: List[List[int]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        plan.append(list(range(start, start + size)))
        start += size
    return plan


def conservative_window_ns(config: DatacenterConfig) -> int:
    """The default synchronization window for ``config``.

    Frontend mode: the frontend dispatch latency (the lookahead bound —
    every cross-shard event is planned at least this long before it
    lands).  Classic mode: the minimum client burst period across the
    fleet — there are no cross-shard events, so this is purely a sync
    cadence, chosen to match the natural granularity of the workload.
    """
    if config.frontend is not None:
        return config.frontend.dispatch_latency_ns
    burst_size = default_burst_size(config.app)
    periods = [
        burst_period_ns(
            config.total_rps * share, config.clients_per_server, burst_size
        )
        for share in config.resolved_shares()
    ]
    return max(1, min(periods))


@dataclass
class ShardResult:
    """Everything one shard reports after its final window."""

    shard_index: int
    server_indices: List[int]
    measures: List[ServerMeasure]
    events: int
    wall_s: float
    profile: Dict[str, object] = field(default_factory=dict)
    #: Per-shard request-trace payload (sampled spans), when tracing.
    trace: Dict[str, object] = field(default_factory=dict)


class ShardRun:
    """One shard: a simulator owning a slice of the fleet's servers.

    The build replicates the classic single-process datacenter topology
    for exactly the servers in ``server_indices``: one
    :class:`~repro.cluster.simulation.Station` per server on a shard-local
    switch (global names are kept: shard placement is invisible to the
    simulated system).  Every server after the first
    :data:`MAX_RECORDED_SERVERS` is built without a flight recorder.
    """

    def __init__(
        self,
        config: DatacenterConfig,
        shard_index: int,
        server_indices: Sequence[int],
        *,
        observers: Observers = Observers(),
    ):
        self.config = config
        self.shard_index = shard_index
        self.server_indices = list(server_indices)
        self.window = (config.warmup_ns, config.warmup_ns + config.measure_ns)
        self.sim = Simulator()
        #: The shard's own profiler, reported in :attr:`ShardResult.profile`.
        self.profiler = SimProfiler() if observers.profile else None
        if self.profiler is not None:
            self.profiler.attach(self.sim)
        self.rng = RngRegistry(config.seed)
        self.switch = Switch(self.sim)
        self.stations: List[Station] = []
        self.frontend_ports: Dict[int, FrontendPort] = {}
        self.wall_s = 0.0
        #: Wall/event deltas of the most recent ``advance`` window (the
        #: coordinator's window profiler and monitor read these).
        self.last_window_wall_s = 0.0
        self.last_window_events = 0
        self.tracer: Optional[RequestTraceCollector] = None
        if observers.trace_requests is not None:
            self.tracer = RequestTraceCollector(observers.trace_requests.sample_every)
        unrecorded = replace(observers, record_timeseries=None)

        shares = config.resolved_shares()
        burst_size = default_burst_size(config.app)
        for i in self.server_indices:
            server = ServerNode(
                self.sim, f"server{i}", config.policy, config.app, self.rng
            )
            if self.tracer is not None:
                self.tracer.attach_server(i, server)
            clients: List[OpenLoopClient] = []
            sources = None
            if config.frontend is not None:
                port = FrontendPort(self.sim, f"frontend{i}")
                self.frontend_ports[i] = port
                if self.tracer is not None:
                    self.tracer.attach_port(i, port)
                sources = [port]
            else:
                rps = config.total_rps * shares[i]
                clients = client_pool(
                    self.sim, self.rng, config.app, server.name,
                    [f"client{i}_{j}" for j in range(config.clients_per_server)],
                    burst_size=burst_size,
                    burst_period_ns=burst_period_ns(
                        rps, config.clients_per_server, burst_size
                    ),
                    jitter_fraction=0.30,
                )
            # Per-server observers are placement-independent (they read
            # only the server's own meters/governor/registry), so serial,
            # sharded, and pooled runs produce identical payloads.
            self.stations.append(
                Station(
                    self.sim, self.switch, server, clients, sources,
                    observers=observers if i < MAX_RECORDED_SERVERS else unrecorded,
                )
            )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start every station and arm the measurement window."""
        for station in self.stations:
            station.start()
        arm_window(self.sim, self.stations, self.window)

    def advance(
        self,
        until_ns: int,
        injections: Sequence[Tuple[int, int, object]] = (),
    ) -> Dict[int, int]:
        """Inject planned dispatches and run to ``until_ns``.

        ``injections`` is ``(send_ns, server_index, frame)``, time-ordered,
        every send inside ``(now, until_ns]``.  Returns the per-server
        outstanding-request counts at the boundary (frontend mode; empty
        otherwise) — the load view the spray policies consume.
        """
        t0 = time.perf_counter()
        events_before = self.sim.events_executed
        if injections:
            grouped: Dict[int, List[Tuple[int, object]]] = {}
            for send_ns, server_index, frame in injections:
                grouped.setdefault(server_index, []).append((send_ns, frame))
            for server_index, dispatches in grouped.items():
                self.frontend_ports[server_index].inject(dispatches)
        self.sim.run(until=until_ns)
        self.last_window_wall_s = time.perf_counter() - t0
        self.last_window_events = self.sim.events_executed - events_before
        self.wall_s += self.last_window_wall_s
        if self.frontend_ports:
            return {
                i: port.outstanding for i, port in self.frontend_ports.items()
            }
        return {}

    # -- collection ------------------------------------------------------

    def collect(self) -> ShardResult:
        """Per-server measurements after the final window."""
        return ShardResult(
            shard_index=self.shard_index,
            server_indices=list(self.server_indices),
            measures=[
                station.measure(self.window, i)
                for i, station in zip(self.server_indices, self.stations)
            ],
            events=self.sim.events_executed,
            wall_s=self.wall_s,
            profile=(
                self.profiler.profile().to_json_dict()
                if self.profiler is not None
                else {}
            ),
            trace=self.tracer.payload() if self.tracer is not None else {},
        )


class _ShardHost:
    """Several ShardRuns hosted in one process (the whole fleet in serial
    mode; one slot's share of the shards in pool mode)."""

    def __init__(
        self,
        config: DatacenterConfig,
        assignments: Dict[int, List[int]],
        observers: Observers,
    ):
        self.shards: Dict[int, ShardRun] = {
            k: ShardRun(config, k, assignments[k], observers=observers)
            for k in sorted(assignments)
        }

    def start(self) -> None:
        for shard in self.shards.values():
            shard.start()

    def advance(
        self,
        until_ns: int,
        injections: Dict[int, List[Tuple[int, int, object]]],
    ) -> Tuple[Dict[int, int], Dict[int, Tuple[float, int]]]:
        """Advance every hosted shard; returns (outstanding, reports).

        ``reports`` maps shard index to its ``(wall_s, events)`` delta for
        this window — the raw material of the fleet window profiler.
        """
        outstanding: Dict[int, int] = {}
        reports: Dict[int, Tuple[float, int]] = {}
        for shard_index, shard in self.shards.items():
            outstanding.update(
                shard.advance(until_ns, injections.get(shard_index, ()))
            )
            reports[shard_index] = (
                shard.last_window_wall_s, shard.last_window_events
            )
        return outstanding, reports

    def collect(self) -> List[ShardResult]:
        return [self.shards[k].collect() for k in sorted(self.shards)]


# -- process-pool worker plumbing ---------------------------------------
#
# Each pool slot is a single-worker ProcessPoolExecutor whose one process
# hosts a fixed subset of the shards as module-global state, pd-gem5
# style: the simulators persist across window calls.

_WORKER_HOST: Optional[_ShardHost] = None


def _worker_init(payload: Dict[str, object]) -> None:
    global _WORKER_HOST
    _WORKER_HOST = _ShardHost(**payload)


def _worker_start() -> None:
    _WORKER_HOST.start()


def _worker_advance(
    until_ns, injections
) -> Tuple[Dict[int, int], Dict[int, Tuple[float, int]]]:
    return _WORKER_HOST.advance(until_ns, injections)


def _worker_collect() -> List[ShardResult]:
    return _WORKER_HOST.collect()


class _PoolWorkers:
    """P persistent single-worker pools, each hosting n_shards/P shards.

    A slot whose worker dies raises a ``RuntimeError`` naming the phase
    (start, the window being advanced, or collect) and the slot's shards.
    """

    def __init__(self, payloads: List[Dict[str, object]]):
        from concurrent.futures import ProcessPoolExecutor

        self._slots = [
            ProcessPoolExecutor(
                max_workers=1, initializer=_worker_init, initargs=(payload,)
            )
            for payload in payloads
        ]
        self._slot_shards = [sorted(p["assignments"]) for p in payloads]

    def _results(self, futures: list, phase: str) -> list:
        return [
            pool_result(future, f"{phase} on shards {shards}")
            for future, shards in zip(futures, self._slot_shards)
        ]

    def start_all(self) -> None:
        self._results(
            [slot.submit(_worker_start) for slot in self._slots], "start"
        )

    def advance_all(
        self,
        start_ns: int,
        until_ns: int,
        injections_by_shard: Dict[int, List[Tuple[int, int, object]]],
        slot_of_shard: Dict[int, int],
    ) -> Tuple[Dict[int, int], Dict[int, Tuple[float, int]]]:
        per_slot: List[Dict[int, List[Tuple[int, int, object]]]] = [
            {} for _ in self._slots
        ]
        for shard_index, dispatches in injections_by_shard.items():
            per_slot[slot_of_shard[shard_index]][shard_index] = dispatches
        futures = [
            slot.submit(_worker_advance, until_ns, inj)
            for slot, inj in zip(self._slots, per_slot)
        ]
        outstanding: Dict[int, int] = {}
        reports: Dict[int, Tuple[float, int]] = {}
        for slot_outstanding, slot_reports in self._results(
            futures, f"window [{start_ns}, {until_ns}) ns"
        ):
            outstanding.update(slot_outstanding)
            reports.update(slot_reports)
        return outstanding, reports

    def collect_all(self) -> List[ShardResult]:
        results: List[ShardResult] = []
        for slot_results in self._results(
            [slot.submit(_worker_collect) for slot in self._slots], "collect"
        ):
            results.extend(slot_results)
        results.sort(key=lambda r: r.shard_index)
        return results

    def close(self) -> None:
        for slot in self._slots:
            slot.shutdown(wait=False, cancel_futures=True)


class ShardedDatacenterRun:
    """The window coordinator: builds, advances and merges the shards.

    ``observers`` are the fleet keywords of
    :meth:`~repro.cluster.simulation.Observers.of`.  ``jobs`` sets the
    worker processes for the shards (None = machine default; 1 forces
    serial in-process execution, which is bit-identical) and
    ``window_ns`` (at least 1 ns) overrides the conservative sync window.
    """

    def __init__(
        self,
        config: DatacenterConfig,
        *,
        jobs: Optional[int] = None,
        window_ns: Optional[int] = None,
        **observers,
    ):
        self.config = config
        self.observers = Observers.of(**observers).reject(SINGLE_RUN_ONLY, "a fleet run")
        if window_ns is not None and window_ns < 1:
            raise ValueError(f"window_ns must be at least 1 ns, got {window_ns}")
        self.plan = shard_plan(config.n_servers, config.n_shards)
        self.window_ns = (
            conservative_window_ns(config) if window_ns is None else window_ns
        )
        if config.frontend is not None:
            self._dispatch_ns = config.frontend.dispatch_latency_ns
            if self.window_ns > self._dispatch_ns:
                raise ValueError(
                    "sync window must not exceed the frontend dispatch "
                    "latency (the conservative lookahead bound)"
                )
        else:
            self._dispatch_ns = 0
        if self.observers.trace_requests is not None and config.frontend is None:
            raise ValueError(
                "request tracing requires frontend mode: classic client "
                "pools draw request ids from a process-global counter, so "
                "(src, req_id) identities would depend on shard placement "
                "and the sampled set could not be placement-deterministic"
            )
        self.fleet_profile: Optional[FleetProfile] = None
        n_jobs = resolve_jobs(jobs)
        self._use_pool = config.n_shards > 1 and n_jobs > 1
        self._n_slots = min(n_jobs, config.n_shards)
        self._shard_of: Dict[int, int] = {}
        for shard_index, indices in enumerate(self.plan):
            for i in indices:
                self._shard_of[i] = shard_index
        self._inline_host: Optional[_ShardHost] = None
        if not self._use_pool:
            self._inline_host = _ShardHost(
                config, dict(enumerate(self.plan)), self.observers
            )

    def inline_shards(self) -> List[ShardRun]:
        """The in-process ShardRuns (serial mode only), in shard order."""
        if self._inline_host is None:
            raise RuntimeError("shards live in worker processes (jobs > 1)")
        return [
            self._inline_host.shards[k]
            for k in sorted(self._inline_host.shards)
        ]

    # -- the window loop -------------------------------------------------

    def execute(self) -> DatacenterResult:
        config = self.config
        trace = self.observers.trace_requests
        planner: Optional[FrontendPlanner] = None
        if config.frontend is not None:
            planner = FrontendPlanner(
                config.frontend,
                n_servers=config.n_servers,
                total_rps=config.total_rps,
                app=config.app,
                warmup_ns=config.warmup_ns,
                measure_ns=config.measure_ns,
                seed=config.seed,
                sample_every=trace.sample_every if trace is not None else None,
            )

        pool: Optional[_PoolWorkers] = None
        slot_of_shard: Dict[int, int] = {}
        if self._use_pool:
            # The monitor stays with the coordinator, which alone reads
            # the window reports it writes.
            payload_base = dict(
                config=config,
                observers=replace(self.observers, monitor=None),
            )
            payloads: List[Dict[str, object]] = []
            for slot in range(self._n_slots):
                assignments = {
                    k: self.plan[k]
                    for k in range(slot, config.n_shards, self._n_slots)
                }
                for k in assignments:
                    slot_of_shard[k] = slot
                payloads.append(dict(payload_base, assignments=assignments))
            pool = _PoolWorkers(payloads)

        fleet_profile: Optional[FleetProfile] = None
        if self.observers.profile_fleet:
            fleet_profile = FleetProfile(
                n_shards=config.n_shards,
                n_slots=self._n_slots if self._use_pool else 1,
            )
        monitor = self.observers.monitor
        end_ns = config.end_ns
        window = self.window_ns
        if monitor is not None:
            monitor.begin(
                n_windows=-(-end_ns // window),
                end_ns=end_ns,
                n_shards=config.n_shards,
            )
        events_total = 0

        try:
            if pool is not None:
                pool.start_all()
            else:
                self._inline_host.start()

            pending: Deque[Dispatch] = deque()
            t = 0
            window_index = 0
            while t < end_ns:
                w_end = min(t + window, end_ns)
                t_plan = time.perf_counter()
                if planner is not None:
                    pending.extend(
                        planner.plan_until(w_end - self._dispatch_ns)
                    )
                injections: Dict[int, List[Tuple[int, int, object]]] = {}
                injected = 0
                while pending and pending[0].send_ns <= w_end:
                    d = pending.popleft()
                    injections.setdefault(
                        self._shard_of[d.server_index], []
                    ).append((d.send_ns, d.server_index, d.frame))
                    injected += 1
                t_advance = time.perf_counter()
                if pool is not None:
                    outstanding, reports = pool.advance_all(
                        t, w_end, injections, slot_of_shard
                    )
                else:
                    outstanding, reports = self._inline_host.advance(
                        w_end, injections
                    )
                t_observe = time.perf_counter()
                if planner is not None:
                    view = [0] * config.n_servers
                    for server_index, count in outstanding.items():
                        view[server_index] = count
                    planner.observe(w_end, view)
                t_done = time.perf_counter()

                shard_wall = {s: w for s, (w, _) in reports.items()}
                shard_events = {s: n for s, (_, n) in reports.items()}
                events_total += sum(shard_events.values())
                if fleet_profile is not None:
                    fleet_profile.record(
                        WindowSample(
                            index=window_index,
                            t_start_ns=t,
                            t_end_ns=w_end,
                            plan_s=t_advance - t_plan,
                            advance_s=t_observe - t_advance,
                            observe_s=t_done - t_observe,
                            shard_wall_s=shard_wall,
                            shard_events=shard_events,
                            injections=injected,
                        )
                    )
                if monitor is not None:
                    monitor.on_window(
                        index=window_index,
                        t_end_ns=w_end,
                        shard_wall_s=shard_wall,
                        shard_events=shard_events,
                        events_total=events_total,
                    )
                t = w_end
                window_index += 1

            if pool is not None:
                shard_results = pool.collect_all()
            else:
                shard_results = self._inline_host.collect()
        finally:
            if pool is not None:
                pool.close()
            if monitor is not None:
                monitor.close(events_total=events_total)

        self.fleet_profile = fleet_profile
        return self._merge(shard_results, planner, fleet_profile)

    # -- merge -----------------------------------------------------------

    def _merge(
        self,
        shard_results: List[ShardResult],
        planner: Optional[FrontendPlanner],
        fleet_profile: Optional[FleetProfile] = None,
    ) -> DatacenterResult:
        config = self.config
        measures: List[ServerMeasure] = [
            m for r in shard_results for m in r.measures
        ]
        measures.sort(key=lambda m: m.index)
        shares = config.resolved_shares()
        sla_ns = sla_for(config.app)

        outcomes: List[ServerOutcome] = []
        for m in measures:
            if planner is not None:
                target = (
                    planner.dispatched_in_measure[m.index]
                    * 1e9 / config.measure_ns
                )
            else:
                target = config.total_rps * shares[m.index]
            latency = LatencyStats.from_values(m.rtts)
            outcomes.append(
                ServerOutcome(
                    server=m.name,
                    target_rps=target,
                    utilization=m.utilization,
                    latency=latency,
                    energy=m.energy,
                    meets_sla=latency.meets_sla(sla_ns),
                )
            )

        shard_stats = [
            ShardStats(
                shard_index=r.shard_index,
                server_indices=list(r.server_indices),
                events=r.events,
                wall_s=r.wall_s,
                profile=r.profile,
            )
            for r in shard_results
        ]
        trace_bundle: Optional[FleetTraceBundle] = None
        fleet_section: Dict[str, object] = {}
        if self.observers.trace_requests is not None and planner is not None:
            trace_bundle = merge_fleet_traces(
                self.observers.trace_requests,
                planner.trace_samples,
                [r.trace for r in shard_results],
            )
            # Only deterministic sim-time data enters the record: the
            # trace bundle is byte-identical across shard count, pool
            # size and window size (the parity tests assert it); the
            # wall-clock window profile stays on the result object.
            fleet_section = {"trace": trace_bundle.to_json_dict()}
        return DatacenterResult(
            config=config,
            servers=outcomes,
            shards=shard_stats,
            record=build_fleet_record(config, measures, fleet=fleet_section),
            trace=trace_bundle,
            fleet_profile=fleet_profile,
        )


def build_fleet_record(
    config: DatacenterConfig,
    measures: Sequence[ServerMeasure],
    *,
    fleet: Optional[Dict[str, object]] = None,
) -> ResultRecord:
    """Merge per-server measurements into one fleet ResultRecord.

    Deterministic by construction: inputs arrive sorted by server index
    and every float reduction runs in that order, so the record — JSON
    and sha256 — is independent of shard count and worker placement.
    ``n_shards`` is an execution detail, not an experiment identity, so
    the config hash is taken with it normalized to 1; wall-clock facts
    live on :class:`~repro.cluster.datacenter.ShardStats` instead.
    """
    if not measures:
        raise ValueError("cannot build a fleet record from zero servers")
    rtts: List[int] = []
    for m in measures:
        rtts.extend(m.rtts)
    latency = LatencyStats.from_values(rtts)
    sent = sum(m.sent for m in measures)
    responses = sum(m.responses for m in measures)
    energy = measures[0].energy
    for m in measures[1:]:
        energy = energy.merge(m.energy)
    counters: Dict[str, float] = {}
    cstate_entries: Dict[str, int] = {}
    ncap_stats: Dict[str, int] = {}
    for m in measures:
        for key, value in m.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in m.cstate_entries.items():
            cstate_entries[key] = cstate_entries.get(key, 0) + value
        for key, value in m.ncap_stats.items():
            ncap_stats[key] = ncap_stats.get(key, 0) + value
    bundles = {m.name: m.timeseries for m in measures if m.timeseries is not None}
    timeseries: Dict[str, object] = {}
    if bundles:
        timeseries = merge_timeseries_bundles(bundles).to_json_dict()
    # Per-server attributions reduce in server-index order (the same
    # float-summation-order discipline as ``energy`` above), so the
    # merged payload is byte-identical across shard counts/pool sizes.
    energy_attribution: Dict[str, object] = {}
    attributions = [
        m.energy_attribution for m in measures if m.energy_attribution is not None
    ]
    if attributions:
        merged_attribution = attributions[0]
        for attribution in attributions[1:]:
            merged_attribution = merged_attribution.merge(attribution)
        energy_attribution = merged_attribution.to_json_dict()
    sla_ns = sla_for(config.app)
    return ResultRecord(
        config_hash=config_hash(replace(config, n_shards=1)),
        app=config.app,
        policy=measures[0].policy_name,
        target_rps=config.total_rps,
        seed=config.seed,
        sla_ns=sla_ns,
        meets_sla=latency.meets_sla(sla_ns),
        requests_sent=sent,
        responses_received=responses,
        incomplete=sent - responses,
        achieved_rps=sent * 1e9 / config.measure_ns,
        avg_power_w=average_power_w(energy, config.measure_ns),
        latency_count=latency.count,
        mean_ns=latency.mean_ns,
        p50_ns=latency.p50_ns,
        p90_ns=latency.p90_ns,
        p95_ns=latency.p95_ns,
        p99_ns=latency.p99_ns,
        max_ns=latency.max_ns,
        energy_j=energy.energy_j,
        residency_ns=dict(energy.residency_ns),
        energy_by_mode_j=dict(energy.energy_by_mode_j),
        cstate_entries=cstate_entries,
        ncap_stats=ncap_stats,
        counters=counters,
        timeseries=timeseries,
        energy_attribution=energy_attribution,
        fleet=dict(fleet) if fleet else {},
    )


__all__ = [
    "MAX_RECORDED_SERVERS",
    "ShardResult",
    "ShardRun",
    "ShardedDatacenterRun",
    "build_fleet_record",
    "conservative_window_ns",
    "shard_plan",
]
