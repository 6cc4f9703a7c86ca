"""Experiment runner: the paper's four-node cluster, end to end.

Topology (Section 5): three open-loop clients and one server, joined by a
switch over 10 Gb/s, 1 µs links.  Each run has a warmup window (excluded
from all measurements), a measurement window (request latencies are
attributed to their *send* time; energy is the meter delta across the
window), and a drain window so in-flight requests can complete.

Every run in the repo is that star, once or many times over.  A
:class:`Station` is one server with its traffic sources and per-server
observers on a switch; :func:`build_station` builds every server, its
clients and its station from one :class:`ExperimentConfig`, and
:func:`arm_window` marks the measurement window on every station.  A
:class:`ShardRun` is the one object that owns a simulator and its
stations: a fleet shard (:mod:`repro.cluster.sharding`) is one station
per server, :class:`Cluster` is a one-station ``ShardRun`` plus the
single-run observers, and the Section 7/8 experiments are one station
around their own server class.
"""

from __future__ import annotations

import gc
import importlib
import time
from array import array
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.apps.client import (
    INTRA_BURST_GAP_NS,
    OpenLoopClient,
    http_request_factory,
    memcached_request_factory,
)
from repro.apps.workload import burst_period_ns, check_app, default_burst_size, sla_for
from repro.cluster.frontend import FrontendPort
from repro.cluster.node import ServerNode
from repro.cluster.policies import PolicyConfig
from repro.core.config import NCAPConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.energy import EnergyReport
from repro.metrics.energy import average_power_w, energy_delta
from repro.metrics.latency import LatencyStats
from repro.net.switch import Switch
from repro.oskernel.cpuidle import IdleAccounting, build_idle_accounting
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - observers are imported when asked for
    from repro.analysis.attribution import AttributionReport, AttributionSink
    from repro.analysis.audit import InvariantAuditor
    from repro.analysis.energy import EnergyAttribution
    from repro.profiling.profiler import LoopProfile, SimProfiler
    from repro.telemetry.monitor import RunMonitor
    from repro.telemetry.recorder import (
        RecorderConfig,
        TimeSeriesRecorder,
        TimeseriesBundle,
    )
    from repro.telemetry.tracing import RequestTraceCollector, TraceConfig


def check_run_window(warmup_ns: int, measure_ns: int, drain_ns: int) -> None:
    """Raise :class:`ValueError`, naming the field, unless the run window
    is usable: ``warmup_ns >= 0``, ``measure_ns > 0`` and ``drain_ns >= 0``.

    Every config that sets a run window checks it on construction, so a
    bad window fails before a simulator is built.
    """
    if warmup_ns < 0:
        raise ValueError(f"warmup_ns must be non-negative, got {warmup_ns}")
    if measure_ns <= 0:
        raise ValueError(f"measure_ns must be positive, got {measure_ns}")
    if drain_ns < 0:
        raise ValueError(f"drain_ns must be non-negative, got {drain_ns}")


#: Fractional jitter on each client's burst period.  Datacenter burst
#: timing is highly variable (Benson et al., the paper's [30]); 0.30
#: reproduces the unpredictable inter-burst gaps that make reactive
#: governors mispredict (Section 3 of the paper).
BURST_JITTER = 0.30


@dataclass
class ExperimentConfig:
    """One cluster run."""

    app: str = "apache"
    policy: Union[str, PolicyConfig] = "perf"
    target_rps: float = 24_000.0
    n_clients: int = 3
    #: Per-client burst size; None selects the application default
    #: (Apache 200, Memcached 75 — see ``repro.apps.workload``).
    burst_size: Optional[int] = None
    warmup_ns: int = 40 * MS
    measure_ns: int = 300 * MS
    drain_ns: int = 60 * MS
    seed: int = 1
    ondemand_period_ns: int = 10 * MS
    #: Frozen, so every config that keeps the default shares one value.
    processor: ProcessorConfig = ProcessorConfig()
    #: Override the NIC's per-frame rx DMA latency (None = NIC default).
    #: Used by the TOE-slack ablation (Section 7 of the paper).
    nic_dma_latency_ns: Optional[int] = None
    ncap_base_config: Optional[NCAPConfig] = None

    def __post_init__(self) -> None:
        check_run_window(self.warmup_ns, self.measure_ns, self.drain_ns)
        check_app(self.app)
        if self.target_rps <= 0:
            raise ValueError(f"target_rps must be positive, got {self.target_rps}")
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be at least 1, got {self.n_clients}")
        # A client sends one request per gap, so each burst period must be
        # at least one burst long.
        max_rps = self.n_clients * 1e9 / INTRA_BURST_GAP_NS
        if self.target_rps > max_rps:
            raise ValueError(
                f"target_rps must be at most {max_rps:.0f} with {self.n_clients} "
                f"client(s) (one request per {INTRA_BURST_GAP_NS} ns each), "
                f"got {self.target_rps}"
            )
        if self.burst_size is not None and self.burst_size < 1:
            raise ValueError(f"burst_size must be None or at least 1, got {self.burst_size}")

    @property
    def sla_ns(self) -> int:
        return sla_for(self.app)

    @property
    def resolved_burst_size(self) -> int:
        """``burst_size``, or the application default when it is None."""
        if self.burst_size is not None:
            return self.burst_size
        return default_burst_size(self.app)

    @property
    def burst_period_ns(self) -> int:
        """Each client's burst period, so the clients offer ``target_rps``."""
        return burst_period_ns(self.target_rps, self.n_clients, self.resolved_burst_size)

    @property
    def end_ns(self) -> int:
        return self.warmup_ns + self.measure_ns + self.drain_ns

    @classmethod
    def from_settings(cls, settings, **overrides) -> "ExperimentConfig":
        """Build a config whose run windows and seed come from ``settings``.

        ``settings`` is any object with ``warmup_ns``/``measure_ns``/
        ``drain_ns``/``seed`` attributes (normally a
        :class:`repro.experiments.common.RunSettings`); every other field,
        including an explicit ``seed``, can be overridden via keywords.
        """
        fields = dict(
            warmup_ns=settings.warmup_ns,
            measure_ns=settings.measure_ns,
            drain_ns=settings.drain_ns,
            seed=settings.seed,
        )
        fields.update(overrides)
        return cls(**fields)


@dataclass
class ExperimentResult:
    """Everything a bench/table needs from one run.

    ``server`` is populated only on request (``keep_server=True``): the
    live server pins the whole simulated cluster in memory and makes the
    result unpicklable, which sweeps and process-pool runs cannot afford.
    Time series come from ``record_timeseries=`` (``timeseries``); exact
    per-event data comes from a sink passed through ``sinks=``.
    """

    policy_name: str
    app: str
    target_rps: float
    latency: LatencyStats
    energy: EnergyReport
    avg_power_w: float
    sla_ns: int
    meets_sla: bool
    requests_sent: int
    responses_received: int
    incomplete: int
    achieved_rps: float
    cstate_entries: Dict[str, int]
    ncap_stats: Dict[str, int]
    #: Flat snapshot of the server's stats registry (``nic.rx.frames``,
    #: ``cpuidle.c6.entries``, ``governor.ondemand.invocations``, …),
    #: taken at the end of the run.  Additive: existing fields above are
    #: unchanged by its presence.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Critical-path attribution summary, populated when an
    #: :class:`~repro.analysis.attribution.AttributionSink` was attached.
    #: Additive: None on plain runs.
    attribution: Optional[AttributionReport] = None
    #: Flight-recorder capture, populated when the run was built with
    #: ``record_timeseries=`` (a preset name, ``True``, or a
    #: :class:`~repro.telemetry.recorder.RecorderConfig`).  Plain
    #: JSON-able data — the result stays picklable for pool sweeps.
    timeseries: Optional[TimeseriesBundle] = None
    #: Simulator self-profile (per-handler wall-time attribution, heap
    #: health), populated when the run was built with ``profile=``.
    #: Plain data — picklable for pool sweeps.  Additive: None on plain
    #: runs.
    profile: Optional[LoopProfile] = None
    #: Energy decomposition + governor-miss accounting over the
    #: measurement window, populated when the run was built with
    #: ``energy_attribution=True``.  Plain data — picklable.  Additive:
    #: None on plain runs.
    energy_attribution: Optional[EnergyAttribution] = None
    server: Optional[ServerNode] = None

    @property
    def normalized_latency(self) -> Dict[str, float]:
        return self.latency.normalized_to(self.sla_ns)


@dataclass
class ServerMeasure:
    """One server's measurement window, picklable across the worker
    boundary."""

    index: int
    name: str
    policy_name: str
    #: RTTs of the requests sent in the window, ``array("q")``.
    rtts: array
    sent: int
    responses: int
    energy: EnergyReport
    utilization: float
    cstate_entries: Dict[str, int]
    ncap_stats: Dict[str, int]
    counters: Dict[str, float]
    #: The server's flight-recorder capture, when it was recorded.
    timeseries: Optional[TimeseriesBundle] = None
    #: Energy decomposition + governor-miss grades over the window, when
    #: the station was built with ``energy_attribution=True``.
    energy_attribution: Optional[EnergyAttribution] = None


@dataclass(frozen=True)
class Observers:
    """The observers of one run, resolved; build it with :meth:`of`.

    An observer reads the simulated system and fills its own section of
    the result; it never changes anything else in a record, and it is
    never a config field, so it never changes a cache key.
    """

    sinks: Tuple[object, ...] = ()
    audit: bool = False
    record_timeseries: Optional[RecorderConfig] = None
    profile: bool = False
    energy_attribution: bool = False
    trace_requests: Optional[TraceConfig] = None
    profile_fleet: bool = False
    monitor: Optional[RunMonitor] = None

    @classmethod
    def of(
        cls,
        *,
        sinks: Optional[Iterable[object]] = None,
        audit: bool = False,
        record_timeseries: Union[None, bool, str, RecorderConfig] = None,
        profile: bool = False,
        energy_attribution: bool = False,
        trace_requests: Union[None, bool, int, TraceConfig] = None,
        profile_fleet: bool = False,
        monitor: Union[None, bool, str, RunMonitor] = None,
    ) -> "Observers":
        """Resolve the observer keywords of every run entry point.

        Single runs (:func:`run_experiment`, :class:`Cluster`) only:

        - ``sinks``: telemetry sinks attached before the server is built;
          an :class:`~repro.analysis.attribution.AttributionSink` also
          gets every client's RTTs and fills ``attribution``.
        - ``audit``: an :class:`~repro.analysis.audit.InvariantAuditor`;
          any inconsistency raises ``AuditError`` at collection.

        Fleet runs (``ShardedDatacenterRun``, ``run_datacenter``,
        ``run_preset``) only:

        - ``trace_requests``: cross-shard request tracing (``True``, a
          sample-every ``int`` or a ``TraceConfig``), frontend mode only;
          fills the ``fleet`` section and ``result.trace``.
        - ``profile_fleet``: the per-window shard wall-time and imbalance
          profile on ``result.fleet_profile``.
        - ``monitor``: a live JSONL heartbeat: ``True`` or ``"-"`` for
          stderr, a path (truncated by each run) or a ``RunMonitor``.

        Both:

        - ``record_timeseries``: the flight recorder (``True``,
          ``"coarse"``/``"fine"`` or a ``RecorderConfig``); fills
          ``timeseries``.  A fleet records its first
          ``MAX_RECORDED_SERVERS`` servers.
        - ``profile``: ``True`` attaches a ``SimProfiler`` to each of the
          run's simulators and fills ``profile`` (a fleet: each shard's).
          Building a run schedules nothing, so a profiler of your own
          can be attached to ``cluster.sim`` or to each
          ``run.inline_shards()`` simulator after construction.
        - ``energy_attribution``: per-server idle accounting; fills
          ``energy_attribution`` with the energy decomposition and
          governor-miss grades, merged in server-index order in a fleet.

        An unknown keyword, a ``profile`` that is not a bool, or a value
        its observer cannot take raises :class:`TypeError` (an unknown
        recorder preset: :class:`ValueError`) here, before any simulator
        is built.  An observer's module is imported only when its keyword
        is on.
        """
        if not isinstance(profile, bool):
            raise TypeError(
                f"profile must be a bool, not {type(profile).__name__}: attach "
                "a SimProfiler of your own to the built run's simulators"
            )
        return cls(
            sinks=tuple(sinks or ()),
            audit=bool(audit),
            record_timeseries=_resolve(
                record_timeseries, "repro.telemetry.recorder", "resolve_recorder_config"
            ),
            profile=profile,
            energy_attribution=bool(energy_attribution),
            trace_requests=_resolve(
                trace_requests, "repro.telemetry.tracing", "resolve_trace_config"
            ),
            profile_fleet=bool(profile_fleet),
            monitor=_resolve(monitor, "repro.telemetry.monitor", "resolve_monitor"),
        )

    def reject(self, names: Sequence[str], run: str) -> "Observers":
        """This value, unless one of ``names`` is on: then raise
        :class:`ValueError` naming each that is, as observers ``run``
        cannot carry."""
        on = [
            f.name for f in fields(self)
            if f.name in names and getattr(self, f.name) != f.default
        ]
        if on:
            raise ValueError(f"{run} cannot carry the observers {', '.join(on)}")
        return self


def _resolve(spec, module: str, resolver: str):
    """``spec`` normalized by ``resolver`` from ``module``; None and False
    are off and import nothing."""
    if spec is None or spec is False:
        return None
    return getattr(importlib.import_module(module), resolver)(spec)


#: Observers only a fleet run carries, and those only a single run does.
FLEET_ONLY = ("trace_requests", "profile_fleet", "monitor")
SINGLE_RUN_ONLY = ("sinks", "audit")


def client_pool(
    sim: Simulator,
    rng: RngRegistry,
    app: str,
    server_name: str,
    names: Iterable[str],
    client_cls: type = OpenLoopClient,
    **client_kwargs,
) -> List[OpenLoopClient]:
    """One open-loop client per name, each sending ``app`` requests to
    ``server_name``.

    A client draws its burst jitter from the ``<name>.jitter`` stream and,
    under Memcached, its keys from ``<name>.keys``.  ``client_kwargs``
    (burst size and period, jitter fraction, ...) go to ``client_cls``.
    """
    clients: List[OpenLoopClient] = []
    for name in names:
        if app == "apache":
            factory = http_request_factory(name, server_name)
        else:
            factory = memcached_request_factory(
                name, server_name, rng=rng.stream(f"{name}.keys")
            )
        clients.append(
            client_cls(
                sim, name, factory,
                jitter_rng=rng.stream(f"{name}.jitter"),
                **client_kwargs,
            )
        )
    return clients


def station_clients(
    sim: Simulator,
    rng: RngRegistry,
    config: ExperimentConfig,
    server_name: str,
    index: Optional[int] = None,
) -> List[OpenLoopClient]:
    """The standard client pool ``config`` describes for ``server_name``:
    ``n_clients`` clients sending ``resolved_burst_size`` requests every
    ``burst_period_ns``, with :data:`BURST_JITTER`.

    ``index=None`` names them ``client<j>`` (a single run); fleet server
    ``i``'s are ``client<i>_<j>``.
    """
    prefix = "client" if index is None else f"client{index}_"
    return client_pool(
        sim, rng, config.app, server_name,
        [f"{prefix}{j}" for j in range(config.n_clients)],
        burst_size=config.resolved_burst_size,
        burst_period_ns=config.burst_period_ns,
        jitter_fraction=BURST_JITTER,
    )


class Station:
    """One server, its traffic sources and its per-server observers, wired
    into a star around ``switch``.

    ``clients`` are started with the server and stopped at the window
    close; ``sources`` (default: the clients) are what the station links
    to the switch and reads RTTs and send counts from.  A frontend-fed
    fleet server passes its frontend port as its only source.  Of the
    ``observers`` the station builds the per-server ones: the idle
    accounting (``energy_attribution``) and the flight recorder
    (``record_timeseries``).
    """

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        server,
        clients: Sequence[OpenLoopClient],
        sources: Optional[Sequence[object]] = None,
        *,
        observers: Observers = Observers(),
    ):
        self.server = server
        self.clients = list(clients)
        self.sources = list(sources) if sources is not None else self.clients
        #: Idle accounting: per-idle-exit bookings only resegment the
        #: meters at boundaries that close anyway, so attaching it cannot
        #: change the simulated result (the parity tests prove it).
        self.accounting: Optional[IdleAccounting] = None
        if observers.energy_attribution:
            cpuidle = server.cpuidle
            self.accounting = build_idle_accounting(
                server.package.cstates,
                cpuidle.governor if cpuidle is not None else None,
            )
            self.accounting.attach(server.package.cores)
        self.recorder: Optional[TimeSeriesRecorder] = None
        if observers.record_timeseries is not None:
            from repro.cluster.recording import build_server_recorder

            self.recorder = build_server_recorder(sim, server, observers.record_timeseries)
        for device in (server, *self.sources):
            switch.connect(device)
        self._marks: List[Tuple[EnergyReport, List[int], Optional[Dict]]] = []

    def start(self) -> None:
        """Start the server, then the recorder, then the clients.

        Clients start aligned: their bursts aggregate into the BW(Rx)
        surges of Figure 4 (the paper's clients are synchronized periodic
        sources).  The small per-period jitter keeps the alignment from
        being perfectly rigid over long runs.
        """
        self.server.start()
        if self.recorder is not None:
            self.recorder.start()
        for client in self.clients:
            client.start()

    def mark(self) -> None:
        """Window edge: cumulative energy, busy time and accounting, read
        in one call so all three see the same meter state."""
        accounting = self.accounting
        self._marks.append((
            self.server.energy_report(),
            [core.busy_ns_total() for core in self.server.scheduler.cores],
            accounting.snapshot() if accounting is not None else None,
        ))

    def window_rtts(self, window: Tuple[int, int]) -> array:
        """RTTs of the requests sent within ``window``, source by source,
        as ``array("q")``."""
        start, end = window
        rtts = array("q")
        for source in self.sources:
            rtts.extend(source.rtts_in_window(start, end))
        return rtts

    def energy(self) -> EnergyReport:
        """The server's energy between the two window marks."""
        (start, _, _), (end, _, _) = self._marks
        return energy_delta(start, end)

    def measure(self, window: Tuple[int, int], index: int) -> ServerMeasure:
        """Reduce a finished window to a :class:`ServerMeasure`."""
        start, end = window
        server = self.server
        rtts = self.window_rtts(window)
        energy = self.energy()
        (_, busy_a, accounting_a), (_, busy_b, accounting_b) = self._marks
        engine = server.engine
        ncap_stats: Dict[str, int] = {}
        if engine is not None:
            ncap_stats = {
                "it_high_posts": engine.it_high_posts,
                "it_low_posts": engine.it_low_posts,
                "immediate_rx_posts": engine.immediate_rx_posts,
            }
        cstate_entries: Dict[str, int] = {}
        for core in server.package.cores:
            for state, count in core.cstate_entries.items():
                cstate_entries[state] = cstate_entries.get(state, 0) + count
        energy_attribution: Optional[EnergyAttribution] = None
        if self.accounting is not None:
            from repro.analysis.energy import attribution_between

            energy_attribution = attribution_between(accounting_a, accounting_b, energy)
        return ServerMeasure(
            index=index,
            name=server.name,
            policy_name=server.policy.name,
            rtts=rtts,
            sent=sum(source.sent_in_window(start, end) for source in self.sources),
            responses=len(rtts),
            energy=energy,
            utilization=sum(b - a for a, b in zip(busy_a, busy_b))
            / (len(busy_a) * (end - start)),
            cstate_entries=cstate_entries,
            ncap_stats=ncap_stats,
            counters=server.telemetry.stats.snapshot(),
            timeseries=self.recorder.bundle() if self.recorder is not None else None,
            energy_attribution=energy_attribution,
        )


def _mark_stations(stations: Sequence[Station]) -> None:
    for station in stations:
        station.mark()


def arm_window(
    sim: Simulator, stations: Sequence[Station], window: Tuple[int, int]
) -> None:
    """Mark every station at both window edges (one event per edge) and
    stop every client at the close; the drain that follows lets
    in-flight requests complete.  Call after every station has started.
    """
    start, end = window
    stations = list(stations)
    sim.schedule_at(start, _mark_stations, stations)
    sim.schedule_at(end, _mark_stations, stations)
    for station in stations:
        for client in station.clients:
            sim.schedule_at(end, client.stop)


def build_station(
    sim: Simulator,
    rng: RngRegistry,
    switch: Switch,
    config: ExperimentConfig,
    *,
    observers: Observers,
    index: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    sources: Optional[Sequence[object]] = None,
) -> Station:
    """The server ``config`` describes, its clients and its station on
    ``switch``: the one way every run builds a server.

    ``index=None`` names them ``server`` and ``client<j>`` (a single
    run); fleet server ``i`` is ``server<i>`` with ``client<i>_<j>``.
    RNG streams derive from these names.  A server fed by ``sources``
    (its frontend port) gets no clients.
    """
    server = ServerNode(
        sim,
        "server" if index is None else f"server{index}",
        config.policy,
        config.app,
        rng,
        telemetry=telemetry,
        processor=config.processor,
        ondemand_period_ns=config.ondemand_period_ns,
        nic_dma_latency_ns=config.nic_dma_latency_ns,
        ncap_base_config=config.ncap_base_config,
    )
    clients: List[OpenLoopClient] = []
    if sources is None:
        clients = station_clients(sim, rng, config, server.name, index)
    return Station(sim, switch, server, clients, sources, observers=observers)


#: At most this many servers get a flight recorder in a recorded fleet
#: run (always the lowest indices, independent of sharding).
MAX_RECORDED_SERVERS = 4


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
    """A simulator with its stations, on one switch: a fleet shard, or the
    one station of a :class:`Cluster`.

    ``servers`` are ``(index, config)`` pairs, each built by
    :func:`build_station`; every config shares the first one's seed and
    run window.  With ``frontend`` each server is fed by a
    :class:`~repro.cluster.frontend.FrontendPort` ``frontend<i>`` in place
    of clients.  A fleet server from :data:`MAX_RECORDED_SERVERS` on is
    built without a flight recorder.  ``telemetry`` is the one-station
    run's shared ``Telemetry``; a fleet server gets its own.
    """

    def __init__(
        self,
        servers: Sequence[Tuple[Optional[int], ExperimentConfig]],
        *,
        frontend: bool = False,
        observers: Observers = Observers(),
        shard_index: int = 0,
        telemetry: Optional[Telemetry] = None,
    ):
        servers = list(servers)
        if telemetry is not None and len(servers) != 1:
            raise ValueError("only a one-station run shares a telemetry")
        first = servers[0][1]
        self.shard_index = shard_index
        self.server_indices = [i for i, _ in servers]
        self.window = (first.warmup_ns, first.warmup_ns + first.measure_ns)
        self.sim = Simulator()
        #: The shard's own profiler, reported in :attr:`ShardResult.profile`.
        self.profiler: Optional[SimProfiler] = None
        if observers.profile:
            from repro.profiling.profiler import SimProfiler

            self.profiler = SimProfiler()
            self.profiler.attach(self.sim)
        self.rng = RngRegistry(first.seed)
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
            from repro.telemetry.tracing import RequestTraceCollector

            self.tracer = RequestTraceCollector(observers.trace_requests.sample_every)
        unrecorded = replace(observers, record_timeseries=None)
        for i, config in servers:
            sources = None
            if frontend:
                port = FrontendPort(self.sim, f"frontend{i}")
                self.frontend_ports[i] = port
                sources = [port]
            # Per-server observers are placement-independent (they read
            # only the server's own meters/governor/registry), so serial,
            # sharded, and pooled runs produce identical payloads.
            station = build_station(
                self.sim, self.rng, self.switch, config,
                observers=(
                    unrecorded
                    if i is not None and i >= MAX_RECORDED_SERVERS
                    else observers
                ),
                index=i,
                telemetry=telemetry,
                sources=sources,
            )
            if self.tracer is not None:
                self.tracer.attach_server(i, station.server)
                if frontend:
                    self.tracer.attach_port(i, port)
            self.stations.append(station)

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


class Cluster:
    """A built (but not yet run) four-node experiment: a one-station
    :class:`ShardRun` plus the single-run observers.

    ``observers`` are the single-run keywords of :meth:`Observers.of`.
    None is an :class:`ExperimentConfig` field, because the config feeds
    the sweep cache hash.  With no sinks every probe stays disabled: the
    hot path pays a single truthiness check.
    """

    def __init__(self, config: ExperimentConfig, **observers):
        self.config = config
        self.observers = Observers.of(**observers).reject(FLEET_ONLY, "a single run")
        # Building the server emits probe events, so the sinks are on the
        # telemetry before the station is built.
        self.telemetry = Telemetry()
        self.auditor: Optional[InvariantAuditor] = None
        if self.observers.audit:
            from repro.analysis.audit import InvariantAuditor

            self.auditor = self.telemetry.add_sink(InvariantAuditor())
        self.attribution: Optional[AttributionSink] = None
        if self.observers.sinks:
            from repro.analysis.attribution import AttributionSink

            for sink in self.observers.sinks:
                self.telemetry.add_sink(sink)
                if isinstance(sink, AttributionSink):
                    self.attribution = sink
        self.shard = ShardRun(
            [(None, config)], observers=self.observers, telemetry=self.telemetry
        )
        self.sim = self.shard.sim
        self.rng = self.shard.rng
        self.switch = self.shard.switch
        self.profiler: Optional[SimProfiler] = self.shard.profiler
        self.window = self.shard.window
        (self.station,) = self.shard.stations
        self.server = self.station.server
        self.clients = self.station.clients
        self.burst_size = config.resolved_burst_size
        if self.attribution is not None:
            # The sink needs F_max (to re-cost cycles) and the measurement
            # window (to scope which requests feed the report).
            if self.attribution.f_max_hz is None:
                self.attribution.f_max_hz = self.server.package.max_frequency_hz
            if self.attribution.measure_window is None:
                self.attribution.measure_window = self.window
            for client in self.clients:
                client.rtt_listeners.append(self._attribution_listener(client.name))

    def _attribution_listener(self, client_name: str):
        sink = self.attribution

        def listener(req_id: int, send_ns: int, rtt_ns: int) -> None:
            sink.on_client_rtt(client_name, req_id, send_ns, rtt_ns)

        return listener

    def run(self, keep_server: bool = False) -> ExperimentResult:
        """Simulate and extract the result in one call."""
        self.simulate()
        return self.collect(keep_server=keep_server)

    def simulate(self) -> None:
        """Drive the cluster through warmup, measurement, and drain."""
        self.shard.start()
        self.shard.advance(self.config.end_ns)

    def collect(self, keep_server: bool = False) -> ExperimentResult:
        """Extract a result from a finished simulation.

        With an auditor attached this is where it renders judgement:
        any violation (streamed or end-of-run) raises
        :class:`~repro.analysis.audit.AuditError`.
        """
        config = self.config
        measure = self.station.measure(self.window, 0)
        if self.auditor is not None:
            self.auditor.finish(
                cluster=self,
                attribution=self.attribution,
                energy_attribution=measure.energy_attribution,
            )
        latency = LatencyStats.from_values(measure.rtts)
        responses = measure.responses
        sent = measure.sent
        return ExperimentResult(
            policy_name=measure.policy_name,
            app=config.app,
            target_rps=config.target_rps,
            latency=latency,
            energy=measure.energy,
            avg_power_w=average_power_w(measure.energy, config.measure_ns),
            sla_ns=config.sla_ns,
            meets_sla=latency.meets_sla(config.sla_ns),
            requests_sent=sent,
            responses_received=responses,
            incomplete=sent - responses,
            achieved_rps=sent * 1e9 / config.measure_ns,
            cstate_entries=measure.cstate_entries,
            ncap_stats=measure.ncap_stats,
            counters=measure.counters,
            attribution=(
                self.attribution.summary() if self.attribution is not None else None
            ),
            timeseries=measure.timeseries,
            profile=(
                self.profiler.profile() if self.profiler is not None else None
            ),
            energy_attribution=measure.energy_attribution,
            server=self.server if keep_server else None,
        )


def run_experiment(
    config: ExperimentConfig, keep_server: bool = False, **observers
) -> ExperimentResult:
    """Build and run one cluster experiment.

    Pass ``keep_server=True`` to retain the live :class:`ServerNode` on the
    result for post-hoc inspection (engine counters, wake times); the
    default lightweight result stays picklable and lets the cluster be
    garbage-collected between sweep points.  ``observers`` are the
    single-run keywords of :meth:`Observers.of`; none of them is a config
    field, so none invalidates cached results.

    The finished cluster is freed before this returns, unless
    ``keep_server`` keeps it reachable.
    """
    # The model is a cyclic object graph (simulator -> queue -> bound
    # methods -> components -> simulator) that CPython would free only at
    # its next full collection.  Freezing the caller's objects for the run
    # makes the collection on the way out scan only what the run
    # allocated.  A caller that disabled the collector or froze objects
    # itself is left alone: ``gc.unfreeze`` would thaw them.
    scoped = gc.isenabled() and gc.get_freeze_count() == 0
    if scoped:
        gc.freeze()
    try:
        return Cluster(config, **observers).run(keep_server=keep_server)
    finally:
        if scoped:
            gc.collect()
            gc.unfreeze()
