"""Experiment runner: the paper's four-node cluster, end to end.

Topology (Section 5): three open-loop clients and one server, joined by a
switch over 10 Gb/s, 1 µs links.  Each run has a warmup window (excluded
from all measurements), a measurement window (request latencies are
attributed to their *send* time; energy is the meter delta across the
window), and a drain window so in-flight requests can complete.

Every run in the repo is that star, once or many times over.  A
:class:`Station` is one server with its traffic sources and per-server
observers on a switch; :func:`client_pool` builds its clients and
:func:`arm_window` marks the measurement window on every station.
:class:`Cluster` is one station on its own simulator, a fleet shard
(:mod:`repro.cluster.sharding`) is one station per server, and the
Section 7/8 experiments are one station around their own server class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.attribution import AttributionReport, AttributionSink
from repro.analysis.audit import InvariantAuditor
from repro.analysis.energy import EnergyAttribution, attribution_between
from repro.analysis.sketch import StreamingSketch
from repro.apps.client import (
    OpenLoopClient,
    http_request_factory,
    memcached_request_factory,
)
from repro.apps.workload import burst_period_ns, default_burst_size, sla_for
from repro.cluster.node import ServerNode
from repro.cluster.policies import PolicyConfig
from repro.cluster.recording import build_server_recorder
from repro.core.config import NCAPConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.energy import EnergyReport
from repro.metrics.energy import average_power_w, energy_delta
from repro.metrics.latency import LatencyStats
from repro.net.interrupts import ModerationConfig
from repro.net.switch import Switch
from repro.oskernel.cpuidle import IdleAccounting, build_idle_accounting
from repro.oskernel.netstack import NetStackCosts
from repro.profiling.profiler import LoopProfile, SimProfiler
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS, US, gbps
from repro.telemetry import Telemetry
from repro.telemetry.recorder import (
    RecorderConfig,
    TimeSeriesRecorder,
    TimeseriesBundle,
    resolve_recorder_config,
)
from repro.telemetry.triggers import Watchpoint


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
    #: Fractional jitter on each client's burst period.  Datacenter burst
    #: timing is highly variable (Benson et al., the paper's [30]); 0.30
    #: reproduces the unpredictable inter-burst gaps that make reactive
    #: governors mispredict (Section 3 of the paper).
    burst_jitter: float = 0.30
    warmup_ns: int = 40 * MS
    measure_ns: int = 300 * MS
    drain_ns: int = 60 * MS
    seed: int = 1
    ondemand_period_ns: int = 10 * MS
    link_bandwidth_bps: float = gbps(10)
    link_latency_ns: int = 1 * US
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    netstack: NetStackCosts = field(default_factory=NetStackCosts)
    moderation: ModerationConfig = field(default_factory=ModerationConfig)
    #: Override the NIC's per-frame rx DMA latency (None = NIC default).
    #: Used by the TOE-slack ablation (Section 7 of the paper).
    nic_dma_latency_ns: Optional[int] = None
    ncap_base_config: Optional[NCAPConfig] = None
    apache_profile: Optional[object] = None
    memcached_profile: Optional[object] = None

    def __post_init__(self) -> None:
        check_run_window(self.warmup_ns, self.measure_ns, self.drain_ns)

    @property
    def sla_ns(self) -> int:
        return sla_for(self.app)

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
    rtts: List[int]
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


class Station:
    """One server, its traffic sources and its per-server observers, wired
    into a star around ``switch``.

    ``clients`` are started with the server and stopped at the window
    close; ``sources`` (default: the clients) are what the station links
    to the switch and reads RTTs and send counts from.  A frontend-fed
    fleet server passes its frontend port as its only source.  The
    observers are the idle accounting (``energy_attribution=True``) and
    the flight recorder (``recorder_config``) with its ``watchpoints``.
    """

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        server,
        clients: Sequence[OpenLoopClient],
        sources: Optional[Sequence[object]] = None,
        *,
        recorder_config: Optional[RecorderConfig] = None,
        watchpoints: Iterable[Watchpoint] = (),
        energy_attribution: bool = False,
        link_bandwidth_bps: float = gbps(10),
        link_latency_ns: int = 1 * US,
    ):
        self.server = server
        self.clients = list(clients)
        self.sources = list(sources) if sources is not None else self.clients
        #: Idle accounting — an observer, never a config field: per-idle-
        #: exit bookings only resegment the meters at boundaries that
        #: close anyway, so attaching it cannot change the simulated
        #: result (the parity tests prove it).
        self.accounting: Optional[IdleAccounting] = None
        if energy_attribution:
            cpuidle = server.cpuidle
            self.accounting = build_idle_accounting(
                server.package.cstates,
                cpuidle.governor if cpuidle is not None else None,
                telemetry=server.telemetry,
            )
            self.accounting.attach(server.package.cores)
        self.recorder: Optional[TimeSeriesRecorder] = None
        if recorder_config is not None:
            self.recorder = build_server_recorder(sim, server, recorder_config)
            for watchpoint in watchpoints:
                self.recorder.add_watchpoint(watchpoint)
        for device in (server, *self.sources):
            switch.connect(device, link_bandwidth_bps, link_latency_ns)
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

    def window_rtts(self, window: Tuple[int, int]) -> List[int]:
        """RTTs of the requests sent within ``window``, source by source.

        A client built with ``retain_rtts=False`` keeps none; its RTTs
        reach only its ``rtt_listeners``.
        """
        start, end = window
        rtts: List[int] = []
        for source in self.sources:
            if source.retain_rtts:
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
            energy_attribution=(
                attribution_between(accounting_a, accounting_b, energy)
                if self.accounting is not None
                else None
            ),
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


class Cluster:
    """A built (but not yet run) four-node experiment: one station."""

    def __init__(
        self,
        config: ExperimentConfig,
        sinks: Optional[Iterable] = None,
        audit: bool = False,
        streaming_latency: bool = False,
        record_timeseries: Union[None, bool, str, object] = None,
        watchpoints: Optional[Iterable[Watchpoint]] = None,
        profile: Union[None, bool, SimProfiler] = None,
        energy_attribution: bool = False,
    ):
        self.config = config
        self.sim = Simulator()
        #: Simulator self-profiler — an observer like sinks/audit, never
        #: a config field (mirroring ``record_timeseries=``): attaching
        #: it must not invalidate cached results.
        self.profiler: Optional[SimProfiler] = (
            (SimProfiler() if profile is True else profile) or None
        )
        if self.profiler is not None:
            self.profiler.attach(self.sim)
        self.rng = RngRegistry(config.seed)
        # Sinks attach here (constructor argument, NOT a config field:
        # ExperimentConfig feeds the sweep cache hash, and attaching an
        # observer must not invalidate cached results).  With no sinks
        # every probe stays disabled — the hot path pays a single
        # truthiness check.  ``audit`` and ``streaming_latency`` are
        # observers too, for the same reason.
        self.telemetry = Telemetry()
        self.auditor: Optional[InvariantAuditor] = (
            self.telemetry.add_sink(InvariantAuditor()) if audit else None
        )
        self.attribution: Optional[AttributionSink] = None
        for sink in sinks or ():
            self.telemetry.add_sink(sink)
            if isinstance(sink, AttributionSink):
                self.attribution = sink
        self.server = ServerNode(
            self.sim,
            "server",
            config.policy,
            config.app,
            self.rng,
            telemetry=self.telemetry,
            processor=config.processor,
            netstack=config.netstack,
            moderation=config.moderation,
            ondemand_period_ns=config.ondemand_period_ns,
            nic_dma_latency_ns=config.nic_dma_latency_ns,
            ncap_base_config=config.ncap_base_config,
            apache_profile=config.apache_profile,
            memcached_profile=config.memcached_profile,
        )
        self.switch = Switch(self.sim)
        window = (config.warmup_ns, config.warmup_ns + config.measure_ns)
        self.window = window
        if self.attribution is not None:
            # The sink needs F_max (to re-cost cycles) and the measurement
            # window (to scope which requests feed the report).
            if self.attribution.f_max_hz is None:
                self.attribution.f_max_hz = self.server.package.max_frequency_hz
            if self.attribution.measure_window is None:
                self.attribution.measure_window = window
        #: Streaming-latency mode: clients retain no per-sample RTT list;
        #: the measurement window's population streams into one sketch
        #: (O(1) memory for arbitrarily long runs).
        self.latency_sketch: Optional[StreamingSketch] = (
            StreamingSketch() if streaming_latency else None
        )
        self.burst_size = (
            config.burst_size
            if config.burst_size is not None
            else default_burst_size(config.app)
        )
        self.clients = client_pool(
            self.sim,
            self.rng,
            config.app,
            "server",
            [f"client{i}" for i in range(config.n_clients)],
            burst_size=self.burst_size,
            burst_period_ns=burst_period_ns(
                config.target_rps, config.n_clients, self.burst_size
            ),
            jitter_fraction=config.burst_jitter,
            retain_rtts=self.latency_sketch is None,
            measure_window=window if self.latency_sketch is not None else None,
        )
        for client in self.clients:
            if self.attribution is not None:
                client.rtt_listeners.append(self._attribution_listener(client.name))
            if self.latency_sketch is not None:
                client.rtt_listeners.append(self._sketch_listener(window))
        #: ``record_timeseries=`` builds the station's flight recorder and
        #: exports its bundle on the result; ``energy_attribution=`` its
        #: idle accounting.  Both are observers, never config fields.
        self.station = Station(
            self.sim,
            self.switch,
            self.server,
            self.clients,
            recorder_config=resolve_recorder_config(record_timeseries),
            watchpoints=watchpoints or (),
            energy_attribution=energy_attribution,
            link_bandwidth_bps=config.link_bandwidth_bps,
            link_latency_ns=config.link_latency_ns,
        )
        self.recorder = self.station.recorder
        self.energy_accounting = self.station.accounting

    def _attribution_listener(self, client_name: str):
        sink = self.attribution

        def listener(req_id: int, send_ns: int, rtt_ns: int) -> None:
            sink.on_client_rtt(client_name, req_id, send_ns, rtt_ns)

        return listener

    def _sketch_listener(self, window):
        sketch = self.latency_sketch
        start, end = window

        def listener(req_id: int, send_ns: int, rtt_ns: int) -> None:
            if start <= send_ns < end:
                sketch.add(rtt_ns)

        return listener

    def run(self, keep_server: bool = False) -> ExperimentResult:
        """Simulate and extract the result in one call."""
        self.simulate()
        return self.collect(keep_server=keep_server)

    def simulate(self) -> None:
        """Drive the cluster through warmup, measurement, and drain."""
        self.station.start()
        arm_window(self.sim, [self.station], self.window)
        self.sim.run(until=self.config.end_ns)

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
        if self.latency_sketch is not None:
            latency = LatencyStats.from_sketch(self.latency_sketch)
            responses = self.latency_sketch.count
        else:
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
    config: ExperimentConfig,
    keep_server: bool = False,
    sinks: Optional[Iterable] = None,
    audit: bool = False,
    streaming_latency: bool = False,
    record_timeseries: Union[None, bool, str, object] = None,
    watchpoints: Optional[Iterable[Watchpoint]] = None,
    profile: Union[None, bool, SimProfiler] = None,
    energy_attribution: bool = False,
) -> ExperimentResult:
    """Build and run one cluster experiment.

    Pass ``keep_server=True`` to retain the live :class:`ServerNode` on the
    result for post-hoc inspection (engine counters, wake times); the
    default lightweight result stays picklable and lets the cluster be
    garbage-collected between sweep points.  ``sinks`` (e.g. a
    :class:`repro.telemetry.ChromeTraceSink` or an
    :class:`repro.analysis.attribution.AttributionSink`) are attached to
    the server's telemetry before the node is built.  ``audit=True``
    attaches an :class:`~repro.analysis.audit.InvariantAuditor` that
    raises on any inconsistency; ``streaming_latency=True`` aggregates
    latency through an O(1)-memory sketch instead of retaining every RTT.
    ``record_timeseries`` (``True``, ``"coarse"``/``"fine"``, or a
    :class:`~repro.telemetry.recorder.RecorderConfig`) attaches the
    flight recorder and populates ``result.timeseries``; ``watchpoints``
    arms :class:`~repro.telemetry.triggers.Watchpoint` triggers on it.
    ``profile`` (``True`` or a :class:`~repro.profiling.SimProfiler`)
    attaches the profiler to the run's simulator before anything is
    scheduled and populates ``result.profile`` with per-handler
    wall-time attribution and heap health.  ``energy_attribution=True``
    attaches the idle-accounting observer and populates
    ``result.energy_attribution`` with the telescoping energy
    decomposition and governor-miss grades.  None of these are config
    fields, so none invalidate cached results.
    """
    return Cluster(
        config,
        sinks=sinks,
        audit=audit,
        streaming_latency=streaming_latency,
        record_timeseries=record_timeseries,
        watchpoints=watchpoints,
        profile=profile,
        energy_attribution=energy_attribution,
    ).run(keep_server=keep_server)
