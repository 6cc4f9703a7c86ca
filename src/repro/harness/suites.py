"""The declared benchmark suites behind ``repro bench``.

Each scenario is a plain callable ``fn(profiler) -> ScenarioStats``: it
builds its own :class:`~repro.sim.kernel.Simulator` (attaching the
profiler, when given one, before anything is scheduled), runs the
workload, and reports event/counter totals.  The ``micro`` suite covers
the simulation substrate (batched event kernel, timer re-arm/cancel
churn, a single-event timer chain, schedule_many burst fan-out, NIC rx
path, a short cluster run); the ``telemetry`` suite times the headline
experiment with and without the opt-in attribution/audit observers —
the macro measurements ``benchmarks/bench_telemetry_overhead.py``
renders its report from.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.harness.bench import BenchScenario, BenchSuite, ScenarioStats
from repro.profiling.profiler import LOOP_COUNTERS, SimProfiler
from repro.sim.kernel import Simulator
from repro.sim.units import MS


def _kernel_stats(sims: Sequence[Simulator], **counters: float) -> ScenarioStats:
    """Events and kernel counters summed over ``sims``."""
    return ScenarioStats(
        events=sum(sim.events_executed for sim in sims),
        sim_ns=max(sim.now for sim in sims),
        counters={
            **{
                name: sum(getattr(sim, name) for sim in sims)
                for name in LOOP_COUNTERS
            },
            **counters,
        },
    )


def _attach(profiler: Optional[SimProfiler], sims: Sequence[Simulator]) -> None:
    if profiler is not None:
        for sim in sims:
            profiler.attach(sim)


def _simulator(profiler: Optional[SimProfiler]) -> Simulator:
    sim = Simulator()
    _attach(profiler, [sim])
    return sim


def event_kernel(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """100K ticks as chained same-timestamp batches — peak dispatch rate.

    500 rounds of ``schedule_batch(10, 200, tick)``, each armed by one
    ``arm`` event (100,500 events in all): the shape the vectorized
    burst clients feed the kernel, and the scenario behind the headline
    events/s claim.
    """
    sim = _simulator(profiler)
    count = [0]
    total = 100_000

    def tick() -> None:
        count[0] += 1

    def arm() -> None:
        if count[0] < total:
            sim.schedule_batch(10, 200, tick)
            sim.schedule(10, arm)

    arm()
    sim.run()
    assert count[0] == total
    return _kernel_stats([sim])


def cancel_churn(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """Timer re-arm/cancel churn: 40K batched ticks re-arming a
    far-future timer every 8th tick, plus two cancels of fresh
    far-future timers four times a round (~5K re-arms and 1.6K explicit
    cancels per run).

    Most re-arms find the timer in the heap's last slot and take the
    :meth:`~repro.sim.kernel.Simulator.reschedule` fast path (unlink +
    object reuse); the rest leave a tombstone.  Of each cancelled pair,
    the earlier timer becomes a lazy tombstone (keeping the compaction
    machinery hot) and the later one, in the last slot, is unlinked at
    once.  The counters pin all three cancellation paths as well as
    their cost.
    """
    sim = _simulator(profiler)
    count = [0]
    rounds, batch = 200, 200
    total = rounds * batch
    far = 1_000_000_000

    def noop() -> None:
        pass

    def cancelled_noop() -> None:  # pragma: no cover - cancelled
        raise AssertionError("cancelled event fired")

    cell = [sim.schedule(far, noop)]
    resched = sim.reschedule

    def tick() -> None:
        count[0] += 1
        if not count[0] & 7:
            cell[0] = resched(cell[0], far)

    def arm() -> None:
        if count[0] < total:
            for _ in range(4):
                interior = sim.schedule(far, cancelled_noop)
                tail = sim.schedule(far, cancelled_noop)
                interior.cancel()  # lazy tombstone (tail holds the last slot)
                tail.cancel()  # last-slot unlink
            sim.schedule_batch(10, batch, tick)
            sim.schedule(10, arm)

    arm()
    sim.run()
    assert count[0] == total
    return _kernel_stats([sim], final_heap=sim.heap_size())


def chained_timers(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """100K chained single events — the pre-batch dispatch baseline.

    One event in flight at a time, scheduling its successor: one heap
    push and pop per event with nothing to amortize them over (no
    batching), and the shape of the old ``event_kernel`` scenario, kept
    for continuity.
    """
    sim = _simulator(profiler)
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < 100_000:
            sim.schedule(10, tick)

    sim.schedule(0, tick)
    sim.run()
    assert count[0] == 100_000
    return _kernel_stats([sim])


def burst_fanout(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """50 bursts of 2000 arrivals via ``schedule_many`` — the vectorized
    open-loop client's bulk path, timestamps spread inside each burst."""
    sim = _simulator(profiler)
    seen = [0]

    def arrival() -> None:
        seen[0] += 1

    for b in range(50):
        base = b * 1_000_000
        sim.schedule_many(range(base, base + 2000 * 10, 10), arrival)
    sim.run()
    assert seen[0] == 100_000
    return _kernel_stats([sim])


def nic_rx_path(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """Deliver 2000 request packets through NIC + driver + scheduler."""
    from repro.cpu import ProcessorConfig
    from repro.net import NIC, NICDriver, make_http_request
    from repro.oskernel import IRQController, NetStackCosts

    sim = _simulator(profiler)
    package = ProcessorConfig(n_cores=4).build_package(sim)
    irq = IRQController(sim, package)
    nic = NIC(sim)
    driver = NICDriver(sim, nic, irq, NetStackCosts())
    delivered = []
    driver.packet_sink = delivered.append
    for i in range(2000):
        sim.schedule_at(
            i * 2_000, nic.receive_frame, make_http_request("c", "s", req_id=i)
        )
    sim.run()
    assert len(delivered) == 2000
    return _kernel_stats([sim], delivered=len(delivered))


def small_cluster(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """A complete (short) Apache experiment under the NCAP policy."""
    from repro.cluster.simulation import Cluster, ExperimentConfig

    config = ExperimentConfig(
        app="apache",
        policy="ncap.cons",
        target_rps=24_000,
        warmup_ns=5 * MS,
        measure_ns=30 * MS,
        drain_ns=20 * MS,
    )
    cluster = Cluster(config)
    _attach(profiler, [cluster.sim])
    result = cluster.run()
    assert result.responses_received > 0
    return _kernel_stats(
        [cluster.sim],
        requests_sent=result.requests_sent,
        responses_received=result.responses_received,
    )


def _headline(
    profiler: Optional[SimProfiler],
    attributed: bool,
    energy: bool = False,
) -> ScenarioStats:
    from repro.analysis.attribution import AttributionSink
    from repro.cluster.simulation import Cluster, ExperimentConfig
    from repro.harness.settings import RunSettings

    config = ExperimentConfig.from_settings(
        RunSettings.quick(), app="apache", policy="ncap.cons",
        target_rps=24_000.0,
    )
    cluster = Cluster(
        config,
        sinks=[AttributionSink()] if attributed else None,
        audit=attributed,
        energy_attribution=energy,
    )
    _attach(profiler, [cluster.sim])
    result = cluster.run()
    assert result.responses_received > 0
    return _kernel_stats(
        [cluster.sim],
        requests_sent=result.requests_sent,
        responses_received=result.responses_received,
    )


def headline_plain(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """Headline experiment (Apache / ncap.cons @ 24K RPS), no observers."""
    return _headline(profiler, attributed=False)


def headline_attributed(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """Headline experiment with AttributionSink + invariant auditor."""
    return _headline(profiler, attributed=True)


def headline_energy(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """Headline experiment with energy attribution on (per-idle-exit
    governor grading + telescoping decomposition, no other observers) —
    pins the attribution-on overhead against ``headline_plain``.  The
    disabled path is ``headline_plain`` itself: without the observer the
    only residue is one ``on_idle_end is None`` check per idle exit."""
    return _headline(profiler, attributed=False, energy=True)


def _datacenter_run(profiler: Optional[SimProfiler], run) -> ScenarioStats:
    """Execute a serial fleet ``run`` with ``profiler`` on every shard."""
    sims = [shard.sim for shard in run.inline_shards()]
    _attach(profiler, sims)
    result = run.execute()
    assert result.record.responses_received > 0
    return _kernel_stats(
        sims,
        responses_received=result.record.responses_received,
        requests_sent=result.record.requests_sent,
    )


def datacenter_sharded(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """Four servers in two conservative-window shards, executed serially
    — times the window-coordination machinery without multiprocessing."""
    from repro.cluster.datacenter import DatacenterConfig
    from repro.cluster.sharding import ShardedDatacenterRun

    config = DatacenterConfig(
        total_rps=60_000.0,
        clients_per_server=2,
        warmup_ns=5 * MS,
        measure_ns=30 * MS,
        drain_ns=20 * MS,
        n_shards=2,
    )
    return _datacenter_run(profiler, ShardedDatacenterRun(config, jobs=1))


def _frontend_run(profiler: Optional[SimProfiler], **observers) -> ScenarioStats:
    from repro.cluster.datacenter import DatacenterConfig
    from repro.cluster.frontend import FrontendConfig
    from repro.cluster.sharding import ShardedDatacenterRun

    config = DatacenterConfig(
        app="memcached",
        n_servers=4,
        load_shares="uniform",
        total_rps=80_000.0,
        warmup_ns=5 * MS,
        measure_ns=30 * MS,
        drain_ns=20 * MS,
        frontend=FrontendConfig(
            n_users=5_000, spray="po2", burst_size=75,
            intra_burst_gap_ns=1_000, dispatch_latency_ns=1 * MS,
        ),
    )
    return _datacenter_run(profiler, ShardedDatacenterRun(config, jobs=1, **observers))


def frontend_bulk(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """Frontend tier spraying 4 servers, each window's bursts handed to
    the link as one vectorized send (the datacenter_1000 configuration)."""
    return _frontend_run(profiler)


def frontend_observed(profiler: Optional[SimProfiler]) -> ScenarioStats:
    """The frontend run with every fleet observer on — request
    tracing (1-in-64) and the window/imbalance profiler — pinning the
    cost of full observability against ``frontend_bulk``."""
    return _frontend_run(profiler, trace_requests=64, profile_fleet=True)


MICRO_SUITE = BenchSuite(
    name="micro",
    description="Simulation-substrate micro-benchmarks (batched event "
    "kernel, timer re-arm churn, single-event chain, schedule_many "
    "fan-out, NIC rx path, short cluster run)",
    scenarios=(
        BenchScenario(
            "event_kernel", event_kernel, "100K ticks in 500 batches"
        ),
        BenchScenario(
            "cancel_churn", cancel_churn,
            "40K timer re-arms + interior/tail cancels (compaction)",
        ),
        BenchScenario(
            "chained_timers", chained_timers,
            "100K chained single events (no batching)",
        ),
        BenchScenario(
            "burst_fanout", burst_fanout,
            "50x2000 arrivals via schedule_many",
        ),
        BenchScenario(
            "nic_rx_path", nic_rx_path, "2000 packets through NIC+driver"
        ),
        BenchScenario(
            "small_cluster", small_cluster, "short Apache/ncap.cons run"
        ),
    ),
    repeats=5,
)

TELEMETRY_SUITE = BenchSuite(
    name="telemetry",
    description="Headline-experiment wall time with and without the "
    "opt-in attribution/audit observers",
    scenarios=(
        BenchScenario(
            "headline_plain", headline_plain,
            "headline quick run, no observers",
        ),
        BenchScenario(
            "headline_attributed", headline_attributed,
            "headline quick run, attribution + audit",
        ),
        BenchScenario(
            "headline_energy", headline_energy,
            "headline quick run, energy attribution + audit",
        ),
    ),
    repeats=5,
)

DATACENTER_SUITE = BenchSuite(
    name="datacenter",
    description="Sharded-fleet machinery: serial conservative-window "
    "coordination, the frontend tier, "
    "and the fully-observed run (request tracing + fleet profiler)",
    scenarios=(
        BenchScenario(
            "datacenter_sharded", datacenter_sharded,
            "4 servers / 2 shards, serial windows",
        ),
        BenchScenario(
            "frontend_bulk", frontend_bulk,
            "frontend spray, vectorized sends",
        ),
        BenchScenario(
            "frontend_observed", frontend_observed,
            "frontend spray with request tracing + fleet profiler",
        ),
    ),
    repeats=3,
)

SUITES: Dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (MICRO_SUITE, TELEMETRY_SUITE, DATACENTER_SUITE)
}


def get_suite(name: str) -> BenchSuite:
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown bench suite {name!r}; choose from {sorted(SUITES)}"
        ) from None


__all__ = [
    "DATACENTER_SUITE",
    "MICRO_SUITE",
    "SUITES",
    "TELEMETRY_SUITE",
    "get_suite",
]
