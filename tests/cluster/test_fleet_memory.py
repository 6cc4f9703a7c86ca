"""What a fleet server retains, and which of it every server shares.

Every server of a fleet is a full copy of the model, so per-server state
is what grows with fleet size.  The tables a package is built from are
the same on every server of one ``ProcessorConfig`` value, so one set
serves them all; the power model's price memo is a pure function of
``(mode, V, f)``, so a run that fills it leaves nothing another run
could read differently.  A fleet run releases each shard's model once
it is measured, so the merge does not stack on top of it.

The file imports no pytest, so an interpreter without pytest can run its
``test_*`` functions directly.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

from repro.cluster.datacenter import DatacenterConfig
from repro.cluster.frontend import FrontendConfig
from repro.cluster.sharding import ShardedDatacenterRun
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.cpu import PowerMode, PowerModel, PowerModelConfig, ProcessorConfig
from repro.cpu.config import processor_tables
from repro.sim.units import MS

#: The quick ``frontend_fleet`` shape of the end-to-end benchmark.
N_SERVERS = 64
FLEET = DatacenterConfig(
    app="memcached",
    policy="ncap.cons",
    n_servers=N_SERVERS,
    load_shares="uniform",
    total_rps=2_000.0 * N_SERVERS,
    warmup_ns=5 * MS,
    measure_ns=15 * MS,
    drain_ns=10 * MS,
    seed=1,
    n_shards=2,
    frontend=FrontendConfig(
        n_users=1_000 * N_SERVERS,
        spray="po2",
        burst_size=500,
        intra_burst_gap_ns=400,
        dispatch_latency_ns=1 * MS,
    ),
)

#: Bytes a fleet server may retain once built.  About 22-23 KB under
#: Python 3.9-3.13; a server that built its own processor tables and kept
#: a deque per core and a formatted copy of every stat name took 31-36 KB.
SERVER_BUDGET_BYTES = 28_000

#: Traced peak of a serial ``execute()`` per server, the built model
#: included.  37.0-39.0 KB under Python 3.9-3.13 (37.4 KB under 3.11),
#: so the bound leaves a 5-10% margin; a run that merged while every
#: shard's model was still alive peaked at 42.9-46.5 KB.
EXECUTE_PEAK_BYTES = 41_000


def packages(run):
    return [
        station.server.package
        for shard in run.inline_shards()
        for station in shard.stations
    ]


def table_ids(package):
    return (
        id(package.pstates),
        id(package.cstates),
        id(package.power_model),
        id(package.dvfs_timing),
    )


def test_fleet_server_retains_at_most_28_kb():
    # A two-server fleet first, so modules a build imports on first use
    # are not charged to the servers measured.
    ShardedDatacenterRun(replace(FLEET, n_servers=2, total_rps=4_000.0), jobs=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = ShardedDatacenterRun(FLEET, jobs=1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(packages(run)) == N_SERVERS
    assert retained / N_SERVERS <= SERVER_BUDGET_BYTES, retained / N_SERVERS


def test_execute_peaks_at_most_41_kb_per_server():
    # A two-server fleet first, so modules a run imports on first use are
    # not charged to the servers measured.
    ShardedDatacenterRun(replace(FLEET, n_servers=2, total_rps=4_000.0), jobs=1).execute()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ShardedDatacenterRun(FLEET, jobs=1).execute()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / N_SERVERS <= EXECUTE_PEAK_BYTES, peak / N_SERVERS


def tiny_fleet():
    return ShardedDatacenterRun(replace(FLEET, n_servers=4, total_rps=8_000.0), jobs=1)


def test_execute_releases_every_shard():
    run = tiny_fleet()
    sims = [weakref.ref(shard.sim) for shard in run.inline_shards()]
    assert len(sims) == 2 and all(ref() is not None for ref in sims)
    result = run.execute()
    assert [ref() for ref in sims] == [None, None]
    assert len(result.servers) == 4


def test_inline_shards_raises_once_released():
    run = tiny_fleet()
    run.execute()
    try:
        run.inline_shards()
    except RuntimeError as exc:
        assert "released" in str(exc), exc
    else:
        raise AssertionError("inline_shards() returned released shards")


def test_every_fleet_server_shares_one_set_of_tables():
    run = ShardedDatacenterRun(replace(FLEET, n_servers=8, total_rps=16_000.0), jobs=1)
    servers = packages(run)
    assert len(servers) == 8
    assert len({table_ids(p) for p in servers}) == 1


def run_package(processor):
    config = ExperimentConfig(
        app="memcached",
        policy="ncap.cons",
        target_rps=20_000.0,
        warmup_ns=2 * MS,
        measure_ns=5 * MS,
        drain_ns=2 * MS,
        processor=processor,
    )
    return run_experiment(config, keep_server=True).server.package


def test_equal_configs_share_tables_across_runs():
    first = ProcessorConfig(power=PowerModelConfig())
    second = ProcessorConfig(power=PowerModelConfig())
    assert first == second and first is not second
    assert table_ids(run_package(first)) == table_ids(run_package(second))


def test_configs_that_differ_get_their_own_tables():
    base = processor_tables(ProcessorConfig())
    fewer = processor_tables(ProcessorConfig(n_pstates=8))
    hotter = processor_tables(ProcessorConfig(power=PowerModelConfig(core_max_power_w=24.0)))
    for other in (fewer, hotter):
        assert all(mine is not theirs for mine, theirs in zip(base, other))
    assert len(fewer.pstates) == 8
    assert hotter.power_model.config.core_max_power_w == 24.0


def test_prices_a_run_memoized_equal_a_fresh_model():
    config = ProcessorConfig()
    model = run_package(config).power_model
    assert model is processor_tables(config).power_model
    fresh = PowerModel(config.power)
    priced = dict(model._priced)
    assert {mode for mode, _, _ in priced} >= {PowerMode.RUN, PowerMode.IDLE_POLL}
    for (mode, voltage, freq_hz), watts in priced.items():
        assert watts == fresh._price(mode, voltage, freq_hz), (mode, voltage, freq_hz)
