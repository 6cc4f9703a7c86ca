"""The benchmark's four workloads and the code that runs one batch.

A workload is a fixed batch of simulations built from a seed.  Every run
is serial (``jobs=1``); simulated clients are the paper's open-loop,
bursty ab/mutilate-style generators.  The model is driven only through
its public APIs: ``run_sweep``, ``run_experiment``,
``ShardedDatacenterRun``, ``ResultCache`` and ``AttributionSink``.

Run windows are shorter than the standard 20+250+100 ms preset, so one
batch takes 6-8 s on a 2-vCPU container and a 25 s timed run holds two
or three repeats; ``quick`` shrinks them again for smoke tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.attribution import AttributionSink
from repro.cluster.datacenter import DatacenterConfig
from repro.cluster.frontend import FrontendConfig
from repro.cluster.policies import POLICY_ORDER
from repro.cluster.sharding import ShardedDatacenterRun
from repro.cluster.simulation import run_experiment
from repro.harness import (
    ResultCache,
    ResultRecord,
    RunSettings,
    RunSpec,
    SweepSpec,
    config_hash,
    run_sweep,
)
from repro.sim.units import MS

Run = Union[RunSpec, DatacenterConfig]

#: (warmup, measure, drain) in ms for the full and the ``quick`` scale.
GRID_MS = {False: (20, 60, 20), True: (10, 20, 10)}
SATURATION_MS = {False: (20, 120, 40), True: (10, 40, 20)}
FLEET_MS = {False: (10, 40, 20), True: (5, 15, 10)}

#: From the memcached "medium" level up past the SLA knee; every request
#: still completes inside the drain window.
SATURATION_RPS = (127_000.0, 138_000.0, 143_000.0, 148_000.0, 156_000.0)

#: Record sections only observers fill; they are left out of the
#: observed-vs-plain comparison.
OBSERVER_FIELDS = ("attribution", "timeseries", "profile", "fleet", "energy_attribution")
#: The flight recorder's ``PowerMeter.sync()`` splits the energy
#: integral, so observed energy differs from plain in the last digits
#: (about 5e-15 J).  Known deviation: compared at this relative tolerance.
ENERGY_FIELDS = ("energy_j", "avg_power_w", "energy_by_mode_j")
ENERGY_REL_TOL = 1e-12


@dataclass
class Batch:
    """The simulations one repeat of a workload runs, in order."""

    runs: List[Run]
    #: Also run every spec with all observers on, write those records to
    #: a fresh ResultCache, then re-read the sweep through it.
    observed: bool = False


def _settings(ms: Tuple[int, int, int], seed: int) -> RunSettings:
    warmup, measure, drain = ms
    return RunSettings(
        warmup_ns=warmup * MS, measure_ns=measure * MS, drain_ns=drain * MS, seed=seed
    )


def headline_grid(seed: int, quick: bool = False) -> Batch:
    """{apache, memcached} x all 7 policies x {low, medium}: 28 runs."""
    sweep = SweepSpec(
        apps=("apache", "memcached"),
        policies=tuple(POLICY_ORDER),
        loads=("low", "medium"),
        settings=_settings(GRID_MS[quick], seed),
    )
    return Batch(sweep.expand())


def memcached_saturation(seed: int, quick: bool = False) -> Batch:
    """memcached under ncap.cons at five rates through the SLA knee."""
    sweep = SweepSpec(
        apps=("memcached",),
        policies=("ncap.cons",),
        loads=SATURATION_RPS,
        settings=_settings(SATURATION_MS[quick], seed),
    )
    return Batch(sweep.expand())


def frontend_fleet(seed: int, quick: bool = False) -> Batch:
    """``datacenter_1000`` scaled to 256 servers (64 when quick), 2 serial
    shards behind the po2 frontend at 2K RPS per server."""
    n_servers = 64 if quick else 256
    warmup, measure, drain = FLEET_MS[quick]
    config = DatacenterConfig(
        app="memcached",
        policy="ncap.cons",
        n_servers=n_servers,
        load_shares="uniform",
        total_rps=2_000.0 * n_servers,
        warmup_ns=warmup * MS,
        measure_ns=measure * MS,
        drain_ns=drain * MS,
        seed=seed,
        n_shards=2,
        frontend=FrontendConfig(
            n_users=1_000 * n_servers,
            spray="po2",
            burst_size=500,
            intra_burst_gap_ns=400,
            dispatch_latency_ns=1 * MS,
        ),
    )
    return Batch([config])


def observed_grid(seed: int, quick: bool = False) -> Batch:
    """{apache, memcached} x {ond.idle, ncap.cons} x {low, medium}, plain
    and then with every observer on: 16 simulations and 8 cache reads."""
    sweep = SweepSpec(
        apps=("apache", "memcached"),
        policies=("ond.idle", "ncap.cons"),
        loads=("low", "medium"),
        settings=_settings(GRID_MS[quick], seed),
    )
    return Batch(sweep.expand(), observed=True)


WORKLOADS: Dict[str, Callable[[int, bool], Batch]] = {
    "headline_grid": headline_grid,
    "memcached_saturation": memcached_saturation,
    "frontend_fleet": frontend_fleet,
    "observed_grid": observed_grid,
}


# -- running a batch ------------------------------------------------------


@dataclass
class RunOutcome:
    """One simulation: its record (None if it raised) and what went wrong."""

    label: str
    run: Run
    attempted: int
    sim_s: float
    record: Optional[ResultRecord] = None
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Requests that failed: all of them if the run raised or failed a
        check, else the unanswered ones."""
        if self.problems or self.record is None:
            return self.attempted
        return self.record.incomplete


@dataclass
class Outcome:
    """Everything one repeat of a batch produced."""

    runs: List[RunOutcome] = field(default_factory=list)
    #: Fleet window profiles (traced repeats only).
    fleet_profiles: List[object] = field(default_factory=list)
    #: Largest relative energy difference, observed vs plain records.
    energy_deviation: float = 0.0

    @property
    def records(self) -> List[ResultRecord]:
        return [r.record for r in self.runs if r.record is not None]

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)

    @property
    def problems(self) -> List[str]:
        return [f"{r.label}: {p}" for r in self.runs for p in r.problems]

    def sha256(self) -> str:
        """Digest of every record, in run order."""
        payload = json.dumps(
            [r.to_json_dict() for r in self.records],
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _label(run: Run) -> str:
    if isinstance(run, DatacenterConfig):
        return f"fleet/{run.n_servers}x{run.app}/{run.policy}"
    return f"{run.app}/{run.policy_name}/{run.target_rps:g}"


def _planned(run: Run) -> Tuple[int, float]:
    """(requests a run is meant to send, simulated seconds it covers),
    read from the run's fields so that even an invalid run has them."""
    if isinstance(run, DatacenterConfig):
        return int(run.total_rps * run.measure_ns / 1e9), run.end_ns / 1e9
    s = run.settings
    return (
        int(run.target_rps * s.measure_ns / 1e9),
        (s.warmup_ns + s.measure_ns + s.drain_ns) / 1e9,
    )


def _call(tracer, layer: str, fn: Callable, *args, **kwargs):
    """Call a model entry point, as a root span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.root(layer, fn, *args, **kwargs)


def _attempt(out: Outcome, run: Run, simulate: Callable[[], ResultRecord],
             kind: str = "") -> RunOutcome:
    """Run one simulation; a failure is recorded, never raised."""
    attempted, sim_s = _planned(run)
    outcome = RunOutcome(_label(run) + kind, run, attempted, sim_s)
    out.runs.append(outcome)
    try:
        record = simulate()
    except Exception as exc:  # one failing run must not abort the set
        outcome.problems.append(f"raised {type(exc).__name__}: {exc}")
        return outcome
    outcome.record = record
    outcome.attempted = record.requests_sent
    if record.requests_sent != record.responses_received + record.incomplete:
        outcome.problems.append(
            f"sent {record.requests_sent} != received "
            f"{record.responses_received} + incomplete {record.incomplete}"
        )
    return outcome


def _simulate_fleet(
    config: DatacenterConfig, cache: ResultCache, out: Outcome, traced: bool
) -> ResultRecord:
    result = ShardedDatacenterRun(config, jobs=1, profile_fleet=traced).execute()
    record = result.record
    cache.put(record)
    if cache.get(record.config_hash) != record:
        raise AssertionError("fleet record changed in a cache round trip")
    if result.fleet_profile is not None:
        out.fleet_profiles.append(result.fleet_profile)
    return record


def _observed_record(spec: RunSpec, cache: ResultCache, tracer) -> ResultRecord:
    config = spec.to_config()
    result = _call(
        tracer, "cluster", run_experiment, config,
        sinks=[AttributionSink()],
        audit=True,
        energy_attribution=True,
        record_timeseries="coarse",
    )
    record = ResultRecord.from_result(result, config_hash=config_hash(config), seed=config.seed)
    cache.put(record)
    return record


def purity_problems(plain: ResultRecord, observed: ResultRecord) -> Tuple[List[str], float]:
    """Fields where an observed record differs from the plain one, outside
    the observer sections, and the largest relative energy difference."""
    a, b = plain.to_json_dict(), observed.to_json_dict()
    problems = [
        f"observed {key} differs from plain"
        for key in a
        if key not in OBSERVER_FIELDS + ENERGY_FIELDS and a[key] != b[key]
    ]
    worst = 0.0
    for key in ENERGY_FIELDS:
        x, y = a[key], b[key]
        pairs = [(x, y)] if not isinstance(x, dict) else [(x[k], y.get(k)) for k in x]
        if isinstance(x, dict) and set(x) != set(y):
            problems.append(f"observed {key} has other keys than plain")
            continue
        for u, v in pairs:
            if u != v:
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    if worst > ENERGY_REL_TOL:
        problems.append(f"observed energy differs from plain by {worst:.3g} (rel)")
    return problems, worst


def _observe(specs: Sequence[RunSpec], plain: Dict[str, ResultRecord],
             work_dir: str, out: Outcome, tracer) -> None:
    cache = ResultCache(os.path.join(work_dir, "observed"))
    cold: Dict[str, RunOutcome] = {}
    for spec in specs:
        outcome = _attempt(
            out, spec, lambda spec=spec: _observed_record(spec, cache, tracer),
            kind=" (observed)",
        )
        if outcome.record is not None:
            cold[outcome.record.config_hash] = outcome
    warm = _call(tracer, "harness", run_sweep, list(specs), jobs=1, cache=cache)
    for record in warm:
        outcome = cold.get(record.config_hash)
        if outcome is None:
            continue  # the cold run already failed
        if not record.from_cache or record != outcome.record:
            outcome.problems.append("warm-cache record differs from the cold one")
    for key, outcome in cold.items():
        if key not in plain:
            continue
        problems, worst = purity_problems(plain[key], outcome.record)
        outcome.problems.extend(problems)
        out.energy_deviation = max(out.energy_deviation, worst)


def run_batch(batch: Batch, work_dir: str, tracer=None) -> Outcome:
    """Run ``batch`` with caches under ``work_dir``; never raises for a
    failing simulation."""
    out = Outcome()
    cache = ResultCache(os.path.join(work_dir, "cold"))
    for run in batch.runs:
        if isinstance(run, DatacenterConfig):
            simulate = lambda run=run: _simulate_fleet(run, cache, out, tracer is not None)
        else:
            simulate = lambda run=run: _call(
                tracer, "harness", run_sweep, [run], jobs=1, cache=cache
            )[0]
        _attempt(out, run, simulate)
    if batch.observed:
        plain = {r.config_hash: r for r in out.records}
        _observe([r for r in batch.runs if isinstance(r, RunSpec)], plain, work_dir, out, tracer)
    return out


# -- what a batch reports ---------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def sim_metrics(out: Outcome) -> Dict[str, float]:
    """Simulated-time fidelity metrics; deterministic for a given seed."""
    records = [r for r in out.records if r.responses_received > 0]
    return {
        "sim_p99_us": geomean([r.p99_ns / 1e3 for r in records]),
        "sim_mj_per_request": geomean(
            [r.energy_j * 1e3 / r.responses_received for r in records]
        ),
        "sim_sla_met_share": (
            sum(r.meets_sla for r in out.records) / len(out.records) if out.records else 0.0
        ),
    }


def fidelity(out: Outcome) -> Dict[str, float]:
    """NCAP-vs-perf energy saving (%) per ``app/load`` that ran both: the
    best hardware NCAP policy that meets its SLA (any, if none does)
    against perf."""
    groups: Dict[str, Dict[str, ResultRecord]] = {}
    for run in out.runs:
        if run.record is not None and isinstance(run.run, RunSpec):
            key = f"{run.run.app}/{run.run.load or run.run.target_rps}"
            groups.setdefault(key, {})[run.record.policy] = run.record
    savings = {}
    for key, by_policy in groups.items():
        ncap = [by_policy[p] for p in ("ncap.cons", "ncap.aggr") if p in by_policy]
        if "perf" not in by_policy or not ncap:
            continue
        best = min([r for r in ncap if r.meets_sla] or ncap, key=lambda r: r.energy_j)
        savings[key] = (1 - best.energy_j / by_policy["perf"].energy_j) * 100
    return savings
