"""Differential parity: the ``Simulator`` vs the ``HeapScheduler`` reference.

The production kernel (one heap of ``(time, seq, entry)`` tuples with
batch entries, last-slot unlinks and object reuse) is only safe if it
is *observationally identical* to the naive heap of events: same
dispatch order, same simulated clock, same experiment results
bit-for-bit.  These tests run the same workloads on both
kernels and compare (pattern: the serial-vs-pool parity tests in
``tests/harness/test_runner.py``).

Three layers:

- scripted synthetic workloads exercising every scheduling entrypoint
  (``schedule``/``schedule_at``/``call_now``/``schedule_many``/
  ``schedule_batch``/``reschedule``/``cancel``) → identical fired traces;
- the micro-bench scenarios (``event_kernel``/``cancel_churn``/...) →
  identical event counts and final sim time;
- full cluster experiments (headline- and fig4-style configs, plus a
  cancellation-heavy moderation config) → byte-identical ``ResultRecord``
  JSON and hashes.

The last two run on the heap by swapping the ``Simulator`` name in the
module that builds the simulator (``monkeypatch.setattr``), so the
product code carries no scheduler knob.
"""

import hashlib
import json

import pytest

import repro.cluster.simulation
import repro.harness.suites
from repro.apps.client import reset_request_ids
from repro.cluster.simulation import Cluster, ExperimentConfig
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.harness.suites import (
    burst_fanout,
    cancel_churn,
    chained_timers,
    event_kernel,
)
from repro.sim.kernel import Simulator
from repro.sim.units import MS
from tests.sim.heap_reference import HeapScheduler

KERNELS = (Simulator, HeapScheduler)


# ---------------------------------------------------------------------------
# Layer 1: scripted synthetic workloads
# ---------------------------------------------------------------------------


def _mixed_script(sim):
    """Drive every scheduling entrypoint; return the fired trace."""
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))

    def fire_shared():
        trace.append((sim.now, "shared"))

    # Same-timestamp collision across entrypoints: FIFO by seq.
    sim.schedule(100, fire, "a")
    sim.schedule_at(100, fire, "b")
    sim.schedule(100, fire, "c")
    # Bulk entrypoints interleaved with singles at overlapping times.
    sim.schedule_many([50, 100, 150, 150], fire_shared)
    sim.schedule_batch(150, 3, fire, "batch")
    # Cancellation: an earlier event (lazy tombstone) and the latest
    # one (last-slot unlink).
    interior = sim.schedule(200, fire, "never-interior")
    sim.schedule(200, fire, "d")
    tail = sim.schedule(200, fire, "never-tail")
    interior.cancel()
    tail.cancel()
    # Reschedule: pending move and (below, from inside a handler) re-arm
    # of an already-fired event.
    moved = sim.schedule(300, fire, "moved-early")
    moved = sim.reschedule(moved, 400)

    rearm_cell = [None]

    def rearming():
        trace.append((sim.now, "rearm"))
        if sim.now < 900:
            rearm_cell[0] = sim.reschedule(rearm_cell[0], 250)

    rearm_cell[0] = sim.schedule(250, rearming)

    def nested():
        trace.append((sim.now, "nested"))
        sim.call_now(fire, "now")
        sim.schedule(0, fire, "zero-delay")
        sim.schedule_batch(25, 2, fire, "nested-batch")

    sim.schedule(500, nested)
    # Far-future entries, milliseconds after everything else.
    sim.schedule(5_000_000, fire, "far")
    sim.schedule_many([5_000_000, 5_000_001], fire_shared)
    sim.run()
    return trace, sim.now, sim.events_executed


class TestScriptedParity:
    def test_mixed_workload_trace_identical(self):
        assert _mixed_script(Simulator()) == _mixed_script(HeapScheduler())

    def test_stop_and_rerun_trace_identical(self):
        def script(sim):
            trace = []

            def fire(tag):
                trace.append((sim.now, tag))

            def stopper():
                trace.append((sim.now, "stop"))
                sim.stop()

            sim.schedule_batch(10, 4, fire, "pre")
            sim.schedule(10, stopper)
            sim.schedule_batch(10, 3, fire, "post")
            sim.schedule(20, fire, "later")
            sim.run()
            trace.append(("--resume--",))
            sim.run()
            return trace, sim.now

        assert script(Simulator()) == script(HeapScheduler())

    def test_run_until_boundary_identical(self):
        def script(sim):
            trace = []
            for t in (10, 20, 20, 30, 40):
                sim.schedule_at(t, trace.append, t)
            sim.run(until=25)
            mid = (list(trace), sim.now)
            sim.run()
            return mid, trace, sim.now

        assert script(Simulator()) == script(HeapScheduler())


# ---------------------------------------------------------------------------
# Layer 2: micro-bench scenarios, rerun on the heap
# ---------------------------------------------------------------------------


SCENARIOS = [event_kernel, cancel_churn, chained_timers, burst_fanout]


class TestScenarioParity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
    def test_events_and_simtime_identical(self, scenario, monkeypatch):
        kernel = scenario(None)
        monkeypatch.setattr(repro.harness.suites, "Simulator", HeapScheduler)
        reference = scenario(None)
        assert kernel.events == reference.events
        assert kernel.sim_ns == reference.sim_ns
        # Cancellation *accounting* differs by design (the Simulator
        # unlinks the last slot at once and reuses event objects on
        # reschedule; the reference tombstones everything), so only
        # observable state must agree: the entries left behind.
        if "final_heap" in kernel.counters:
            assert kernel.counters["final_heap"] == reference.counters["final_heap"]


# ---------------------------------------------------------------------------
# Layer 3: full cluster experiments → bit-identical ResultRecords
# ---------------------------------------------------------------------------


def _record_json(config):
    reset_request_ids()
    result = Cluster(config).run()
    record = ResultRecord.from_result(result, config_hash(config), config.seed)
    return json.dumps(record.to_json_dict(), sort_keys=True)


def _parity_configs():
    quick = dict(warmup_ns=5 * MS, measure_ns=40 * MS, drain_ns=30 * MS, seed=2)
    return [
        # Headline-style: Apache under the paper's NCAP policy.
        pytest.param(
            ExperimentConfig(app="apache", policy="ncap.cons", target_rps=24_000.0, **quick),
            id="headline-apache-ncap",
        ),
        # Fig4-style: Apache under ond.idle (the correlation study config).
        pytest.param(
            ExperimentConfig(app="apache", policy="ond.idle", target_rps=24_000.0, **quick),
            id="fig4-apache-ond.idle",
        ),
        # Cancellation-heavy: memcached's small bursts + interrupt
        # moderation re-arm timers constantly (reschedule fast path).
        pytest.param(
            ExperimentConfig(app="memcached", policy="ncap.aggr", target_rps=60_000.0, **quick),
            id="cancel-churn-memcached-ncap",
        ),
    ]


class TestExperimentParity:
    @pytest.mark.parametrize("config", _parity_configs())
    def test_result_records_bit_identical(self, config, monkeypatch):
        kernel = _record_json(config)
        monkeypatch.setattr(repro.cluster.simulation, "Simulator", HeapScheduler)
        reference = _record_json(config)
        assert kernel == reference
        assert (
            hashlib.sha256(kernel.encode()).hexdigest()
            == hashlib.sha256(reference.encode()).hexdigest()
        )

    def test_wheel_run_is_self_deterministic(self):
        config = ExperimentConfig(
            app="apache", policy="perf", target_rps=24_000.0,
            warmup_ns=5 * MS, measure_ns=40 * MS, drain_ns=30 * MS, seed=2,
        )
        assert _record_json(config) == _record_json(config)
