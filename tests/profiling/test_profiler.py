"""Tests for the simulator self-profiler."""

import json
import pickle

import pytest

from repro.profiling import (
    HandlerStats,
    LoopProfile,
    SimProfiler,
    collapsed_stacks,
    format_top_handlers,
    peak_rss_bytes,
    wall_clock_trace_events,
)
from repro.profiling.profiler import describe_handler
from repro.sim import Simulator


def _chained(sim, n, delay=10):
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n:
            sim.schedule(delay, tick)

    sim.schedule(0, tick)
    return count


class _Handler:
    def __init__(self):
        self.calls = 0

    def on_event(self):
        self.calls += 1


class TestAttribution:
    def test_per_handler_counts(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        a, b = _Handler(), _Handler()
        for i in range(30):
            sim.schedule(i, a.on_event)
        for i in range(12):
            sim.schedule(i, b.on_event)
        sim.run()
        profile = profiler.profile()
        by_name = {h.qualname: h for h in profile.handlers}
        assert by_name["_Handler.on_event"].calls == 42
        assert profile.events == 42
        assert sim.events_executed == 42

    def test_attribution_telescopes_to_loop_total(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        _chained(sim, 50_000)
        sim.run()
        profile = profiler.profile()
        assert profile.loop_wall_ns > 0
        share = profile.attributed_wall_ns / profile.loop_wall_ns
        # The acceptance bound: per-handler attribution sums to the
        # measured loop total within 1%.
        assert share == pytest.approx(1.0, abs=0.01)

    def test_batch_dispatch_telescopes_to_loop_total(self):
        # Same 1% acceptance bound, but driven through the batch path:
        # schedule_batch dispatches whole same-timestamp buckets, and
        # each call of the batch charges its wall time to the handler.
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        count = [0]

        def tick():
            count[0] += 1

        def arm():
            if count[0] < 50_000:
                sim.schedule_batch(10, 500, tick)
                sim.schedule(10, arm)

        sim.schedule(0, arm)
        sim.run()
        profile = profiler.profile()
        assert count[0] == 50_000
        assert profile.events == sim.events_executed
        assert profile.loop_wall_ns > 0
        share = profile.attributed_wall_ns / profile.loop_wall_ns
        assert share == pytest.approx(1.0, abs=0.01)
        by_name = {h.qualname: h for h in profile.handlers}
        tick_key = (
            "TestAttribution.test_batch_dispatch_telescopes_to_loop_total."
            "<locals>.tick"
        )
        assert by_name[tick_key].calls == 50_000

    def test_accumulates_across_runs(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        handler = _Handler()
        sim.schedule(10, handler.on_event)
        sim.schedule(100, handler.on_event)
        sim.run(until=50)
        sim.run(until=200)
        profile = profiler.profile()
        assert profile.events == 2
        assert profile.sim_ns == 200
        by_name = {h.qualname: h for h in profile.handlers}
        assert by_name["_Handler.on_event"].calls == 2

    def test_rearmed_events_are_wrapped_once(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        handler = _Handler()
        interior = sim.schedule(5, handler.on_event)
        sim.schedule(5, handler.on_event)
        # Interior: tombstoned, re-armed through the wrapped schedule_at.
        sim.reschedule(interior, 10)
        fired = sim.schedule(1, handler.on_event)
        sim.run()
        sim.reschedule(fired, 1)  # fired: the Event object is reused
        sim.run()
        profile = profiler.profile()
        assert sim.events_executed == 4
        assert profile.events == 4
        assert [(h.qualname, h.calls) for h in profile.handlers] == [
            ("_Handler.on_event", 4)
        ]

    def test_fold_bounds_per_callable_memory(self):
        sim = Simulator()
        profiler = SimProfiler(fold_threshold=16)
        profiler.attach(sim)

        def make_closure(i):
            return lambda: None

        for i in range(200):
            sim.schedule(i, make_closure(i))
        sim.run()
        assert len(profiler._record) < 16
        profile = profiler.profile()
        by_name = {h.qualname: h for h in profile.handlers}
        key = "TestAttribution.test_fold_bounds_per_callable_memory.<locals>.make_closure.<locals>.<lambda>"
        assert by_name[key].calls == 200

    def test_same_semantics_as_unprofiled_run(self):
        def drive(sim):
            fired = []
            ev = sim.schedule(10, fired.append, "dead")
            sim.schedule(5, ev.cancel)
            sim.schedule(7, fired.append, "a")
            sim.schedule(7, fired.append, "b")

            def nested():
                fired.append("outer")
                sim.call_now(fired.append, "nested")

            sim.schedule(20, nested)
            sim.run(until=15)
            sim.run(until=40)
            return fired, sim.now, sim.events_executed

        plain = drive(Simulator())
        profiled_sim = Simulator()
        SimProfiler().attach(profiled_sim)
        profiled = drive(profiled_sim)
        assert profiled == plain


def _interior_churn(sim, rounds, t=1_000_000):
    """Schedule triples at ``t`` and cancel the first two: the live third
    entry holds the heap's last slot, forcing the lazy tombstone path (a
    cancel in the last slot would be unlinked at once and never
    compact), and the 2/3 dead ratio keeps the queue above the
    compaction threshold."""
    for _ in range(rounds):
        doomed = [sim.schedule(t, lambda: None) for _ in range(2)]
        sim.schedule(t, lambda: None)
        for event in doomed:
            event.cancel()


class TestHeapHealth:
    def test_cancelled_pop_accounting(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        dead = [sim.schedule(5, lambda: None) for _ in range(8)]
        sim.schedule(5, lambda: None)  # keeps the dead out of the last slot
        sim.schedule(50, lambda: None)
        for event in dead:
            event.cancel()
        sim.run()
        profile = profiler.profile()
        assert profile.cancelled_pops == 8
        assert profile.events == 2

    def test_cancelled_unlinked_accounting(self):
        # The unlink counter is a delta since attach; these cancels
        # happen during the run.
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)

        def churn():
            for i in range(5):
                sim.schedule(5 + i, lambda: None).cancel()  # last slot: unlink

        sim.schedule(1, churn)
        sim.run()
        profile = profiler.profile()
        assert profile.cancelled_unlinked == 5
        assert profile.cancelled_pops == 0
        assert profile.events == 1

    def test_heap_depth_and_compactions(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)

        def churn():
            _interior_churn(sim, 400)

        sim.schedule(0, churn)
        sim.run()
        profile = profiler.profile()
        assert profile.compactions >= 1
        assert profile.compacted_events > 0
        assert profile.max_heap_depth >= 1
        assert profile.final_heap_size == sim.heap_size()

    def test_counters_are_deltas_not_lifetime_totals(self):
        sim = Simulator()
        # Unprofiled churn first: compactions predate the profiler.
        _interior_churn(sim, 200)
        before = sim.compactions
        assert before >= 1
        profiler = SimProfiler()
        profiler.attach(sim)
        sim.schedule(1, lambda: None)
        sim.run(until=10)
        profile = profiler.profile()
        assert profile.compactions == sim.compactions - before

    def test_throughput_rates(self):
        sim = Simulator()
        profiler = SimProfiler(checkpoint_every=100)
        profiler.attach(sim)
        _chained(sim, 1_000)
        sim.run()
        profile = profiler.profile()
        assert profile.events_per_wall_s > 0
        assert profile.sim_ns_per_wall_s > 0
        assert len(profile.checkpoints) == 10
        walls = [c[0] for c in profile.checkpoints]
        assert walls == sorted(walls)

    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_bytes() > 0


class TestSerialization:
    def _profile(self):
        sim = Simulator()
        profiler = SimProfiler(checkpoint_every=100)
        profiler.attach(sim)
        _chained(sim, 500)
        sim.run()
        return profiler.profile()

    def test_json_round_trip(self):
        profile = self._profile()
        payload = json.loads(json.dumps(profile.to_json_dict()))
        clone = LoopProfile.from_json_dict(payload)
        assert clone == profile

    def test_schema_mismatch_rejected(self):
        payload = self._profile().to_json_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            LoopProfile.from_json_dict(payload)

    def test_picklable(self):
        profile = self._profile()
        assert pickle.loads(pickle.dumps(profile)) == profile


class TestDescribeHandler:
    def test_bound_method(self):
        handler = _Handler()
        qualname, subsystem = describe_handler(handler.on_event)
        assert qualname == "_Handler.on_event"

    def test_repro_subsystem(self):
        sim = Simulator()
        qualname, subsystem = describe_handler(sim.stop)
        assert qualname == "Simulator.stop"
        assert subsystem == "sim"

    def test_partial_unwrapped(self):
        import functools

        def fn(a, b):
            pass

        qualname, _ = describe_handler(functools.partial(fn, 1))
        assert qualname.endswith("fn")


class TestExporters:
    def _profile(self):
        sim = Simulator()
        profiler = SimProfiler(checkpoint_every=50)
        profiler.attach(sim)
        handler = _Handler()
        for i in range(200):
            sim.schedule(i, handler.on_event)
        dead = sim.schedule(500, lambda: None)
        dead.cancel()
        sim.run()
        return profiler.profile()

    def test_top_handler_table(self):
        text = format_top_handlers(self._profile(), n=5)
        assert "_Handler.on_event" in text
        assert "share" in text

    def test_collapsed_stacks_format(self):
        text = collapsed_stacks(self._profile())
        lines = [line for line in text.strip().splitlines()]
        assert lines
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames  # at least one frame
            assert int(weight) >= 1
        assert any("_Handler.on_event" in line for line in lines)

    def test_wall_clock_trace_events(self):
        events = wall_clock_trace_events(self._profile())
        json.dumps(events)  # must be JSON-able
        assert all(e["pid"] == 2 for e in events)
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "events/sec" for e in counters)
        assert any(e["name"] == "sim-ns/wall-s" for e in counters)
        bars = [e for e in events if e["ph"] == "X"]
        assert bars and bars[0]["name"] == "_Handler.on_event"
        # The stacked bar lays handlers end to end.
        assert bars[0]["ts"] == 0.0

    def test_chrome_sink_merges_wall_lane(self):
        from repro.telemetry import ChromeTraceSink

        sink = ChromeTraceSink()
        sink.add_profile(self._profile())
        events = sink.to_json_dict()["traceEvents"]
        assert any(
            e.get("args", {}).get("name") == "wall-clock (simulator profile)"
            for e in events
            if e.get("ph") == "M"
        )
        assert any(e.get("pid") == 2 and e.get("ph") == "X" for e in events)


class TestHandlerStats:
    def test_key(self):
        stats = HandlerStats("A.b", "net", 1, 2)
        assert stats.key == "net;A.b"
