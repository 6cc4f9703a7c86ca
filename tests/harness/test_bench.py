"""BenchSuite runner, BENCH payload schema, and baseline gating."""

import copy
import json
import os

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA_VERSION,
    BenchScenario,
    BenchSuite,
    ScenarioStats,
    baseline_path,
    compare_to_baseline,
    format_check_report,
    format_suite_report,
    load_bench_json,
    run_suite,
    validate_bench_payload,
    write_bench_json,
)
from repro.harness.suites import SUITES, get_suite
from repro.sim import Simulator


def _tiny_scenario(profiler):
    sim = Simulator()
    if profiler is not None:
        profiler.attach(sim)
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 500:
            sim.schedule(10, tick)

    sim.schedule(0, tick)
    sim.run()
    return ScenarioStats(
        events=sim.events_executed,
        sim_ns=sim.now,
        counters={"ticks": count[0]},
    )


TINY_SUITE = BenchSuite(
    name="tiny",
    description="synthetic",
    scenarios=(BenchScenario("tick_chain", _tiny_scenario, "500 events"),),
    repeats=3,
)


@pytest.fixture(scope="module")
def payload():
    return run_suite(TINY_SUITE)


class TestRunSuite:
    def test_payload_validates(self, payload):
        validate_bench_payload(payload)
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["suite"] == "tiny"

    def test_scenario_metrics(self, payload):
        entry = payload["scenarios"]["tick_chain"]
        assert entry["events"] == 500
        assert entry["sim_ns"] == 4_990
        assert entry["counters"] == {"ticks": 500}
        wall = entry["wall_s"]
        assert len(wall["samples"]) == 3
        assert wall["min"] <= wall["median"]
        assert entry["events_per_sec"] > 0
        assert entry["peak_rss_bytes"] > 0

    def test_profiled_attribution_included(self, payload):
        entry = payload["scenarios"]["tick_chain"]
        assert entry["top_handlers"]
        top = entry["top_handlers"][0]
        assert top["calls"] == 500
        assert top["share"] > 0.5
        profile = entry["profile"]
        assert profile["attributed_wall_ns"] == pytest.approx(
            profile["loop_wall_ns"], rel=0.01
        )

    def test_no_profile_mode(self):
        payload = run_suite(TINY_SUITE, repeats=1, profile=False)
        entry = payload["scenarios"]["tick_chain"]
        assert entry["top_handlers"] == []
        assert entry["profile"] == {}

    def test_report_renders_from_payload(self, payload):
        text = format_suite_report(payload)
        assert "tick_chain" in text
        assert "top handlers" in text


class TestPayloadIO:
    def test_write_and_load_round_trip(self, payload, tmp_path):
        path = str(tmp_path / "BENCH_tiny.json")
        assert write_bench_json(payload, path) == path
        assert load_bench_json(path) == json.loads(json.dumps(payload))

    def test_invalid_payload_rejected(self, payload):
        bad = copy.deepcopy(payload)
        bad["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            validate_bench_payload(bad)
        bad = copy.deepcopy(payload)
        del bad["scenarios"]["tick_chain"]["wall_s"]
        with pytest.raises(ValueError, match="wall_s"):
            validate_bench_payload(bad)
        bad = copy.deepcopy(payload)
        bad["scenarios"]["tick_chain"]["wall_s"]["min"] = float("nan")
        with pytest.raises(ValueError, match="wall_s.min"):
            validate_bench_payload(bad)

    def test_baseline_path_layout(self):
        expected = os.path.join("benchmarks", "baselines", "micro.json")
        assert baseline_path("micro").endswith(expected)


def _slowed(payload, factor):
    slow = copy.deepcopy(payload)
    wall = slow["scenarios"]["tick_chain"]["wall_s"]
    wall["median"] *= factor
    wall["min"] *= factor
    wall["samples"] = [s * factor for s in wall["samples"]]
    return slow


class TestBaselineCheck:
    def test_unmodified_rerun_passes(self, payload):
        check = compare_to_baseline(payload, copy.deepcopy(payload))
        assert check.ok
        assert check.regressions == []

    def test_injected_20pct_slowdown_flagged(self, payload):
        check = compare_to_baseline(_slowed(payload, 1.20), payload)
        assert not check.ok
        assert any("wall_s.min" in r for r in check.regressions)
        assert "REGRESSION" in format_check_report(check)

    def test_slowdown_within_tolerance_passes(self, payload):
        assert compare_to_baseline(_slowed(payload, 1.10), payload).ok

    def test_improvement_noted_not_flagged(self, payload):
        check = compare_to_baseline(_slowed(payload, 0.5), payload)
        assert check.ok
        assert check.improvements

    def test_tolerance_scale_relaxes_gate(self, payload):
        assert compare_to_baseline(
            _slowed(payload, 1.25), payload, tolerance_scale=3.0
        ).ok

    def test_baseline_tolerance_override(self, payload):
        baseline = copy.deepcopy(payload)
        baseline["tolerances"] = {"wall_s.min": 0.50}
        assert compare_to_baseline(_slowed(payload, 1.25), baseline).ok
        baseline["tolerances"] = {"wall_s.min": 0.01}
        assert not compare_to_baseline(_slowed(payload, 1.05), baseline).ok

    def test_missing_scenario_is_regression(self, payload):
        candidate = copy.deepcopy(payload)
        candidate["scenarios"]["other"] = candidate["scenarios"].pop("tick_chain")
        check = compare_to_baseline(candidate, payload)
        assert not check.ok
        assert any("missing" in r for r in check.regressions)
        assert any("new scenario" in n for n in check.notes)

    def test_counter_drift_is_a_note_not_a_regression(self, payload):
        candidate = copy.deepcopy(payload)
        candidate["scenarios"]["tick_chain"]["counters"]["ticks"] = 501
        candidate["scenarios"]["tick_chain"]["events"] = 501
        check = compare_to_baseline(candidate, payload)
        assert check.ok
        assert any("ticks" in n for n in check.notes)
        assert any("functional change" in n for n in check.notes)

    def test_suite_mismatch_rejected(self, payload):
        other = copy.deepcopy(payload)
        other["suite"] = "other"
        with pytest.raises(ValueError, match="suite mismatch"):
            compare_to_baseline(other, payload)


class TestDeclaredSuites:
    def test_registry(self):
        assert "micro" in SUITES
        assert "telemetry" in SUITES
        assert get_suite("micro").scenarios
        with pytest.raises(KeyError, match="unknown bench suite"):
            get_suite("nope")

    def test_micro_scenario_names(self):
        names = [s.name for s in get_suite("micro").scenarios]
        assert names == [
            "event_kernel", "cancel_churn", "chained_timers", "burst_fanout",
            "nic_rx_path", "small_cluster",
        ]

    def test_datacenter_sharded_counts_and_profiles_every_shard(self, monkeypatch):
        from repro.cluster.sharding import ShardedDatacenterRun
        from repro.harness.suites import datacenter_sharded
        from repro.profiling import SimProfiler

        runs = []
        execute = ShardedDatacenterRun.execute

        def capture(self):
            # execute() releases the shards, so they are taken before it.
            shards = self.inline_shards()
            result = execute(self)
            runs.append((shards, result))
            return result

        monkeypatch.setattr(ShardedDatacenterRun, "execute", capture)
        profiler = SimProfiler()
        stats = datacenter_sharded(profiler)
        ((shards, result),) = runs
        assert len(shards) == 2
        total = sum(shard.sim.events_executed for shard in shards)
        assert stats.events == total
        assert profiler.profile().events == total
        assert "total_events" not in stats.counters
        # The caller's profiler spans both shards; no shard reports it.
        assert [s.profile for s in result.shards] == [{}, {}]
