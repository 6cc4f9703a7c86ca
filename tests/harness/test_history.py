"""Bench-history regression watch: series assembly, step flags, and
ingestion of the repo's actually-committed BENCH payloads."""

import json
import os
from pathlib import Path

import pytest

from repro.harness.bench import BENCH_SCHEMA_VERSION
from repro.harness.history import (
    SUITE_SCENARIO,
    TREND_METRICS,
    discover_bench_files,
    flag_steps,
    format_history_report,
    load_bench_history,
    metric_tolerance,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_payload(suite="micro", created=1_000.0, wall_min=1.0,
                 wall_median=1.1, events_per_sec=1e6, rss=1e8,
                 scenarios=("steady",)):
    entries = {}
    for name in scenarios:
        entries[name] = {
            "wall_s": {
                "median": wall_median,
                "min": wall_min,
                "iqr": 0.01,
                "samples": [wall_min, wall_median],
            },
            "events": 100_000,
            "sim_ns": 10**9,
            "events_per_sec": events_per_sec,
            "sim_ns_per_wall_s": 10**9 / wall_min,
            "peak_rss_bytes": rss,
            "counters": {},
            "top_handlers": [],
        }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "description": "synthetic",
        "created_unix": created,
        "python": "3.x",
        "platform": "test",
        "repeats": 2,
        "scenarios": entries,
    }


def write_payload(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadHistory:
    def test_series_ordered_by_created_unix(self, tmp_path):
        # Write newest first so ordering comes from stamps, not paths.
        newer = write_payload(
            tmp_path / "a_new.json", make_payload(created=2000.0, wall_min=2.0)
        )
        older = write_payload(
            tmp_path / "b_old.json", make_payload(created=1000.0, wall_min=1.0)
        )
        history = load_bench_history([newer, older])
        series = history.get("micro", "steady", "wall_s.min")
        assert [p.value for p in series.points] == [1.0, 2.0]
        assert [p.source for p in series.points] == [older, newer]

    def test_one_series_per_metric(self, tmp_path):
        path = write_payload(tmp_path / "m.json", make_payload())
        history = load_bench_history([path])
        metrics = {s.metric for s in history.series}
        assert metrics == {m for m, _ in TREND_METRICS}
        assert history.suites() == ["micro"]

    def test_rejected_surfaced_not_dropped(self, tmp_path):
        good = write_payload(tmp_path / "good.json", make_payload())
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99}')
        history = load_bench_history([good, str(bad)])
        assert history.sources == [good]
        assert len(history.rejected) == 1
        assert history.rejected[0][0] == str(bad)
        assert "rejected payloads" in format_history_report(history)

    def test_get_unknown_series_raises(self, tmp_path):
        history = load_bench_history(
            [write_payload(tmp_path / "m.json", make_payload())]
        )
        with pytest.raises(KeyError):
            history.get("micro", "steady", "nope")


class TestStepFlags:
    def test_wall_regression_flagged(self, tmp_path):
        paths = [
            write_payload(tmp_path / "v1.json",
                          make_payload(created=1000.0, wall_min=1.0)),
            write_payload(tmp_path / "v2.json",
                          make_payload(created=2000.0, wall_min=2.0)),
        ]
        flags = flag_steps(load_bench_history(paths))
        wall = [f for f in flags if f.metric == "wall_s.min"]
        assert len(wall) == 1
        assert wall[0].direction == "regressed"
        assert wall[0].ratio == pytest.approx(2.0)
        assert "wall_s.min regressed 2.00x" in wall[0].describe()

    def test_improvement_direction_and_throughput_inversion(self, tmp_path):
        # events/s doubling is an improvement; wall halving likewise.
        paths = [
            write_payload(tmp_path / "v1.json",
                          make_payload(created=1000.0, wall_min=2.0,
                                       wall_median=2.1, events_per_sec=1e6)),
            write_payload(tmp_path / "v2.json",
                          make_payload(created=2000.0, wall_min=1.0,
                                       wall_median=1.05, events_per_sec=2e6)),
        ]
        flags = flag_steps(load_bench_history(paths))
        assert flags and all(f.direction == "improved" for f in flags)

    def test_within_tolerance_not_flagged(self, tmp_path):
        tol = metric_tolerance("wall_s.min")
        paths = [
            write_payload(tmp_path / "v1.json",
                          make_payload(created=1000.0, wall_min=1.0,
                                       wall_median=1.0)),
            write_payload(tmp_path / "v2.json",
                          make_payload(created=2000.0,
                                       wall_min=1.0 + tol * 0.5,
                                       wall_median=1.0 + tol * 0.5)),
        ]
        assert flag_steps(load_bench_history(paths)) == []

    def test_tolerance_scale_widens_band(self, tmp_path):
        paths = [
            write_payload(tmp_path / "v1.json",
                          make_payload(created=1000.0, wall_min=1.0)),
            write_payload(tmp_path / "v2.json",
                          make_payload(created=2000.0, wall_min=1.25)),
        ]
        history = load_bench_history(paths)
        assert any(
            f.metric == "wall_s.min" for f in flag_steps(history)
        )
        scaled = flag_steps(history, tolerance_scale=10.0)
        assert not any(f.metric == "wall_s.min" for f in scaled)

    def test_step_across_platform_change_not_compared(self, tmp_path):
        moved = make_payload(created=2000.0, wall_min=3.0, events_per_sec=1e5)
        moved["platform"] = "other-host"
        paths = [
            write_payload(tmp_path / "v1.json", make_payload(created=1000.0)),
            write_payload(tmp_path / "v2.json", moved),
            write_payload(tmp_path / "v3.json",
                          dict(moved, created_unix=3000.0)),
        ]
        history = load_bench_history(paths)
        assert history.get("micro", "steady", "wall_s.min").points[1].platform == (
            "other-host"
        )
        assert flag_steps(history) == []
        # The new host's own trajectory is gated again from its first point.
        slower = make_payload(created=4000.0, wall_min=9.0)
        slower["platform"] = "other-host"
        paths.append(write_payload(tmp_path / "v4.json", slower))
        flags = flag_steps(load_bench_history(paths))
        assert [f.after.source for f in flags if f.metric == "wall_s.min"] == [
            paths[-1]
        ]

    def test_memory_step_flagged_once_per_suite(self, tmp_path):
        # ru_maxrss is a process high-water mark: when the first of three
        # scenarios doubles its peak, the two run after it inherit it.
        scenarios = ("a_first", "b_second", "c_third")
        paths = [
            write_payload(tmp_path / "v1.json",
                          make_payload(created=1000.0, rss=1e8, scenarios=scenarios)),
            write_payload(tmp_path / "v2.json",
                          make_payload(created=2000.0, rss=2e8, scenarios=scenarios)),
        ]
        history = load_bench_history(paths)
        memory = [f for f in flag_steps(history) if f.metric == "peak_rss_bytes"]
        assert [(f.scenario, f.direction) for f in memory] == [
            (SUITE_SCENARIO, "regressed")
        ]
        assert memory[0].ratio == pytest.approx(2.0)
        assert [
            s.scenario for s in history.series if s.metric == "peak_rss_bytes"
        ] == [SUITE_SCENARIO]

    def test_suite_memory_is_the_largest_scenario_value(self, tmp_path):
        payload = make_payload(scenarios=("a", "b", "c"))
        for name, rss in zip(("a", "b", "c"), (3e7, 5e7, 4e7)):
            payload["scenarios"][name]["peak_rss_bytes"] = rss
        history = load_bench_history([write_payload(tmp_path / "m.json", payload)])
        series = history.get("micro", SUITE_SCENARIO, "peak_rss_bytes")
        assert [p.value for p in series.points] == [5e7]

    def test_flags_sorted_worst_first(self, tmp_path):
        paths = [
            write_payload(
                tmp_path / "v1.json",
                make_payload(created=1000.0, scenarios=("a", "b")),
            ),
        ]
        payload = make_payload(created=2000.0, scenarios=("a", "b"))
        payload["scenarios"]["a"]["wall_s"]["min"] = 3.0
        payload["scenarios"]["b"]["wall_s"]["min"] = 2.0
        paths.append(write_payload(tmp_path / "v2.json", payload))
        flags = [
            f for f in flag_steps(load_bench_history(paths))
            if f.metric == "wall_s.min"
        ]
        assert [f.scenario for f in flags] == ["a", "b"]


class TestCommittedPayloads:
    """The repo's own committed BENCH trajectory must always ingest."""

    def test_discovery_finds_committed_payloads(self):
        paths = discover_bench_files(str(REPO_ROOT))
        assert len(paths) >= 6
        names = {os.path.basename(p) for p in paths}
        assert "BENCH_micro.json" in names
        assert "micro.json" in names  # benchmarks/baselines anchor

    def test_committed_trajectory_ingests_cleanly(self):
        history = load_bench_history(discover_bench_files(str(REPO_ROOT)))
        assert not history.rejected
        assert len(history.sources) >= 6
        assert {"micro", "telemetry", "datacenter"} <= set(history.suites())
        # Every suite contributes at least one multi-point series.
        assert any(len(s.points) >= 2 for s in history.series)
        report = format_history_report(history)
        assert "Bench history" in report

    def test_committed_trajectory_has_no_regressions(self):
        """The repo gate: committed payloads never step-regress."""
        history = load_bench_history(discover_bench_files(str(REPO_ROOT)))
        regressions = [
            f for f in flag_steps(history) if f.direction == "regressed"
        ]
        assert regressions == [], [f.describe() for f in regressions]
