"""Continuous benchmarking: declared scenarios, JSON payloads, baselines.

The machine-readable counterpart of the free-text ``benchmarks/*.py``
reports.  A :class:`BenchSuite` declares named scenarios (callables that
build, run, and summarize one workload); :func:`run_suite` executes each
scenario once under a :class:`~repro.profiling.SimProfiler` (doubling as
warmup) for handler attribution, then ``repeats`` unprofiled times for
wall timing, and aggregates everything into one JSON-able payload —
wall-clock statistics (median/min/IQR), events/sec, simulated-ns per
wall-second, peak RSS, top handlers, and scenario counters.

:func:`write_bench_json` lands the payload as ``BENCH_<suite>.json`` at
the repo root; :func:`compare_to_baseline` diffs a payload against a
committed ``benchmarks/baselines/<suite>.json`` with per-metric noise
tolerances (wall regressions gate on the *minimum* over repeats — the
noise-robust statistic — while counter drift is reported, not gated, so
legitimate functional changes only require a baseline refresh, not a
red build).
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.metrics.report import format_table
from repro.profiling.profiler import SimProfiler, peak_rss_bytes

#: Bump when the BENCH payload changes shape; checks refuse to compare
#: across schema versions.
BENCH_SCHEMA_VERSION = 1

#: Where committed baselines live, relative to the repo root.
BASELINE_DIR = os.path.join("benchmarks", "baselines")

#: Per-metric relative noise tolerances for ``--check``.  ``wall_s.min``
#: is the gate: minimum-over-repeats is the stable statistic, and 0.18
#: still flags a 20% slowdown.  Baselines may override these via a
#: ``tolerances`` key.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "wall_s.min": 0.18,
    "wall_s.median": 0.30,
}


@dataclass
class ScenarioStats:
    """What one scenario execution reports back to the runner."""

    events: int = 0
    sim_ns: int = 0
    counters: Dict[str, float] = field(default_factory=dict)


#: A scenario callable: builds and runs one workload.  Receives a
#: :class:`SimProfiler` to attach to each simulator it builds, before
#: anything is scheduled (or None for a plain timed run).
ScenarioFn = Callable[[Optional[SimProfiler]], ScenarioStats]


@dataclass
class BenchScenario:
    """One named benchmark workload."""

    name: str
    fn: ScenarioFn
    description: str = ""
    #: Override the suite-level repeat count for this scenario.
    repeats: Optional[int] = None


@dataclass
class BenchSuite:
    """A named set of benchmark scenarios, run and reported together."""

    name: str
    scenarios: Sequence[BenchScenario]
    description: str = ""
    repeats: int = 5

    def bench_filename(self) -> str:
        return f"BENCH_{self.name}.json"


# -- execution -----------------------------------------------------------


def _iqr(samples: Sequence[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def run_suite(
    suite: BenchSuite,
    repeats: Optional[int] = None,
    profile: bool = True,
    top_n: int = 8,
) -> Dict[str, Any]:
    """Run every scenario and aggregate into a BENCH payload.

    Each scenario runs once with a :class:`SimProfiler` attached
    (attribution + warmup), then its repeat count of times unprofiled
    for the wall-clock statistics, so the timing never pays the
    profiler's trampolines.

    A scenario's ``peak_rss_bytes`` is the process high-water mark after
    that scenario (``ru_maxrss``), not its own peak: it includes every
    scenario run before it in the same process.
    """
    scenarios: Dict[str, Any] = {}
    for scenario in suite.scenarios:
        n = repeats if repeats is not None else (scenario.repeats or suite.repeats)
        n = max(1, n)
        profile_payload: Dict[str, Any] = {}
        top_handlers: List[Dict[str, Any]] = []
        if profile:
            profiler = SimProfiler()
            scenario.fn(profiler)
            prof = profiler.profile()
            profile_payload = {
                "loop_wall_ns": prof.loop_wall_ns,
                "attributed_wall_ns": prof.attributed_wall_ns,
                "max_heap_depth": prof.max_heap_depth,
                "final_heap_size": prof.final_heap_size,
                "cancelled_pops": prof.cancelled_pops,
                "cancelled_unlinked": prof.cancelled_unlinked,
                "compactions": prof.compactions,
                "compacted_events": prof.compacted_events,
            }
            total = max(prof.loop_wall_ns, 1)
            top_handlers = [
                {
                    "handler": h.qualname,
                    "subsystem": h.subsystem,
                    "calls": h.calls,
                    "wall_ns": h.wall_ns,
                    "share": round(h.wall_ns / total, 4),
                }
                for h in prof.top(top_n)
            ]
        walls: List[float] = []
        stats = ScenarioStats()
        for _ in range(n):
            t0 = time.perf_counter()
            stats = scenario.fn(None)
            walls.append(time.perf_counter() - t0)
        median = statistics.median(walls)
        scenarios[scenario.name] = {
            "description": scenario.description,
            "wall_s": {
                "median": median,
                "min": min(walls),
                "iqr": _iqr(walls),
                "samples": walls,
            },
            "events": stats.events,
            "sim_ns": stats.sim_ns,
            "events_per_sec": (stats.events / median) if median > 0 else 0.0,
            "sim_ns_per_wall_s": (stats.sim_ns / median) if median > 0 else 0.0,
            "peak_rss_bytes": peak_rss_bytes(),
            "counters": dict(stats.counters),
            "top_handlers": top_handlers,
            "profile": profile_payload,
        }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "suite": suite.name,
        "description": suite.description,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats if repeats is not None else suite.repeats,
        "scenarios": scenarios,
    }


# -- payload validation and I/O ------------------------------------------

_SCENARIO_NUMBER_KEYS = (
    "events",
    "sim_ns",
    "events_per_sec",
    "sim_ns_per_wall_s",
    "peak_rss_bytes",
)


def validate_bench_payload(payload: Any) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a valid BENCH dict."""
    if not isinstance(payload, dict):
        raise ValueError("BENCH payload must be a JSON object")
    if payload.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"BENCH schema {payload.get('schema')!r} != {BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("suite"), str) or not payload["suite"]:
        raise ValueError("BENCH payload missing suite name")
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise ValueError("BENCH payload has no scenarios")
    for name, entry in scenarios.items():
        if not isinstance(entry, dict):
            raise ValueError(f"scenario {name!r} is not an object")
        wall = entry.get("wall_s")
        if not isinstance(wall, dict):
            raise ValueError(f"scenario {name!r} missing wall_s")
        for key in ("median", "min", "iqr"):
            value = wall.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"scenario {name!r} wall_s.{key} invalid")
        samples = wall.get("samples")
        if not isinstance(samples, list) or not samples:
            raise ValueError(f"scenario {name!r} wall_s.samples invalid")
        for key in _SCENARIO_NUMBER_KEYS:
            value = entry.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"scenario {name!r} {key} invalid")
        if not isinstance(entry.get("counters"), dict):
            raise ValueError(f"scenario {name!r} counters invalid")
        if not isinstance(entry.get("top_handlers"), list):
            raise ValueError(f"scenario {name!r} top_handlers invalid")


def write_bench_json(payload: Dict[str, Any], path: str) -> str:
    """Validate and write a BENCH payload; returns the written path."""
    validate_bench_payload(payload)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_bench_json(path: str) -> Dict[str, Any]:
    """Read and validate a BENCH payload."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    validate_bench_payload(payload)
    return payload


def baseline_path(suite_name: str, directory: Optional[str] = None) -> str:
    return os.path.join(directory or BASELINE_DIR, f"{suite_name}.json")


# -- baseline comparison --------------------------------------------------


@dataclass
class BenchCheck:
    """The outcome of one baseline comparison."""

    suite: str
    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Per-scenario events/s vs the baseline — informational, always
    #: emitted so throughput claims are visible in the CI gate log.
    throughput: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _format_rate(events_per_s: float) -> str:
    if events_per_s >= 1e6:
        return f"{events_per_s / 1e6:.2f}M"
    return f"{events_per_s / 1e3:.0f}K"


def _metric(entry: Dict[str, Any], path: str) -> float:
    value: Any = entry
    for part in path.split("."):
        value = value[part]
    return float(value)


def compare_to_baseline(
    candidate: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance_scale: float = 1.0,
) -> BenchCheck:
    """Diff a fresh payload against a baseline payload.

    Wall-time metrics gate (within their tolerance, scaled by
    ``tolerance_scale``); counter and event-count drift is surfaced as
    notes only.  A scenario present in the baseline but missing from the
    candidate is a regression; a new candidate scenario is a note.
    """
    validate_bench_payload(candidate)
    validate_bench_payload(baseline)
    if candidate["suite"] != baseline["suite"]:
        raise ValueError(
            f"suite mismatch: candidate {candidate['suite']!r} "
            f"vs baseline {baseline['suite']!r}"
        )
    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = baseline.get("tolerances")
    if isinstance(overrides, dict):
        tolerances.update({k: float(v) for k, v in overrides.items()})
    check = BenchCheck(suite=candidate["suite"])
    cand_scenarios = candidate["scenarios"]
    base_scenarios = baseline["scenarios"]
    for name, base in base_scenarios.items():
        cand = cand_scenarios.get(name)
        if cand is None:
            check.regressions.append(f"{name}: scenario missing from candidate")
            continue
        for path, tolerance in sorted(tolerances.items()):
            limit_frac = tolerance * tolerance_scale
            try:
                base_value = _metric(base, path)
                cand_value = _metric(cand, path)
            except (KeyError, TypeError):
                check.notes.append(f"{name}: metric {path} absent; skipped")
                continue
            if base_value <= 0:
                continue
            ratio = cand_value / base_value
            if ratio > 1.0 + limit_frac:
                check.regressions.append(
                    f"{name}: {path} regressed {ratio:.2f}x "
                    f"({base_value:.4g} -> {cand_value:.4g}, "
                    f"limit {1.0 + limit_frac:.2f}x)"
                )
            elif ratio < 1.0 - limit_frac:
                check.improvements.append(
                    f"{name}: {path} improved {ratio:.2f}x "
                    f"({base_value:.4g} -> {cand_value:.4g}) — "
                    f"consider refreshing the baseline"
                )
        base_eps = float(base.get("events_per_sec") or 0.0)
        cand_eps = float(cand.get("events_per_sec") or 0.0)
        if base_eps > 0 and cand_eps > 0:
            check.throughput.append(
                f"{name}: events_per_s {_format_rate(base_eps)} -> "
                f"{_format_rate(cand_eps)} ({cand_eps / base_eps:.2f}x)"
            )
        if cand.get("events") != base.get("events"):
            check.notes.append(
                f"{name}: events {base.get('events')} -> {cand.get('events')} "
                f"(functional change; refresh the baseline)"
            )
        base_counters = base.get("counters", {})
        cand_counters = cand.get("counters", {})
        for key in sorted(set(base_counters) | set(cand_counters)):
            if base_counters.get(key) != cand_counters.get(key):
                check.notes.append(
                    f"{name}: counter {key} "
                    f"{base_counters.get(key)} -> {cand_counters.get(key)}"
                )
    for name in sorted(set(cand_scenarios) - set(base_scenarios)):
        check.notes.append(f"{name}: new scenario (not in baseline)")
    return check


# -- rendering ------------------------------------------------------------


def format_suite_report(payload: Dict[str, Any], top_n: int = 5) -> str:
    """The plain-text rendering of a BENCH payload (the ``.txt`` report
    and the JSON file share exactly this data)."""
    rows = []
    for name, entry in payload["scenarios"].items():
        wall = entry["wall_s"]
        rows.append(
            [
                name,
                round(wall["median"] * 1e3, 2),
                round(wall["min"] * 1e3, 2),
                round(wall["iqr"] * 1e3, 2),
                f"{entry['events_per_sec'] / 1e3:.0f}K",
                f"{entry['sim_ns_per_wall_s'] / 1e6:.1f}M",
                f"{entry['peak_rss_bytes'] / 1e6:.0f}",
            ]
        )
    lines = [
        format_table(
            [
                "scenario",
                "wall p50 (ms)",
                "wall min (ms)",
                "IQR (ms)",
                "events/s",
                "sim-ns/wall-s",
                "process peak RSS so far (MB)",
            ],
            rows,
            title=(
                f"Bench suite '{payload['suite']}' — "
                f"{payload['repeats']} repeats, python {payload['python']}"
            ),
        )
    ]
    for name, entry in payload["scenarios"].items():
        handlers = entry.get("top_handlers") or []
        if not handlers:
            continue
        handler_rows = [
            [
                h["subsystem"],
                h["handler"],
                h["calls"],
                round(h["wall_ns"] / 1e6, 3),
                f"{100.0 * h['share']:.1f}%",
            ]
            for h in handlers[:top_n]
        ]
        lines.append(
            format_table(
                ["subsystem", "handler", "calls", "wall (ms)", "share"],
                handler_rows,
                title=f"{name}: top handlers (profiled run)",
            )
        )
    return "\n\n".join(lines)


def format_check_report(check: BenchCheck) -> str:
    """Human-readable rendering of a :class:`BenchCheck`."""
    lines = [
        f"Baseline check — suite '{check.suite}': "
        + ("OK" if check.ok else f"{len(check.regressions)} regression(s)")
    ]
    for regression in check.regressions:
        lines.append(f"  REGRESSION  {regression}")
    for improvement in check.improvements:
        lines.append(f"  improved    {improvement}")
    for rate in check.throughput:
        lines.append(f"  events/s    {rate}")
    for note in check.notes:
        lines.append(f"  note        {note}")
    return "\n".join(lines)


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BASELINE_DIR",
    "DEFAULT_TOLERANCES",
    "BenchCheck",
    "BenchScenario",
    "BenchSuite",
    "ScenarioFn",
    "ScenarioStats",
    "baseline_path",
    "compare_to_baseline",
    "format_check_report",
    "format_suite_report",
    "load_bench_json",
    "run_suite",
    "validate_bench_payload",
    "write_bench_json",
]
