"""Bench-history regression watch: BENCH trajectories, not point checks.

The PR 5 ``repro bench --check`` gate compares one fresh payload against
one committed baseline — a point comparison.  This module turns the
committed ``BENCH_*.json`` trajectory (repo root + ``benchmarks/
baselines/``) plus any newly produced payloads into per-scenario *time
series*, ordered by each payload's ``created_unix`` stamp, then flags
step changes between consecutive points against the same relative
tolerances the point gate uses.  The result is an observable trajectory:
*"cancel_churn wall time stepped +2.1× between the PR 5 and PR 6
payloads"* is read off the series, not reconstructed from git
archaeology.

Pure observer: history never touches configs, caches, or payloads — it
only reads them.  Exposed as ``repro history [paths...]`` and rendered
as a trend panel by :func:`repro.viz.frontier.render_trend_page`.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.bench import DEFAULT_TOLERANCES, load_bench_json
from repro.metrics.report import format_table

#: Trend metrics tracked per scenario, with flagging direction:
#: +1 flags increases (a cost), -1 flags decreases (a capability).
TREND_METRICS: Tuple[Tuple[str, int], ...] = (
    ("wall_s.min", +1),
    ("wall_s.median", +1),
    ("events_per_sec", -1),
    ("peak_rss_bytes", +1),
)

#: Metrics tracked once per suite, as the largest value among a payload's
#: scenarios, under the scenario label :data:`SUITE_SCENARIO`.  A
#: scenario's ``peak_rss_bytes`` is the process high-water mark after it
#: ran, so it carries every earlier scenario's peak too: tracked per
#: scenario, one scenario's step would be flagged again in each scenario
#: after it.  The largest value is the high-water mark of the whole suite.
SUITE_METRICS = frozenset({"peak_rss_bytes"})

#: The scenario label of a suite-level series.
SUITE_SCENARIO = "(suite)"

#: Fallback relative tolerance for metrics without a DEFAULT_TOLERANCES
#: entry (events/s mirrors the wall gate; RSS is noisy across machines).
_EXTRA_TOLERANCES: Dict[str, float] = {
    "events_per_sec": 0.18,
    "peak_rss_bytes": 0.50,
}


@dataclass
class TrendPoint:
    """One payload's contribution to a scenario series."""

    created_unix: float
    value: float
    source: str  # payload file path (or caller-supplied label)
    platform: str = ""  # the payload's ``platform`` stamp (host timings)


@dataclass
class TrendSeries:
    """One (suite, scenario, metric) trajectory, oldest first."""

    suite: str
    scenario: str
    metric: str
    points: List[TrendPoint] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.suite, self.scenario, self.metric)


@dataclass
class StepFlag:
    """A tolerance-breaking change between consecutive trajectory points."""

    suite: str
    scenario: str
    metric: str
    before: TrendPoint
    after: TrendPoint
    ratio: float
    tolerance: float

    @property
    def direction(self) -> str:
        return "regressed" if self.ratio > 1.0 else "improved"

    def describe(self) -> str:
        return (
            f"{self.suite}/{self.scenario} {self.metric} {self.direction} "
            f"{self.ratio:.2f}x ({self.before.value:.4g} -> "
            f"{self.after.value:.4g}; tol {self.tolerance:.2f}) "
            f"[{os.path.basename(self.before.source)} -> "
            f"{os.path.basename(self.after.source)}]"
        )


@dataclass
class BenchHistory:
    """All trajectories parsed from a set of BENCH payload files."""

    series: List[TrendSeries] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)
    #: Files that failed schema validation, with the reason (surfaced,
    #: never silently dropped — a corrupt committed payload is a finding).
    rejected: List[Tuple[str, str]] = field(default_factory=list)

    def suites(self) -> List[str]:
        return sorted({s.suite for s in self.series})

    def get(self, suite: str, scenario: str, metric: str) -> TrendSeries:
        for series in self.series:
            if series.key == (suite, scenario, metric):
                return series
        raise KeyError(f"no series {(suite, scenario, metric)!r}")


def discover_bench_files(root: str = ".") -> List[str]:
    """Every committed BENCH payload under a repo root.

    Repo-root ``BENCH_*.json`` files are the most recent run of each
    suite; ``benchmarks/baselines/*.json`` are the older gate anchors —
    together they are the committed trajectory.
    """
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    paths += sorted(
        glob.glob(os.path.join(root, "benchmarks", "baselines", "*.json"))
    )
    return paths


def _metric_value(entry: Dict, metric: str) -> Optional[float]:
    value = entry
    for part in metric.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return float(value) if isinstance(value, (int, float)) else None


def load_bench_history(paths: Sequence[str]) -> BenchHistory:
    """Parse payload files into per-(suite, scenario, metric) series.

    Series points are ordered by ``created_unix`` (ties broken by path,
    so the ordering is deterministic across filesystems).  A metric of
    :data:`SUITE_METRICS` gives one series per suite, not one per
    scenario.
    """
    history = BenchHistory()
    by_key: Dict[Tuple[str, str, str], List[TrendPoint]] = {}
    loaded: List[Tuple[float, str, Dict]] = []
    for path in paths:
        try:
            payload = load_bench_json(path)
        except (OSError, ValueError) as exc:
            history.rejected.append((path, str(exc)))
            continue
        history.sources.append(path)
        loaded.append((float(payload.get("created_unix", 0.0)), path, payload))
    loaded.sort(key=lambda item: (item[0], item[1]))
    for created, path, payload in loaded:
        suite = payload["suite"]
        platform = str(payload.get("platform", ""))
        suite_values: Dict[str, float] = {}
        for scenario, entry in sorted(payload["scenarios"].items()):
            for metric, _ in TREND_METRICS:
                value = _metric_value(entry, metric)
                if value is None:
                    continue
                if metric in SUITE_METRICS:
                    suite_values[metric] = max(value, suite_values.get(metric, value))
                    continue
                by_key.setdefault((suite, scenario, metric), []).append(
                    TrendPoint(created, value, path, platform)
                )
        for metric, value in suite_values.items():
            by_key.setdefault((suite, SUITE_SCENARIO, metric), []).append(
                TrendPoint(created, value, path, platform)
            )
    for key in sorted(by_key):
        suite, scenario, metric = key
        history.series.append(
            TrendSeries(suite, scenario, metric, by_key[key])
        )
    return history


def metric_tolerance(
    metric: str, tolerances: Optional[Dict[str, float]] = None
) -> float:
    merged = {**DEFAULT_TOLERANCES, **_EXTRA_TOLERANCES, **(tolerances or {})}
    return merged.get(metric, 0.30)


def flag_steps(
    history: BenchHistory,
    tolerances: Optional[Dict[str, float]] = None,
    tolerance_scale: float = 1.0,
) -> List[StepFlag]:
    """Tolerance-breaking steps between consecutive points of each series.

    A wall/RSS *increase* or an events/s *decrease* beyond ``1 + tol``
    (relative) is flagged.  Improvements beyond the same band are flagged
    too — with ``direction == "improved"`` — so trajectory reports name
    the wins as well as the regressions; gating callers filter on
    direction.  A step across a ``platform`` change is not compared:
    every trend metric is a host timing, so such a step measures the
    new host, not the code.
    """
    flags: List[StepFlag] = []
    directions = dict(TREND_METRICS)
    for series in history.series:
        tol = metric_tolerance(series.metric, tolerances) * tolerance_scale
        sign = directions.get(series.metric, +1)
        for before, after in zip(series.points, series.points[1:]):
            if before.value <= 0 or before.platform != after.platform:
                continue
            ratio = after.value / before.value
            # Normalize so ratio > 1 always means "got worse".
            worse = ratio if sign > 0 else (1.0 / ratio if ratio else 0.0)
            if worse > 1.0 + tol or worse < 1.0 / (1.0 + tol):
                flags.append(
                    StepFlag(
                        suite=series.suite,
                        scenario=series.scenario,
                        metric=series.metric,
                        before=before,
                        after=after,
                        ratio=worse,
                        tolerance=tol,
                    )
                )
    flags.sort(
        key=lambda f: (-f.ratio, f.suite, f.scenario, f.metric)
    )
    return flags


def format_history_report(
    history: BenchHistory,
    flags: Optional[List[StepFlag]] = None,
    title: Optional[str] = None,
) -> str:
    """Trajectory summary: newest value + span per series, then flags."""
    if flags is None:
        flags = flag_steps(history)
    rows = []
    for series in history.series:
        first, last = series.points[0], series.points[-1]
        trend = last.value / first.value if first.value else float("nan")
        rows.append([
            series.suite,
            series.scenario,
            series.metric,
            len(series.points),
            f"{first.value:.4g}",
            f"{last.value:.4g}",
            f"{trend:.2f}x",
        ])
    out = format_table(
        ["suite", "scenario", "metric", "runs", "oldest", "newest", "span"],
        rows,
        title=title or (
            f"Bench history — {len(history.sources)} payloads, "
            f"{len(history.series)} series"
        ),
    )
    if history.rejected:
        out += "\n\nrejected payloads:"
        for path, reason in history.rejected:
            out += f"\n  {path}: {reason}"
    if flags:
        out += f"\n\nstep changes ({len(flags)}):"
        for flag in flags:
            out += f"\n  {flag.describe()}"
    else:
        out += "\n\nno step changes beyond tolerance"
    return out
