"""Cross-run comparison: RunSets, paired diffs, significance gates.

Every other analysis module observes a *single* run; this one observes a
*set* of runs.  A :class:`RunSet` loads and indexes many
:class:`~repro.harness.record.ResultRecord` objects — from an in-memory
sweep, an exported JSON array, or a sweep cache directory — and aligns
them on the config axes (app, policy, offered load, seed).  From an
aligned set, :func:`compare` computes paired run-to-run diffs along one
axis (normally ``policy``): percentile deltas, energy and
joules-per-request deltas, energy-attribution component deltas (PR 9),
and counter drift — each with an uncertainty half-width and a
significance gate, so *"NCAP beats ond.idle's p99 by X ± Y"* is a
computed, audited statement instead of prose.

Uncertainty model
-----------------
Records carry percentile summaries, not populations, so confidence
intervals come from the classic distribution-free order-statistic bound:
the rank of the empirical ``q``-quantile over ``n`` samples has standard
error ``sqrt(n * q * (1 - q))``.  :func:`percentile_ci` maps the
``± z``-rank window through the record's percentile anchors (its exact
p50/p90/p95/p99/max) back to latency values.  A paired delta is
*significant* when it exceeds the root-sum-square of the two runs' CI
half-widths.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.report import format_table

if TYPE_CHECKING:  # break the analysis <-> harness import cycle
    from repro.harness.record import ResultRecord

#: The config axes a RunSet aligns on, in grouping order.
AXES = ("app", "policy", "target_rps", "seed")

#: Scalar record metrics diffed by :func:`compare`, with display labels.
DIFF_METRICS: Tuple[Tuple[str, str], ...] = (
    ("p50_ns", "p50"),
    ("p95_ns", "p95"),
    ("p99_ns", "p99"),
    ("energy_j", "energy"),
    ("joules_per_request", "J/req"),
    ("avg_power_w", "power"),
)

#: Percentile metrics that carry an order-statistic CI.
_PERCENTILE_Q = {"p50_ns": 50.0, "p95_ns": 95.0, "p99_ns": 99.0}


def load_label(target_rps: float) -> str:
    """Compact display label for a load axis value (``24000.0`` → ``24K``)."""
    if target_rps >= 1000 and float(target_rps) % 1000 == 0:
        return f"{target_rps / 1000:.0f}K"
    return f"{target_rps:g}"


def joules_per_request(record: ResultRecord) -> float:
    """Energy per completed request — the frontier's x-axis."""
    if record.responses_received <= 0:
        return float("nan")
    return record.energy_j / record.responses_received


def percentile_ci(
    record: ResultRecord, q: float, z: float = 1.96
) -> Tuple[float, float]:
    """Distribution-free CI for a record's ``q``-percentile (``q`` in [0, 100]).

    The rank window ``n*q ± z*sqrt(n*q*(1-q))`` is mapped back to latency
    values through the record's percentile anchors.  Records keep no
    anchors below p50, so windows reaching under the median clamp there —
    conservative for the tail percentiles this gate exists for.
    """
    n = record.latency_count
    if n <= 0:
        return (float("nan"), float("nan"))
    frac = q / 100.0
    half_rank = z * math.sqrt(n * frac * (1.0 - frac))
    lo_q = max(0.0, (n * frac - half_rank) / n) * 100.0
    hi_q = min(1.0, (n * frac + half_rank) / n) * 100.0
    latency = record.latency
    return (latency.percentile(lo_q), latency.percentile(hi_q))


# -- RunSet ------------------------------------------------------------------


def _axis_key(record: ResultRecord) -> Tuple:
    return (record.app, record.target_rps, record.policy, record.seed)


class RunSet:
    """An indexed set of result records, aligned on the config axes."""

    def __init__(self, records: Iterable[ResultRecord]):
        self.records: List[ResultRecord] = sorted(
            records, key=lambda r: _axis_key(r) + (r.config_hash,)
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- loading ----------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[ResultRecord]) -> "RunSet":
        return cls(records)

    @classmethod
    def from_json(cls, path: str) -> "RunSet":
        """Load an array exported by ``repro sweep --out`` /
        :func:`repro.metrics.export.export_result_records`."""
        from repro.metrics.export import load_result_records

        return cls(load_result_records(path))

    @classmethod
    def from_cache_dir(cls, directory: str) -> "RunSet":
        """Index every readable record in a sweep cache directory.

        Entries that fail to parse (stale schema, corrupt JSON, temp
        files) are skipped, mirroring the cache's own miss semantics.
        """
        from repro.harness.record import ResultRecord

        records = []
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json") or name.startswith("."):
                continue
            try:
                with open(
                    os.path.join(directory, name), "r", encoding="utf-8"
                ) as fh:
                    data = json.load(fh)
                records.append(ResultRecord.from_json_dict(data))
            except (OSError, ValueError, TypeError):
                continue
        return cls(records)

    # -- indexing ---------------------------------------------------------

    def axis_values(self, axis: str) -> List:
        """Sorted distinct values along one of :data:`AXES`."""
        if axis not in AXES:
            raise KeyError(f"unknown axis {axis!r}; choose from {AXES}")
        return sorted({getattr(r, axis) for r in self.records})

    def select(self, **filters) -> "RunSet":
        """The sub-set matching every given axis value."""
        for axis in filters:
            if axis not in AXES:
                raise KeyError(f"unknown axis {axis!r}; choose from {AXES}")
        return RunSet(
            r for r in self.records
            if all(getattr(r, axis) == value for axis, value in filters.items())
        )

    def get(self, **filters) -> ResultRecord:
        """Exactly one record matching the filters (KeyError otherwise)."""
        matches = self.select(**filters).records
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} records match {filters!r} (need exactly 1)"
            )
        return matches[0]

    def groups(self, axis: str) -> List[Tuple[Tuple, Dict]]:
        """Group records by every axis *except* ``axis``.

        Returns ``[(other_axes_key, {axis_value: record})]`` in sorted
        key order; duplicate coordinates keep the first record (the set
        is sorted, so this is deterministic).
        """
        if axis not in AXES:
            raise KeyError(f"unknown axis {axis!r}; choose from {AXES}")
        others = tuple(a for a in AXES if a != axis)
        grouped: Dict[Tuple, Dict] = {}
        for record in self.records:
            key = tuple(getattr(record, a) for a in others)
            grouped.setdefault(key, {}).setdefault(
                getattr(record, axis), record
            )
        return sorted(grouped.items())


# -- paired diffs ------------------------------------------------------------


@dataclass
class MetricDelta:
    """One metric's paired difference (candidate minus baseline)."""

    metric: str
    base: float
    cand: float
    ci_halfwidth: float = 0.0

    @property
    def delta(self) -> float:
        return self.cand - self.base

    @property
    def rel(self) -> float:
        """Relative change vs the baseline (nan when the base is 0)."""
        return self.delta / self.base if self.base else float("nan")

    @property
    def significant(self) -> bool:
        """True when the delta clears the combined uncertainty."""
        return abs(self.delta) > self.ci_halfwidth


@dataclass
class PairedDiff:
    """One baseline-vs-candidate comparison at a fixed grid coordinate."""

    app: str
    target_rps: float
    seed: int
    axis: str
    base_label: str
    cand_label: str
    metrics: Dict[str, MetricDelta] = field(default_factory=dict)
    #: Energy-attribution component deltas (PR 9), present when both
    #: records carry an ``energy_attribution`` payload.
    energy_components: Dict[str, MetricDelta] = field(default_factory=dict)
    #: Counters whose values drifted, sorted by descending |relative
    #: drift| then name; capped at ``compare(..., max_counters=)``.
    counter_drift: List[MetricDelta] = field(default_factory=list)

    @property
    def coordinate(self) -> str:
        return f"{self.app}@{load_label(self.target_rps)} seed {self.seed}"


def diff_records(
    base: ResultRecord,
    cand: ResultRecord,
    axis: str = "policy",
    max_counters: int = 8,
) -> PairedDiff:
    """Pair two records into a :class:`PairedDiff` with uncertainty."""
    diff = PairedDiff(
        app=cand.app,
        target_rps=cand.target_rps,
        seed=cand.seed,
        axis=axis,
        base_label=str(getattr(base, axis)),
        cand_label=str(getattr(cand, axis)),
    )
    for metric, _ in DIFF_METRICS:
        if metric == "joules_per_request":
            base_v, cand_v = joules_per_request(base), joules_per_request(cand)
        else:
            base_v, cand_v = getattr(base, metric), getattr(cand, metric)
        halfwidth = 0.0
        q = _PERCENTILE_Q.get(metric)
        if q is not None:
            lo_b, hi_b = percentile_ci(base, q)
            lo_c, hi_c = percentile_ci(cand, q)
            halfwidth = math.hypot((hi_b - lo_b) / 2.0, (hi_c - lo_c) / 2.0)
        diff.metrics[metric] = MetricDelta(metric, base_v, cand_v, halfwidth)
    base_attr = base.energy_attribution_report()
    cand_attr = cand.energy_attribution_report()
    if base_attr is not None and cand_attr is not None:
        from repro.analysis.energy import ENERGY_COMPONENTS

        for name in ("total",) + ENERGY_COMPONENTS:
            if name == "total":
                base_v, cand_v = base_attr.total_j, cand_attr.total_j
            else:
                base_v = base_attr.component_j(name)
                cand_v = cand_attr.component_j(name)
            diff.energy_components[name] = MetricDelta(name, base_v, cand_v)
    drift = []
    for key in set(base.counters) | set(cand.counters):
        b = base.counters.get(key, 0.0)
        c = cand.counters.get(key, 0.0)
        if b != c:
            drift.append(MetricDelta(key, b, c))
    drift.sort(key=lambda d: (-abs(d.rel) if d.base else -math.inf, d.metric))
    diff.counter_drift = drift[:max_counters]
    return diff


def compare(
    runset: RunSet,
    baseline,
    axis: str = "policy",
    max_counters: int = 8,
) -> List[PairedDiff]:
    """Paired diffs of every run against the ``baseline`` axis value.

    Records are grouped on all axes except ``axis``; within each group
    holding the baseline, every other axis value is paired against it.
    Groups without the baseline value are skipped.
    """
    diffs: List[PairedDiff] = []
    for _, by_value in runset.groups(axis):
        base = by_value.get(baseline)
        if base is None:
            continue
        for value in sorted(v for v in by_value if v != baseline):
            diffs.append(
                diff_records(base, by_value[value], axis, max_counters)
            )
    return diffs


# -- reports -----------------------------------------------------------------


def format_compare_report(
    diffs: Sequence[PairedDiff], title: Optional[str] = None
) -> str:
    """Paired-diff table: one row per comparison, significance-gated.

    A trailing ``*`` marks percentile deltas that clear the combined
    order-statistic CI; ``~`` marks deltas inside it (statistically
    indistinguishable at this run length).
    """
    if not diffs:
        return "no paired runs to compare"
    rows = []
    for diff in diffs:
        p99 = diff.metrics["p99_ns"]
        jpr = diff.metrics["joules_per_request"]
        energy = diff.metrics["energy_j"]
        gate = "*" if p99.significant else "~"
        wasted = diff.energy_components.get("wasted_shallow")
        rows.append([
            diff.app,
            load_label(diff.target_rps),
            diff.seed,
            f"{diff.cand_label} vs {diff.base_label}",
            f"{p99.delta / 1e6:+.3f} ± {p99.ci_halfwidth / 1e6:.3f} {gate}",
            f"{100 * p99.rel:+.1f}%",
            f"{1e3 * jpr.delta:+.4f}",
            f"{energy.delta:+.3f}",
            f"{wasted.delta:+.3f}" if wasted is not None else "-",
            len(diff.counter_drift),
        ])
    axis = diffs[0].axis
    return format_table(
        ["app", "load", "seed", axis, "Δp99 (ms, ±CI)", "Δp99 %",
         "ΔmJ/req", "ΔJ", "Δwasted (J)", "drift"],
        rows,
        title=title or f"Paired diffs along '{axis}' "
                       f"(* significant, ~ within CI)",
    )


def format_runset_summary(
    runset: RunSet, title: Optional[str] = None
) -> str:
    """One row per record: config axes, p50/p99, joules/request.

    The human-readable sweep summary (``repro sweep --summary``) — sweep
    output without opening the records.
    """
    rows = []
    for r in runset:
        rows.append([
            r.app,
            r.policy,
            load_label(r.target_rps),
            r.seed,
            round(r.p50_ns / 1e6, 3),
            round(r.p99_ns / 1e6, 3),
            f"{1e3 * joules_per_request(r):.4f}",
            round(r.energy_j, 3),
            "met" if r.meets_sla else "VIOLATED",
        ])
    return format_table(
        ["app", "policy", "load", "seed", "p50 (ms)", "p99 (ms)",
         "mJ/req", "energy (J)", "SLA"],
        rows,
        title=title or f"Run set — {len(runset)} records",
    )
