"""Analysis layer: turn the probe stream into explanations.

- :mod:`repro.analysis.sketch` — an O(1)-memory streaming percentile
  sketch (t-digest-style);
- :mod:`repro.analysis.attribution` — per-request critical-path
  attribution (wire/dma/coalesce/wake/kernel/queue/service/ramp/
  preempt/io/tx) with tail blame tables;
- :mod:`repro.analysis.energy` — the energy twin: per-node joules
  telescoped into active/ramp/wake/idle-floor/wasted-shallow with
  governor-miss grading against a perfect oracle;
- :mod:`repro.analysis.audit` — opt-in invariant auditing that fails
  loudly when the telemetry stream or the accounting is inconsistent;
- :mod:`repro.analysis.compare` — cross-run comparison: RunSets over
  many ResultRecords, paired diffs with order-statistic confidence
  intervals, energy-component deltas, counter drift;
- :mod:`repro.analysis.report` — table rendering for the above.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".attribution": (
        "COMPONENTS", "PM_COMPONENTS", "AttributionReport", "AttributionSink",
        "RequestAttribution", "TailAttribution",
    ),
    ".audit": ("AuditError", "InvariantAuditor"),
    ".compare": (
        "AXES", "MetricDelta", "PairedDiff", "RunSet", "compare", "diff_records",
        "format_compare_report", "format_runset_summary", "joules_per_request",
        "percentile_ci",
    ),
    ".energy": (
        "ENERGY_COMPONENTS", "EnergyAttribution", "attribution_between",
        "format_energy_blame", "format_energy_diff", "format_governor_misses",
    ),
    ".report": ("format_attribution_report", "format_mean_table", "format_tail_table"),
    ".sketch": ("StreamingSketch",),
})
