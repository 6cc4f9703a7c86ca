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

from repro.analysis.attribution import (  # noqa: F401
    COMPONENTS,
    PM_COMPONENTS,
    AttributionReport,
    AttributionSink,
    RequestAttribution,
    TailAttribution,
)
from repro.analysis.audit import AuditError, InvariantAuditor  # noqa: F401
from repro.analysis.compare import (  # noqa: F401
    AXES,
    MetricDelta,
    PairedDiff,
    RunSet,
    compare,
    diff_records,
    format_compare_report,
    format_runset_summary,
    joules_per_request,
    percentile_ci,
)
from repro.analysis.energy import (  # noqa: F401
    ENERGY_COMPONENTS,
    EnergyAttribution,
    attribution_between,
    format_energy_blame,
    format_energy_diff,
    format_governor_misses,
)
from repro.analysis.report import (  # noqa: F401
    format_attribution_report,
    format_mean_table,
    format_tail_table,
)
from repro.analysis.sketch import StreamingSketch  # noqa: F401
