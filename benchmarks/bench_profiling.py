"""Profiler overhead bench: the disabled path must stay free.

The self-profiler wraps one simulator's scheduling methods and ``run``
from outside, only when attached; with ``profile=False`` the kernel's
one dispatch loop runs with nothing added.  This bench records the two
acceptance measurements:

- **disabled**: headline wall time (Apache / ncap.cons @ 24K RPS, quick
  settings, no observers) against the pre-profiler baseline measured on
  the same machine at commit fb72f8f (median 0.494 s, min 0.425 s over
  7 runs).  Quiet-machine target is within 2%; the CI assert only
  catches gross regressions.
- **enabled**: the same run under the profiler — the per-handler
  attribution must telescope to the measured loop total within 1%, and
  the slowdown ratio quantifies the opt-in cost.
"""

import statistics
import time

from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.harness.settings import RunSettings
from repro.metrics.report import format_table
from repro.profiling import format_top_handlers

#: Median/min wall time of the headline quick run at the pre-profiler
#: commit (fb72f8f), measured on the machine that generated the
#: committed report.  Informational: re-measure when regenerating the
#: report on different hardware.
PRE_PROFILER_BASELINE_MEDIAN_S = 0.494
PRE_PROFILER_BASELINE_MIN_S = 0.425

_REPEATS = 5


def _headline_config():
    return ExperimentConfig.from_settings(
        RunSettings.quick(), app="apache", policy="ncap.cons",
        target_rps=24_000.0,
    )


def _timed_run(profile=False):
    t0 = time.perf_counter()
    result = run_experiment(_headline_config(), profile=profile)
    elapsed = time.perf_counter() - t0
    assert result.responses_received > 0
    return elapsed, result


def test_profiler_overhead(save_report):
    plain = [_timed_run()[0] for _ in range(_REPEATS)]
    profiled = []
    shares = []
    last_profile = None
    for _ in range(_REPEATS):
        elapsed, result = _timed_run(profile=True)
        profiled.append(elapsed)
        last_profile = result.profile
        shares.append(
            last_profile.attributed_wall_ns / last_profile.loop_wall_ns
        )

    plain_median = statistics.median(plain)
    profiled_median = statistics.median(profiled)
    disabled_ratio = plain_median / PRE_PROFILER_BASELINE_MEDIAN_S
    enabled_ratio = profiled_median / plain_median
    rows = [
        ["plain wall, median of 5 (s)", round(plain_median, 3)],
        ["plain wall, min of 5 (s)", round(min(plain), 3)],
        ["profiled wall, median of 5 (s)", round(profiled_median, 3)],
        ["pre-profiler baseline median (s)", PRE_PROFILER_BASELINE_MEDIAN_S],
        ["pre-profiler baseline min (s)", PRE_PROFILER_BASELINE_MIN_S],
        ["disabled-path ratio vs baseline", round(disabled_ratio, 3)],
        ["enabled cost (profiled / plain)", round(enabled_ratio, 3)],
        ["attributed share, worst of 5", round(min(shares), 5)],
    ]
    report = format_table(
        ["metric", "value"], rows,
        title="Profiler overhead — headline, quick settings",
    )
    report += "\n\n" + format_top_handlers(last_profile, n=10)
    save_report("profiling_overhead", report)

    # Attribution telescopes to the loop total within 1% on every run —
    # this is exact bookkeeping, not a timing property, so it holds on
    # noisy machines too.
    assert min(shares) > 0.99
    # Quiet-machine target for the disabled path is <= 1.02; the CI
    # bound is generous to tolerate shared runners.
    assert disabled_ratio < 1.5
    # Each handler's trampoline adds one perf_counter read + dict
    # upkeep per event; keep it cheap enough to leave on during sweeps.
    assert enabled_ratio < 2.0
