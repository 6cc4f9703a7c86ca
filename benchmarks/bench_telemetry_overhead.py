"""Telemetry overhead bench: what do disabled probes cost?

The telemetry refactor routes every hot-path event (NIC rx/tx, C-state
transitions, governor decisions, NCAP classification) through
:class:`~repro.telemetry.ProbePoint` guards and registry counters.  With
no sinks attached every probe is disabled and the guard is a single
attribute truthiness check; this bench quantifies that cost two ways:

- **micro**: ns/op for a disabled-probe guard and a registry counter
  increment, against an empty-loop floor;
- **macro**: wall time of the headline experiment (Apache / ncap.cons @
  24K RPS, quick settings) with and without the opt-in attribution and
  audit observers, measured by the ``telemetry`` bench suite — the same
  scenarios ``repro bench telemetry`` runs — against the pre-refactor
  baseline measured on the same machine at commit e0c2572
  (median 0.454 s).

The enabled-cost ratios (attributed / plain, energy / plain) are paired:
each round times the three scenarios back to back, and the gate reads
the median of the per-round ratios, so host drift between rounds cancels
instead of deciding the result.
"""

import statistics
import time

from repro.harness import format_suite_report, run_suite, validate_bench_payload
from repro.harness.suites import TELEMETRY_SUITE
from repro.metrics.report import format_table
from repro.telemetry import StatsRegistry, Telemetry

#: Median wall time of the same macro experiment at the pre-refactor
#: commit (e0c2572), measured on the machine that generated the committed
#: report.  Informational: re-measure when regenerating the report on
#: different hardware.
PRE_REFACTOR_BASELINE_S = 0.454

_MICRO_ITERS = 1_000_000

#: Rounds of plain, attributed and energy runs behind the paired ratios.
_ROUNDS = 5


def _time_ns_per_op(fn, iters=_MICRO_ITERS, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(iters)
        best = min(best, time.perf_counter() - t0)
    return best * 1e9 / iters


def _loop_floor(iters):
    for _ in range(iters):
        pass


def _make_probe_guard():
    probe = Telemetry().probe("bench.disabled")

    def guarded(iters):
        for _ in range(iters):
            if probe.enabled:
                raise AssertionError("probe must stay disabled")

    return guarded


def _make_counter_inc():
    counter = StatsRegistry().counter("bench.counter")

    def inc(iters):
        for _ in range(iters):
            counter.inc()

    return inc


def _paired_ratios(rounds=_ROUNDS):
    """Median per-round ratios of the attributed and the energy run's
    wall time to the plain run's in the same round.  Odd rounds run the
    scenarios in reverse order, so no scenario always runs first."""
    scenarios = [(scenario.name, scenario.fn) for scenario in TELEMETRY_SUITE.scenarios]
    attributed, energy = [], []
    for round_index in range(rounds):
        wall = {}
        for name, fn in scenarios[::-1] if round_index % 2 else scenarios:
            t0 = time.perf_counter()
            fn(None)
            wall[name] = time.perf_counter() - t0
        attributed.append(wall["headline_attributed"] / wall["headline_plain"])
        energy.append(wall["headline_energy"] / wall["headline_plain"])
    return statistics.median(attributed), statistics.median(energy)


def test_telemetry_overhead(save_report):
    floor = _time_ns_per_op(_loop_floor)
    guard = _time_ns_per_op(_make_probe_guard())
    inc = _time_ns_per_op(_make_counter_inc())

    payload = run_suite(TELEMETRY_SUITE)
    validate_bench_payload(payload)
    plain = payload["scenarios"]["headline_plain"]["wall_s"]["median"]
    attributed = payload["scenarios"]["headline_attributed"]["wall_s"]["median"]
    energy = payload["scenarios"]["headline_energy"]["wall_s"]["median"]
    off_ratio = plain / PRE_REFACTOR_BASELINE_S
    on_ratio, energy_ratio = _paired_ratios()

    rows = [
        ["loop floor (ns/op)", round(floor, 2)],
        ["disabled probe guard (ns/op)", round(guard, 2)],
        ["guard cost over floor (ns/op)", round(guard - floor, 2)],
        ["counter.inc() (ns/op)", round(inc, 2)],
        ["headline wall, median of 5 (s)", round(plain, 3)],
        ["attributed+audited wall, median of 5 (s)", round(attributed, 3)],
        ["energy-attributed wall (no audit), median of 5 (s)", round(energy, 3)],
        ["pre-refactor baseline (s)", PRE_REFACTOR_BASELINE_S],
        ["disabled-path ratio vs baseline", round(off_ratio, 3)],
        [f"enabled cost (attributed / plain), median of {_ROUNDS} rounds",
         round(on_ratio, 3)],
        [f"enabled cost (energy / plain), median of {_ROUNDS} rounds",
         round(energy_ratio, 3)],
    ]
    report = format_table(
        ["metric", "value"], rows,
        title="Telemetry overhead — headline, quick settings",
    )
    save_report("telemetry_overhead", report)
    save_report("attribution_overhead", format_suite_report(payload))

    # The guard is a single attribute check: it must stay within a few ns
    # of the empty loop, far under one counter increment.
    assert guard - floor < 100.0
    # Generous wall-clock bounds: the <5% disabled-path acceptance check
    # is done on a quiet machine when regenerating the report; CI
    # machines only need to catch gross regressions.  Opt-in attribution
    # + audit does real per-request work; keep it under a small multiple
    # so it stays usable in sweeps.
    assert off_ratio < 1.5
    assert on_ratio < 3.0
    # Energy attribution is per-idle-exit dict deltas — much lighter than
    # per-request attribution; the on-path must stay under 1.3x plain
    # (the off-path shares headline_plain: the observer is never built).
    assert energy_ratio < 1.3
