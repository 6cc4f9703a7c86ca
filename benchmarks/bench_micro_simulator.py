"""Micro-benchmarks of the simulation substrate itself.

The scenarios — event-kernel throughput, cancel churn (heap
compaction), NIC rx-path cost, and a full small cluster run — are
declared once in :data:`repro.harness.suites.MICRO_SUITE` and shared
with ``repro bench micro``, which CI gates against the committed
``benchmarks/baselines/micro.json``.  This file runs that same suite
under pytest, renders the plain-text report from the JSON payload, and
sanity-checks the scenario counters so a broken workload can't
masquerade as a fast one.
"""

from repro.harness import (
    format_suite_report,
    run_suite,
    validate_bench_payload,
)
from repro.harness.suites import MICRO_SUITE


def test_micro_suite(save_report):
    payload = run_suite(MICRO_SUITE, repeats=3)
    validate_bench_payload(payload)
    scenarios = payload["scenarios"]

    # 100,000 batched ticks plus the 500 ``arm`` events that re-arm them.
    assert scenarios["event_kernel"]["events"] == 100_500
    assert scenarios["cancel_churn"]["counters"]["compactions"] >= 1
    assert scenarios["nic_rx_path"]["counters"]["delivered"] == 2000
    assert scenarios["small_cluster"]["counters"]["responses_received"] > 0
    for name, entry in scenarios.items():
        assert entry["wall_s"]["min"] > 0, name
        assert entry["events_per_sec"] > 0, name
        assert entry["top_handlers"], name

    save_report("micro_simulator", format_suite_report(payload))
