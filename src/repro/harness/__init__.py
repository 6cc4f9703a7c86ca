"""Sweep harness: declarative specs, parallel fan-out, cached results.

The experiment layer's shared engine.  A sweep is declared as a
:class:`SweepSpec` (or a list of :class:`RunSpec`), executed by a
:class:`Runner` — serially or across a process pool — and comes back as
flat, picklable :class:`ResultRecord` objects whose order matches the
spec order bit-for-bit on both backends.  An optional :class:`ResultCache`
keyed by :func:`config_hash` skips points whose configs are unchanged.

    from repro.harness import SweepSpec, run_sweep

    records = run_sweep(
        SweepSpec(apps=("apache",), policies=("perf", "ncap.cons"),
                  loads=("low", "medium")),
        jobs=8,
    )
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".bench": (
        "BENCH_SCHEMA_VERSION", "BenchCheck", "BenchScenario", "BenchSuite",
        "ScenarioStats", "baseline_path", "compare_to_baseline",
        "format_check_report", "format_suite_report", "load_bench_json",
        "run_suite", "validate_bench_payload", "write_bench_json",
    ),
    ".cache": ("DEFAULT_CACHE_DIR", "ResultCache", "default_cache_dir"),
    ".hashing": ("HASH_SCHEMA_VERSION", "canonical_json", "config_hash"),
    ".history": (
        "BenchHistory", "StepFlag", "TrendSeries", "discover_bench_files",
        "flag_steps", "format_history_report", "load_bench_history",
    ),
    ".record": ("RECORD_SCHEMA_VERSION", "ResultRecord"),
    ".runner": (
        "JOBS_ENV", "RunProgress", "Runner", "execute_spec", "resolve_jobs", "run_sweep",
    ),
    ".settings": ("RunSettings",),
    ".spec": ("LoadLike", "PolicyLike", "RunSpec", "SweepSpec", "policy_label"),
    ".suites": ("SUITES", "get_suite"),
})
