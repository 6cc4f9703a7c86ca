"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``      — one cluster experiment (app, policy, load or RPS);
- ``compare``  — all seven policies at one load level;
- ``fig``      — regenerate a paper figure report (1, 2, 4, 7, 8, 9);
- ``sweep``    — declarative grid over apps × policies × loads × seeds;
- ``headline`` — the abstract's savings table;
- ``attribute``— per-policy critical-path tail-blame tables with auditing;
- ``energy``   — per-policy energy decomposition + governor-miss blame
  tables (optionally a two-policy ``--diff``), with invariant auditing;
- ``trace``    — run one experiment and export Chrome-trace (Perfetto) JSON;
- ``dashboard``— run one experiment with the flight recorder and write a
  self-contained HTML timeline dashboard;
- ``bench``    — run a declared benchmark suite, write machine-readable
  ``BENCH_<suite>.json``, and optionally gate against a committed
  baseline (``--check``);
- ``pareto``   — sweep policies × load points and render the
  energy-vs-p99 Pareto frontier (canonical dataset JSON + HTML scatter
  with drill-down links);
- ``history``  — parse the committed ``BENCH_*.json`` trajectory into
  per-scenario time series, flag step changes, render a trend page;
- ``profile``  — run one experiment under the simulator self-profiler
  and print/export where wall-clock time goes;
- ``policies`` — list the policy registry.

Every command prints the same plain-text reports the benchmark suite
saves under ``benchmarks/reports/``.  Sweep-shaped commands honour
``--jobs N`` (process-pool fan-out; also ``REPRO_JOBS``), ``--no-cache``
and ``--cache-dir`` (on-disk result cache, default ``.repro-cache``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.apps.client import reset_request_ids
from repro.apps.workload import LOAD_LEVELS, load_level
from repro.cluster.policies import POLICIES, POLICY_ORDER
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.experiments import (
    RunSettings,
    attribution,
    energy,
    fig1_dvfs_timing,
    fig2_ondemand_period,
    fig4_correlation,
    fig7_latency_load,
    headline,
    policy_comparison,
)
from repro.harness import (
    ResultCache,
    RunProgress,
    Runner,
    SweepSpec,
    default_cache_dir,
    resolve_jobs,
)
from repro.metrics.report import format_table
from repro.sim.units import MS


def _settings(args: argparse.Namespace) -> RunSettings:
    preset = {
        "quick": RunSettings.quick,
        "standard": RunSettings.standard,
        "full": RunSettings.full,
    }[args.settings]
    return preset(seed=args.seed)


def _cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _resolve_rps(app: str, load: Optional[str], rps: Optional[float]) -> float:
    if rps is not None:
        return rps
    return load_level(app, load or "low").target_rps


def _preset_config(args: argparse.Namespace, presets: dict) -> ExperimentConfig:
    """The config of preset ``args.experiment`` from ``presets``, with the
    ``--app``/``--policy``/``--rps``/``--load`` overrides applied."""
    params = dict(presets[args.experiment])
    if args.app is not None:
        params["app"] = args.app
    if args.policy is not None:
        params["policy"] = args.policy
    if args.rps is not None:
        params["target_rps"] = args.rps
    elif args.load is not None:
        params["target_rps"] = load_level(params["app"], args.load).target_rps
    return ExperimentConfig.from_settings(_settings(args), **params)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = ExperimentConfig.from_settings(
            _settings(args),
            app=args.app,
            policy=args.policy,
            target_rps=_resolve_rps(args.app, args.load, args.rps),
        )
    except ValueError as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    rows = [
        ["policy", result.policy_name],
        ["offered RPS", f"{result.target_rps / 1000:.0f}K"],
        ["achieved RPS", f"{result.achieved_rps / 1000:.1f}K"],
        ["p50 (ms)", round(result.latency.p50_ns / 1e6, 3)],
        ["p95 (ms)", round(result.latency.p95_ns / 1e6, 3)],
        ["p99 (ms)", round(result.latency.p99_ns / 1e6, 3)],
        ["SLA", "met" if result.meets_sla else "VIOLATED"],
        ["energy (J)", round(result.energy.energy_j, 3)],
        ["avg power (W)", round(result.avg_power_w, 2)],
        ["C-state entries", str(result.cstate_entries)],
        ["NCAP posts", str(result.ncap_stats)],
    ]
    print(format_table(["metric", "value"], rows, title=f"{args.app} / {args.policy}"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    settings = _settings(args)
    result = policy_comparison.run(
        args.app,
        loads=(args.load,),
        settings=settings,
        snapshot_policies=(),
        jobs=args.jobs,
        cache=_cache(args),
    )
    print(policy_comparison.format_report(result, figure_name="Policy comparison"))
    return 0


def cmd_fig(args: argparse.Namespace) -> int:
    settings = _settings(args)
    jobs, cache = args.jobs, _cache(args)
    figure = args.number
    if figure == "1":
        print(fig1_dvfs_timing.format_report(fig1_dvfs_timing.run()))
    elif figure == "2":
        print(fig2_ondemand_period.format_report(
            fig2_ondemand_period.run(settings=settings, jobs=jobs, cache=cache)))
    elif figure == "4":
        print(fig4_correlation.format_report(fig4_correlation.run(settings=settings)))
    elif figure == "7":
        for app in ("apache", "memcached"):
            print(fig7_latency_load.format_report(
                fig7_latency_load.run(app, settings=settings, jobs=jobs,
                                      cache=cache)))
    elif figure == "8":
        print(policy_comparison.format_report(
            policy_comparison.run("apache", settings=settings, jobs=jobs,
                                  cache=cache), "Figure 8"))
    elif figure == "9":
        print(policy_comparison.format_report(
            policy_comparison.run("memcached", settings=settings, jobs=jobs,
                                  cache=cache), "Figure 9"))
    else:
        print(f"unknown figure {figure!r}; choose from 1, 2, 4, 7, 8, 9",
              file=sys.stderr)
        return 2
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    settings = _settings(args)
    cache = _cache(args)
    results = [
        policy_comparison.run(
            app, loads=("low", "medium"), settings=settings,
            snapshot_policies=(), jobs=args.jobs, cache=cache,
        )
        for app in ("apache", "memcached")
    ]
    print(headline.format_report(headline.derive(results)))
    return 0


def _positive(raw: str, kind: type = float):
    """``raw`` as a finite ``kind`` above zero, for an argparse ``type=``;
    anything else is a one-line usage error."""
    try:
        value = kind(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {raw!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive, got {raw!r}")
    return value


def _positive_int(raw: str) -> int:
    return _positive(raw, int)


def _parse_load(raw: str):
    """A ``--loads`` entry: a load-level name, or an explicit RPS that
    must be positive."""
    try:
        float(raw)
    except ValueError:
        return raw
    return _positive(raw)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.metrics.export import export_result_records

    settings = _settings(args)
    sweep = SweepSpec(
        apps=tuple(args.apps),
        policies=tuple(args.policies),
        loads=tuple(args.loads),
        seeds=tuple(args.seeds) if args.seeds else None,
        settings=settings,
    )
    try:
        specs = sweep.expand()
    except KeyError as exc:  # unknown load-level name
        print(f"repro sweep: error: {exc.args[0]}", file=sys.stderr)
        return 2

    def progress(update: RunProgress) -> None:
        spec = update.spec
        tag = " (cached)" if update.cached else ""
        print(
            f"[{update.index + 1}/{update.total}] {spec.app} "
            f"{spec.policy_name} @ {spec.target_rps / 1000:.0f}K "
            f"seed={spec.seed}{tag}",
            file=sys.stderr,
        )

    runner = Runner(jobs=args.jobs, cache=_cache(args), progress=progress)
    records = runner.run(specs)
    if args.summary:
        from repro.analysis.compare import format_runset_summary
        from repro.analysis.compare import RunSet

        print(format_runset_summary(
            RunSet.from_records(records),
            title=f"Sweep summary — {len(records)} records",
        ))
        if args.out:
            path = export_result_records(records, args.out)
            print(f"wrote {len(records)} records to {path}")
        return 0
    rows = [
        [r.app, r.policy, spec.load or f"{r.target_rps / 1000:.0f}K", r.seed,
         round(r.p50_ns / 1e6, 3), round(r.p95_ns / 1e6, 3),
         round(r.p99_ns / 1e6, 3), round(r.energy_j, 3),
         round(r.avg_power_w, 2), "met" if r.meets_sla else "VIOLATED",
         "hit" if r.from_cache else "run"]
        for spec, r in zip(specs, records)
    ]
    print(format_table(
        ["app", "policy", "load", "seed", "p50 (ms)", "p95 (ms)", "p99 (ms)",
         "energy (J)", "power (W)", "SLA", "cache"],
        rows,
        title=f"Sweep — {len(records)} runs",
    ))
    if args.out:
        path = export_result_records(records, args.out)
        print(f"wrote {len(records)} records to {path}")
    return 0


def cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.metrics.export import export_timeseries_csv
    from repro.telemetry.recorder import RecorderConfig

    settings = _settings(args)
    config = ExperimentConfig.from_settings(
        settings,
        app=args.app,
        policy=args.policy,
        target_rps=_resolve_rps(args.app, args.load, None),
    )
    result = run_experiment(
        config, record_timeseries=RecorderConfig(interval_ns=1 * MS)
    )
    paths = export_timeseries_csv(
        result.timeseries,
        args.out,
        config.warmup_ns,
        config.warmup_ns + config.measure_ns,
    )
    for path in paths:
        print(path)
    print(f"exported {len(paths)} series to {args.out}")
    return 0


#: Named experiment presets for ``repro trace``.
TRACE_PRESETS = {
    "fig4": dict(app="apache", policy="ond.idle", target_rps=24_000.0),
    "ncap": dict(app="apache", policy="ncap.cons", target_rps=24_000.0),
    "memcached": dict(app="memcached", policy="ond.idle", target_rps=90_000.0),
}


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.metrics.export import export_chrome_trace
    from repro.telemetry import ChromeTraceSink

    try:
        config = _preset_config(args, TRACE_PRESETS)
    except ValueError as exc:
        print(f"repro trace: error: {exc}", file=sys.stderr)
        return 2
    # Same seed -> same bytes: restart the global request-id counter so
    # span ids in the export do not depend on prior runs in this process.
    reset_request_ids()
    sink = ChromeTraceSink()
    run_experiment(config, sinks=[sink])
    count = export_chrome_trace(sink, args.out)
    print(f"wrote {count} trace events to {args.out} "
          f"({config.app} / {config.policy}; open in Perfetto or "
          f"chrome://tracing)")
    return 0


#: Named experiment presets for ``repro dashboard``.
DASHBOARD_PRESETS = {
    "fig4": dict(app="apache", policy="ond.idle", target_rps=24_000.0),
    "headline": dict(app="apache", policy="ncap.cons", target_rps=24_000.0),
    "memcached": dict(app="memcached", policy="ond.idle", target_rps=90_000.0),
}


def cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.viz import dashboard_from_result, write_dashboard

    try:
        config = _preset_config(args, DASHBOARD_PRESETS)
    except ValueError as exc:
        print(f"repro dashboard: error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(
        config, record_timeseries=args.record, energy_attribution=True
    )
    page = dashboard_from_result(
        result,
        config=config,
        title=f"Flight recorder - {config.app} / {config.policy}",
    )
    path = write_dashboard(page, args.out)
    print(f"wrote dashboard ({len(result.timeseries.series)} series) to {path}")
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    settings = _settings(args)
    if args.quick:
        settings = RunSettings.quick(seed=settings.seed)
    try:
        result = attribution.run(
            args.experiment, settings=settings, jobs=args.jobs,
            audit=not args.no_audit,
        )
    except KeyError as exc:
        print(f"repro attribute: error: {exc.args[0]}", file=sys.stderr)
        return 2
    report = attribution.format_report(result)
    print(report)
    if args.out:
        import os

        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote report to {args.out}")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    settings = _settings(args)
    if args.quick:
        settings = RunSettings.quick(seed=settings.seed)
    try:
        result = energy.run(
            args.experiment, settings=settings, jobs=args.jobs,
            audit=not args.no_audit, cache=_cache(args),
        )
        report = energy.format_report(result, diff=args.diff)
    except KeyError as exc:
        print(f"repro energy: error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro energy: error: {exc}", file=sys.stderr)
        return 2
    print(report)
    if args.out:
        import os

        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote report to {args.out}")
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    import os

    from repro.experiments import pareto

    settings = _settings(args)

    def progress(update: RunProgress) -> None:
        spec = update.spec
        tag = " (cached)" if update.cached else ""
        print(
            f"[{update.index + 1}/{update.total}] {spec.app} "
            f"{spec.policy_name} @ {spec.target_rps / 1000:.0f}K{tag}",
            file=sys.stderr,
        )

    try:
        dataset, _records = pareto.run(
            args.preset, settings=settings, jobs=args.jobs,
            cache=_cache(args), progress=progress,
        )
    except KeyError as exc:
        print(f"repro pareto: error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(pareto.format_frontier_report(dataset))
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dataset.to_json() + "\n")
        print(f"wrote frontier dataset to {args.out}")
    if args.html:
        from repro.viz.frontier import render_frontier, write_dashboard

        links = None
        if args.detail_dir:
            links = pareto.write_details(
                args.preset, settings, args.detail_dir, jobs=args.jobs,
                href_prefix=os.path.relpath(
                    args.detail_dir, os.path.dirname(args.html) or "."
                ),
            )
            print(f"wrote {len(links)} drill-down pages to {args.detail_dir}")
        path = write_dashboard(
            render_frontier(dataset, links=links), args.html
        )
        print(f"wrote frontier page to {path}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from repro.harness.history import (
        discover_bench_files,
        flag_steps,
        format_history_report,
        load_bench_history,
    )

    paths = args.paths or discover_bench_files(args.root)
    if not paths:
        print(
            f"repro history: error: no BENCH payloads found under "
            f"{args.root!r}",
            file=sys.stderr,
        )
        return 2
    history = load_bench_history(paths)
    if not history.series:
        print("repro history: error: no valid BENCH payloads "
              f"(rejected {len(history.rejected)})", file=sys.stderr)
        for path, reason in history.rejected:
            print(f"  {path}: {reason}", file=sys.stderr)
        return 2
    flags = flag_steps(history, tolerance_scale=args.tolerance_scale)
    print(format_history_report(history, flags))
    if args.html:
        from repro.viz.frontier import render_trend_page, write_dashboard

        path = write_dashboard(
            render_trend_page(history, flags), args.html
        )
        print(f"wrote trend page to {path}")
    if args.check:
        regressions = [f for f in flags if f.direction == "regressed"]
        return 1 if regressions else 0
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.bench import (
        baseline_path,
        compare_to_baseline,
        format_check_report,
        format_suite_report,
        load_bench_json,
        run_suite,
        write_bench_json,
    )
    from repro.harness.suites import get_suite

    try:
        suite = get_suite(args.suite)
    except KeyError as exc:
        print(f"repro bench: error: {exc.args[0]}", file=sys.stderr)
        return 2
    base_path = args.baseline or baseline_path(suite.name)
    check_baseline = args.check and not args.update_baseline
    if check_baseline:
        # Fail on a missing or unreadable baseline before the suite runs.
        try:
            baseline = load_bench_json(base_path)
        except FileNotFoundError:
            print(
                f"repro bench: error: no baseline at {base_path} "
                f"(run with --update-baseline to create one)",
                file=sys.stderr,
            )
            return 2
        except (OSError, ValueError) as exc:
            print(
                f"repro bench: error: bad baseline {base_path}: {exc}",
                file=sys.stderr,
            )
            return 2
    payload = run_suite(
        suite, repeats=args.repeats, profile=not args.no_profile
    )
    print(format_suite_report(payload))
    out = args.out or suite.bench_filename()
    write_bench_json(payload, out)
    print(f"\nwrote {out}")
    if args.update_baseline:
        write_bench_json(payload, base_path)
        print(f"updated baseline {base_path}")
        return 0
    if check_baseline:
        check = compare_to_baseline(
            payload, baseline, tolerance_scale=args.tolerance_scale
        )
        print("\n" + format_check_report(check))
        return 0 if check.ok else 1
    return 0


#: Named experiment presets for ``repro profile``.
PROFILE_PRESETS = {
    "headline": dict(app="apache", policy="ncap.cons", target_rps=24_000.0),
    "fig4": dict(app="apache", policy="ond.idle", target_rps=24_000.0),
    "memcached": dict(app="memcached", policy="ond.idle", target_rps=90_000.0),
}


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.metrics.export import export_chrome_trace
    from repro.profiling import collapsed_stacks, format_top_handlers
    from repro.telemetry import ChromeTraceSink

    try:
        config = _preset_config(args, PROFILE_PRESETS)
    except ValueError as exc:
        print(f"repro profile: error: {exc}", file=sys.stderr)
        return 2
    sink = ChromeTraceSink() if args.trace_out else None
    result = run_experiment(config, profile=True, sinks=[sink] if sink else None)
    profile = result.profile
    assert profile is not None
    print(format_top_handlers(profile, n=args.top))
    share = profile.attributed_wall_ns / max(profile.loop_wall_ns, 1)
    rows = [
        ["loop wall (s)", round(profile.loop_wall_ns / 1e9, 3)],
        ["attributed share", f"{100.0 * share:.2f}%"],
        ["events", profile.events],
        ["events / wall-s", f"{profile.events_per_wall_s / 1e3:.0f}K"],
        ["sim-ns / wall-s", f"{profile.sim_ns_per_wall_s / 1e6:.1f}M"],
        ["max heap depth", profile.max_heap_depth],
        ["cancelled pops", profile.cancelled_pops],
        ["cancelled unlinked", profile.cancelled_unlinked],
        ["queue compactions", profile.compactions],
        ["peak RSS (MB)", round(profile.peak_rss_bytes / 1e6, 1)],
    ]
    print()
    print(format_table(["metric", "value"], rows, title="Loop health"))
    if args.stacks_out:
        with open(args.stacks_out, "w", encoding="utf-8") as fh:
            fh.write(collapsed_stacks(profile))
        print(f"wrote collapsed stacks to {args.stacks_out} "
              f"(feed to flamegraph.pl or speedscope)")
    if sink is not None:
        sink.add_profile(profile)
        count = export_chrome_trace(sink, args.trace_out)
        print(f"wrote {count} trace events (incl. wall-clock lane) "
              f"to {args.trace_out}")
    return 0


def cmd_datacenter(args: argparse.Namespace) -> int:
    from repro.experiments import datacenter as dc_experiment

    if args.trace_out and args.trace_requests is None:
        print("repro datacenter: error: --trace-out needs --trace-requests",
              file=sys.stderr)
        return 2
    overrides: dict = {}
    if args.policy is not None:
        overrides["policy"] = args.policy
    if args.servers is not None:
        overrides["n_servers"] = args.servers
    if args.shards is not None:
        overrides["n_shards"] = args.shards
    if args.rps is not None:
        overrides["total_rps"] = args.rps
    if args.shares is not None:
        overrides["load_shares"] = args.shares
    if args.seed is not None:
        overrides["seed"] = args.seed
    preset = dc_experiment.PRESETS[args.preset]
    if preset.frontend is not None and (
        args.spray is not None or args.users is not None
    ):
        from dataclasses import replace as dc_replace

        fe = preset.frontend
        if args.spray is not None:
            fe = dc_replace(fe, spray=args.spray)
        if args.users is not None:
            fe = dc_replace(fe, n_users=args.users)
        overrides["frontend"] = fe
    try:
        result = dc_experiment.run_preset(
            args.preset,
            overrides=overrides,
            jobs=args.jobs,
            record_timeseries=args.record,
            profile=True,
            trace_requests=args.trace_requests,
            profile_fleet=args.profile_fleet,
            monitor=args.progress,
            energy_attribution=args.energy,
        )
    except ValueError as exc:
        print(f"repro datacenter: error: {exc}", file=sys.stderr)
        return 2
    print(dc_experiment.format_fleet_report(result))
    if args.energy and result.record is not None:
        attribution_report = result.record.energy_attribution_report()
        if attribution_report is not None:
            from repro.analysis.energy import (
                format_energy_blame,
                format_governor_misses,
            )

            pairs = [(result.record.policy, attribution_report)]
            print()
            print(format_energy_blame(
                pairs, title="Fleet energy decomposition (J)"
            ))
            print()
            print(format_governor_misses(pairs))
    if result.fleet_profile is not None:
        from repro.profiling.fleet import format_fleet_profile

        print()
        print(format_fleet_profile(
            result.fleet_profile, measured_speedup=result.shard_speedup
        ))
    if result.trace is not None:
        from repro.telemetry.tracing import format_hop_table

        print()
        print(format_hop_table(result.trace))
        if args.trace_out:
            from repro.telemetry.tracing import write_fleet_trace

            shard_of_server = {
                i: s.shard_index
                for s in result.shards for i in s.server_indices
            }
            extra = []
            if result.fleet_profile is not None:
                from repro.profiling.fleet import window_trace_events

                extra = window_trace_events(result.fleet_profile)
            count = write_fleet_trace(
                result.trace, shard_of_server, args.trace_out,
                extra_events=extra,
            )
            print(f"wrote {count} merged fleet trace events to "
                  f"{args.trace_out}")
    if args.out:
        import json
        import os

        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.record.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote fleet record to {args.out}")
    if args.dashboard:
        from repro.viz import dashboard_from_datacenter, write_dashboard

        page = dashboard_from_datacenter(
            result, title=f"Datacenter - {args.preset}",
            trace_path=args.trace_out,
        )
        path = write_dashboard(page, args.dashboard)
        print(f"wrote fleet dashboard to {path}")
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    rows = []
    for name in POLICY_ORDER:
        policy = POLICIES[name]
        rows.append([
            name, policy.governor,
            "menu" if policy.cstates else "-",
            policy.ncap or "-",
            policy.fcons if policy.uses_ncap else "-",
        ])
    print(format_table(
        ["policy", "P-state governor", "C-state governor", "ncap", "FCONS"],
        rows, title="Power-management policies (paper Section 6)",
    ))
    return 0


def _add_common_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """Accept the shared flags before or after the subcommand name.

    The top-level parser carries the real defaults; subparsers use
    ``SUPPRESS`` so a flag given after the subcommand overrides one given
    before it, and an omitted flag falls through to the top-level default.
    """

    def default(value):
        return value if top_level else argparse.SUPPRESS

    parser.add_argument("--settings", choices=("quick", "standard", "full"),
                        default=default("quick"), help="run-length preset")
    parser.add_argument("--seed", type=int, default=default(1))
    parser.add_argument("--jobs", type=int, default=default(None),
                        help="parallel worker processes for sweep-shaped "
                             "commands (default: REPRO_JOBS or cpu count)")
    parser.add_argument("--no-cache", action="store_true",
                        default=default(False),
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=default(None),
                        help="result cache directory (default: .repro-cache "
                             "or REPRO_CACHE_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NCAP (HPCA 2017) reproduction toolkit"
    )
    _add_common_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        sub_parser = sub.add_parser(name, **kwargs)
        _add_common_options(sub_parser, top_level=False)
        return sub_parser

    p_run = add_parser("run", help="run one experiment")
    p_run.add_argument("--app", choices=tuple(LOAD_LEVELS), default="apache")
    p_run.add_argument("--policy", choices=tuple(POLICIES), default="ncap.cons")
    p_run.add_argument("--load", choices=("low", "medium", "high"))
    p_run.add_argument("--rps", type=_positive, help="explicit offered load")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = add_parser("compare", help="all seven policies at one load")
    p_cmp.add_argument("--app", choices=tuple(LOAD_LEVELS), default="apache")
    p_cmp.add_argument("--load", choices=("low", "medium", "high"), default="low")
    p_cmp.set_defaults(fn=cmd_compare)

    p_fig = add_parser("fig", help="regenerate a paper figure")
    p_fig.add_argument("number", choices=("1", "2", "4", "7", "8", "9"))
    p_fig.set_defaults(fn=cmd_fig)

    p_sweep = add_parser(
        "sweep", help="run an app x policy x load x seed grid"
    )
    p_sweep.add_argument("--apps", nargs="+", choices=tuple(LOAD_LEVELS),
                         default=["apache"])
    p_sweep.add_argument("--policies", nargs="+", choices=tuple(POLICIES),
                         default=["perf", "ond.idle", "ncap.cons"])
    p_sweep.add_argument("--loads", nargs="+", type=_parse_load,
                         default=["low", "medium"],
                         help="load level names or explicit RPS numbers")
    p_sweep.add_argument("--seeds", nargs="+", type=int,
                         help="repeat the grid at each seed")
    p_sweep.add_argument("--out", help="write records as JSON to this path")
    p_sweep.add_argument("--summary", action="store_true",
                         help="print the cross-run summary table (one row "
                              "per record: config axes, p50/p99, mJ/req)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_head = add_parser("headline", help="abstract's savings table")
    p_head.set_defaults(fn=cmd_headline)

    p_attr = add_parser(
        "attribute",
        help="critical-path attribution: per-policy tail-blame tables "
             "(wake/ramp/queue/service/...), with invariant auditing",
    )
    p_attr.add_argument("experiment", nargs="?", default="headline",
                        choices=tuple(attribution.PRESETS),
                        help="attribution experiment preset")
    p_attr.add_argument("--quick", action="store_true",
                        help="force the quick run-length preset")
    p_attr.add_argument("--no-audit", action="store_true",
                        help="skip the invariant auditor")
    p_attr.add_argument("--out", help="also write the report to this path")
    p_attr.set_defaults(fn=cmd_attribute)

    p_energy = add_parser(
        "energy",
        help="energy provenance: per-policy decomposition (active/ramp/"
             "wake/floor/wasted-shallow) and governor-miss tables, with "
             "the conservation invariant audited",
    )
    p_energy.add_argument("experiment", nargs="?", default="headline",
                          choices=tuple(energy.PRESETS),
                          help="energy experiment preset")
    p_energy.add_argument("--diff", metavar="POLICY",
                          help="add a component diff of the preset's last "
                               "policy against this baseline policy")
    p_energy.add_argument("--quick", action="store_true",
                          help="force the quick run-length preset")
    p_energy.add_argument("--no-audit", action="store_true",
                          help="skip the invariant auditor")
    p_energy.add_argument("--out", help="also write the report to this path")
    p_energy.set_defaults(fn=cmd_energy)

    p_par = add_parser(
        "pareto",
        help="sweep policies x load points and render the energy-vs-p99 "
             "Pareto frontier (the ROADMAP's headline figure): canonical "
             "dataset JSON plus a self-contained HTML scatter with "
             "dominated-point classification and drill-down links",
    )
    from repro.experiments import pareto as pareto_experiment

    p_par.add_argument("preset", nargs="?", default="headline",
                       choices=tuple(pareto_experiment.PRESETS),
                       help="frontier experiment preset")
    p_par.add_argument("--out",
                       help="write the canonical frontier dataset JSON "
                            "here (byte-identical serial vs pooled)")
    p_par.add_argument("--html", help="write the frontier HTML page here")
    p_par.add_argument("--detail-dir",
                       help="with --html: render per-run timeline "
                            "dashboards + energy-blame tables into this "
                            "directory and link them from the point table")
    p_par.set_defaults(fn=cmd_pareto)

    p_hist = add_parser(
        "history",
        help="bench-history regression watch: parse committed "
             "BENCH_*.json payloads into per-scenario time series, flag "
             "step changes against tolerances, render a trend page",
    )
    p_hist.add_argument("paths", nargs="*",
                        help="BENCH payload files, oldest need not come "
                             "first (default: discover committed payloads "
                             "under --root)")
    p_hist.add_argument("--root", default=".",
                        help="repo root for payload discovery (default .)")
    p_hist.add_argument("--html", help="write the trend HTML page here")
    p_hist.add_argument("--check", action="store_true",
                        help="exit 1 when any regression step is flagged")
    p_hist.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="multiply every step tolerance")
    p_hist.set_defaults(fn=cmd_history)

    p_bench = add_parser(
        "bench",
        help="run a declared benchmark suite and write BENCH_<suite>.json "
             "(optionally gating against a committed baseline)",
    )
    p_bench.add_argument("suite", nargs="?", default="micro",
                         help="bench suite name (micro, telemetry)")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="timed repeats per scenario (default: the "
                              "suite's declared count)")
    p_bench.add_argument("--out", default=None,
                         help="payload path (default: BENCH_<suite>.json "
                              "in the working directory)")
    p_bench.add_argument("--check", action="store_true",
                         help="diff against the committed baseline and "
                              "exit 1 on regression")
    p_bench.add_argument("--baseline", default=None,
                         help="baseline path (default: "
                              "benchmarks/baselines/<suite>.json)")
    p_bench.add_argument("--update-baseline", action="store_true",
                         help="write this run's payload as the baseline")
    p_bench.add_argument("--tolerance-scale", type=float, default=1.0,
                         help="multiply every noise tolerance (e.g. 3.0 "
                              "for gross-regression-only CI gates)")
    p_bench.add_argument("--no-profile", action="store_true",
                         help="skip the profiled attribution run")
    p_bench.set_defaults(fn=cmd_bench)

    p_prof = add_parser(
        "profile",
        help="run one experiment under the simulator self-profiler and "
             "report where wall-clock time goes",
    )
    p_prof.add_argument("experiment", nargs="?", default="headline",
                        choices=tuple(PROFILE_PRESETS),
                        help="experiment preset to profile")
    p_prof.add_argument("--app", choices=tuple(LOAD_LEVELS),
                        help="override the preset's application")
    p_prof.add_argument("--policy", choices=tuple(POLICIES),
                        help="override the preset's policy")
    p_prof.add_argument("--load", choices=("low", "medium", "high"),
                        help="override the preset's load level")
    p_prof.add_argument("--rps", type=_positive, help="explicit offered load")
    p_prof.add_argument("--top", type=int, default=15,
                        help="handlers to show (default 15)")
    p_prof.add_argument("--stacks-out",
                        help="write collapsed-stack text for flamegraph "
                             "tooling to this path")
    p_prof.add_argument("--trace-out",
                        help="write Chrome-trace JSON with a wall-clock "
                             "profiler lane to this path")
    p_prof.set_defaults(fn=cmd_profile)

    p_dc = add_parser(
        "datacenter",
        help="run a (sharded) multi-server fleet preset and report "
             "fleet metrics plus per-shard wall time and speedup",
    )
    from repro.cluster.frontend import SPRAY_POLICIES
    from repro.experiments.datacenter import PRESETS as DC_PRESETS

    p_dc.add_argument("preset", nargs="?", default="imbalance",
                      choices=tuple(DC_PRESETS),
                      help="cluster shape preset")
    p_dc.add_argument("--policy", choices=tuple(POLICIES),
                      help="override the preset's power policy")
    p_dc.add_argument("--servers", type=int, help="override n_servers")
    p_dc.add_argument("--shards", type=int, help="override n_shards")
    p_dc.add_argument("--rps", type=_positive, help="override total offered RPS")
    p_dc.add_argument("--shares",
                      help="load-share profile: 'uniform' or 'zipf:<s>'")
    p_dc.add_argument("--spray", choices=SPRAY_POLICIES,
                      help="frontend spray policy (frontend presets only)")
    p_dc.add_argument("--users", type=_positive_int,
                      help="frontend user population (frontend presets only)")
    p_dc.add_argument("--record", choices=("coarse", "fine"),
                      help="record flight-recorder series on the first "
                           "few servers")
    p_dc.add_argument("--dashboard",
                      help="write the merged-fleet HTML dashboard here "
                           "(needs --record)")
    p_dc.add_argument("--out", help="write the fleet ResultRecord JSON here")
    p_dc.add_argument("--energy", action="store_true",
                      help="attach per-server energy decomposition + "
                           "governor-miss accounting and print the "
                           "fleet-merged blame tables")
    p_dc.add_argument("--profile-fleet", action="store_true",
                      help="print the per-window shard imbalance report "
                           "(load-imbalance factor, critical path, "
                           "speedup bound, pool-slot utilization)")
    p_dc.add_argument("--progress", nargs="?", const="-", metavar="JSONL",
                      help="emit live JSONL heartbeats (windows done, "
                           "sim-time, per-shard events/s, straggler, ETA) "
                           "to stderr or to JSONL path")
    p_dc.add_argument("--trace-requests", type=int, nargs="?", const=1024,
                      metavar="N",
                      help="trace a deterministic 1-in-N sample of "
                           "requests end-to-end across shards "
                           "(frontend presets only; default N=1024)")
    p_dc.add_argument("--trace-out", metavar="JSON",
                      help="write the merged cross-shard Chrome-trace "
                           "here (with --trace-requests; Perfetto-loadable)")
    p_dc.set_defaults(fn=cmd_datacenter)

    p_pol = add_parser("policies", help="list the policy registry")
    p_pol.set_defaults(fn=cmd_policies)

    p_tr = add_parser(
        "trace", help="run one experiment and write a Chrome-trace JSON "
                      "(Perfetto-loadable) of its telemetry events"
    )
    p_tr.add_argument("experiment", nargs="?", default="fig4",
                      choices=tuple(TRACE_PRESETS),
                      help="experiment preset to trace")
    p_tr.add_argument("--app", choices=tuple(LOAD_LEVELS),
                      help="override the preset's application")
    p_tr.add_argument("--policy", choices=tuple(POLICIES),
                      help="override the preset's policy")
    p_tr.add_argument("--load", choices=("low", "medium", "high"),
                      help="override the preset's load level")
    p_tr.add_argument("--rps", type=_positive, help="explicit offered load")
    p_tr.add_argument("--out", default="trace.json",
                      help="output path (default: trace.json)")
    p_tr.set_defaults(fn=cmd_trace)

    p_dash = add_parser(
        "dashboard",
        help="run one experiment with the flight recorder and write a "
             "self-contained HTML timeline dashboard",
    )
    p_dash.add_argument("experiment", nargs="?", default="fig4",
                        choices=tuple(DASHBOARD_PRESETS),
                        help="experiment preset to record")
    p_dash.add_argument("--app", choices=tuple(LOAD_LEVELS),
                        help="override the preset's application")
    p_dash.add_argument("--policy", choices=tuple(POLICIES),
                        help="override the preset's policy")
    p_dash.add_argument("--load", choices=("low", "medium", "high"),
                        help="override the preset's load level")
    p_dash.add_argument("--rps", type=_positive, help="explicit offered load")
    p_dash.add_argument("--record", choices=("coarse", "fine"),
                        default="coarse", help="recorder cadence preset")
    p_dash.add_argument("--out", default="dashboard.html",
                        help="output path (default: dashboard.html)")
    p_dash.set_defaults(fn=cmd_dashboard)

    p_exp = add_parser(
        "export-trace",
        help="run with the flight recorder and dump its 1 ms series as CSV",
    )
    p_exp.add_argument("--app", choices=tuple(LOAD_LEVELS), default="apache")
    p_exp.add_argument("--policy", choices=tuple(POLICIES), default="ond.idle")
    p_exp.add_argument("--load", choices=("low", "medium", "high"), default="low")
    p_exp.add_argument("--out", default="trace_export")
    p_exp.set_defaults(fn=cmd_export_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_jobs(args.jobs)
    except ValueError as exc:  # fail fast on a bad REPRO_JOBS
        parser.error(str(exc))
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
