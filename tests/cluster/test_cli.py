"""Tests for the command-line interface."""

import csv
import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_policies_command(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("perf", "ond.idle", "ncap.cons", "ncap.aggr"):
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "turbo"])

    def test_fig_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "3"])  # not a repro target

    @pytest.mark.parametrize("argv, option", [
        (["run", "--rps", "-1"], "--rps"),
        (["run", "--rps", "0"], "--rps"),
        (["run", "--rps", "nan"], "--rps"),
        (["profile", "headline", "--rps", "-3"], "--rps"),
        (["trace", "ncap", "--rps", "-3"], "--rps"),
        (["dashboard", "headline", "--rps", "-3"], "--rps"),
        (["sweep", "--apps", "apache", "--policies", "perf", "--loads", "-5"],
         "--loads"),
        (["sweep", "--apps", "apache", "--policies", "perf", "--loads", "0"],
         "--loads"),
        (["datacenter", "frontend", "--users", "0"], "--users"),
        (["datacenter", "frontend", "--rps", "-1"], "--rps"),
    ])
    def test_non_positive_number_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: must be positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["run"], ["profile", "fig4"],
                                         ["trace", "fig4"], ["dashboard", "fig4"],
                                         ["datacenter", "frontend"]])
    def test_rate_the_clients_cannot_offer_is_an_error(self, capsys, command):
        assert main([*command, "--settings", "quick", "--rps", "1e12"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command[0]}: error: target_rps must be at most")
        assert "Traceback" not in err

    def test_load_names_stay_names(self):
        args = build_parser().parse_args(
            ["sweep", "--loads", "low", "24000", "1.5e4"]
        )
        assert args.loads == ["low", 24000.0, 15000.0]


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        # Tiny but real end-to-end run through the CLI path.
        code = main([
            "--settings", "quick", "--seed", "2",
            "run", "--app", "memcached", "--policy", "ncap.aggr", "--rps", "20000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ncap.aggr" in out
        assert "p95 (ms)" in out
        assert "NCAP posts" in out

    def test_load_presets_resolve(self, capsys):
        code = main([
            "run", "--app", "apache", "--policy", "perf", "--load", "low",
        ])
        assert code == 0
        assert "24K" in capsys.readouterr().out

    def test_fig1_fast_path(self, capsys):
        assert main(["fig", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_export_trace(self, capsys, tmp_path):
        out = os.path.join(str(tmp_path), "series")
        code = main([
            "--settings", "quick",
            "export-trace", "--app", "apache", "--policy", "ond.idle",
            "--out", out,
        ])
        assert code == 0
        assert os.path.isdir(out)
        files = os.listdir(out)
        assert any("freq" in f for f in files)
        assert any("rx_bytes" in f for f in files)


class TestExportTrace:
    def _export(self, capsys, out):
        code = main(["export-trace", "--settings", "quick", "--out", out])
        printed = capsys.readouterr().out.splitlines()
        return code, printed

    def test_one_csv_per_series_over_the_window(self, capsys, tmp_path):
        out = os.path.join(str(tmp_path), "series")
        code, printed = self._export(capsys, out)
        assert code == 0
        paths = printed[:-1]
        assert printed[-1] == f"exported {len(paths)} series to {out}"
        assert sorted(os.path.join(out, f) for f in os.listdir(out)) == sorted(paths)
        names = {os.path.basename(p) for p in paths}
        for expected in ("nic_rx_bytes.csv", "nic_tx_bytes.csv", "cpu_util.csv",
                         "cpu_freq_ghz.csv", "core0_cstate.csv"):
            assert expected in names
        # Quick settings: a 150 ms window from 20 ms, sampled every 1 ms.
        start, end = 20_000_000, 170_000_000
        for path in paths:
            with open(path) as fh:
                header, *rows = list(csv.reader(fh))
            times = [int(row[0]) for row in rows]
            if header == ["bin_start_ns", "amount"]:
                assert times == list(range(start, end, 1_000_000))
            else:
                assert header == ["time_ns", "value"]
                assert times == list(range(start, end + 1, 1_000_000))

    def test_second_run_writes_the_same_bytes(self, capsys, tmp_path):
        first = os.path.join(str(tmp_path), "a")
        second = os.path.join(str(tmp_path), "b")
        assert self._export(capsys, first)[0] == 0
        assert self._export(capsys, second)[0] == 0
        assert sorted(os.listdir(first)) == sorted(os.listdir(second))
        for name in os.listdir(first):
            with open(os.path.join(first, name), "rb") as a, \
                    open(os.path.join(second, name), "rb") as b:
                assert a.read() == b.read(), name


def _fast_suite():
    """A synthetic one-scenario suite so check-path tests stay cheap."""
    from repro.harness.bench import BenchScenario, BenchSuite, ScenarioStats
    from repro.sim import Simulator

    def scenario(profiler):
        sim = Simulator()
        if profiler is not None:
            profiler.attach(sim)
        for i in range(2_000):
            sim.schedule(i, lambda: None)
        sim.run()
        return ScenarioStats(events=sim.events_executed, sim_ns=sim.now)

    return BenchSuite(
        name="tinycli", description="cli fixture",
        scenarios=(BenchScenario("burst", scenario, "2K events"),),
        repeats=2,
    )


class TestBenchCommand:
    def test_micro_suite_writes_valid_bench_json(self, capsys, tmp_path):
        from repro.harness.bench import load_bench_json

        out = os.path.join(str(tmp_path), "BENCH_micro.json")
        assert main(["bench", "micro", "--repeats", "1", "--out", out]) == 0
        payload = load_bench_json(out)  # schema-validates on load
        assert payload["suite"] == "micro"
        assert set(payload["scenarios"]) == {
            "event_kernel", "cancel_churn", "chained_timers", "burst_fanout",
            "nic_rx_path", "small_cluster",
        }
        text = capsys.readouterr().out
        assert "top handlers" in text
        assert "wrote " + out in text

    def test_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(_suites(), "tinycli", _fast_suite())
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "tinycli"]) == 0
        assert os.path.exists(str(tmp_path / "BENCH_tinycli.json"))

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown bench suite" in capsys.readouterr().err

    def test_check_lifecycle(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(_suites(), "tinycli", _fast_suite())
        out = os.path.join(str(tmp_path), "BENCH_tinycli.json")
        base = os.path.join(str(tmp_path), "baseline.json")
        common = ["bench", "tinycli", "--out", out, "--baseline", base]

        # 1. No baseline yet: --check is an error, not a silent pass.
        assert main(common + ["--check"]) == 2
        assert "no baseline" in capsys.readouterr().err

        # 2. Seed the baseline.
        assert main(common + ["--update-baseline"]) == 0
        assert os.path.exists(base)

        # 3. Unmodified rerun passes.  The fixture scenario runs in tens of
        #    microseconds, where timer noise dwarfs the 18% wall tolerance
        #    that guards real suites, so scale it up; the exit-code
        #    plumbing, not the tolerance value, is under test here.
        assert main(common + ["--check", "--tolerance-scale", "50"]) == 0
        assert "OK" in capsys.readouterr().out

        # 4. Make the baseline pretend it was twice as fast: flagged.
        with open(base, "r", encoding="utf-8") as fh:
            doctored = json.load(fh)
        wall = doctored["scenarios"]["burst"]["wall_s"]
        for key in ("median", "min"):
            wall[key] /= 1e3
        wall["samples"] = [s / 1e3 for s in wall["samples"]]
        with open(base, "w", encoding="utf-8") as fh:
            json.dump(doctored, fh)
        assert main(common + ["--check"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

        # 5. A corrupt baseline is an error, not a pass or a crash.
        with open(base, "w", encoding="utf-8") as fh:
            fh.write("{}")
        assert main(common + ["--check"]) == 2
        assert "bad baseline" in capsys.readouterr().err

    def test_check_reads_the_baseline_before_running_the_suite(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.harness.bench as bench

        def must_not_run(*args, **kwargs):
            raise AssertionError("the suite ran before the baseline was read")

        monkeypatch.setattr(bench, "run_suite", must_not_run)
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        with open(os.path.join(root, "BENCH_micro.json"), encoding="utf-8") as fh:
            truncated = fh.read(500)
        base = tmp_path / "truncated.json"
        base.write_text(truncated, encoding="utf-8")
        out = str(tmp_path / "BENCH_micro.json")
        common = ["bench", "micro", "--out", out, "--baseline", str(base)]

        assert main(common + ["--check"]) == 2
        err = capsys.readouterr().err
        assert f"bad baseline {base}:" in err
        assert not os.path.exists(out)

        missing = str(tmp_path / "missing.json")
        assert main(["bench", "micro", "--baseline", missing, "--check"]) == 2
        assert f"no baseline at {missing}" in capsys.readouterr().err

        assert main(["bench", "micro", "--baseline", str(tmp_path), "--check"]) == 2
        assert f"bad baseline {tmp_path}:" in capsys.readouterr().err


def _suites():
    from repro.harness.suites import SUITES

    return SUITES


class TestProfileCommand:
    def test_profile_reports_and_exports(self, capsys, tmp_path):
        stacks = os.path.join(str(tmp_path), "stacks.txt")
        trace = os.path.join(str(tmp_path), "trace.json")
        code = main([
            "--settings", "quick", "profile", "headline",
            "--top", "5", "--stacks-out", stacks, "--trace-out", trace,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Loop health" in out
        assert "attributed share" in out
        with open(stacks, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines and all(int(l.rpartition(" ")[2]) >= 1 for l in lines)
        with open(trace, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        assert any(e.get("pid") == 2 for e in events)
