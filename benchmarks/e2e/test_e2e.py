"""Tests of the end-to-end benchmark itself.

Run with ``pytest benchmarks/e2e`` from the repository root (about a
minute: one quick timed set and one quick traced set of all four
workloads, each repeat in its own interpreter).
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(HERE, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


e2e_run = _load("e2e_run", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DEFS = json.load(fh)


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def timed(tmp_path_factory):
    out = tmp_path_factory.mktemp("timed")
    proc = _run("--quick", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "results.json", encoding="utf-8") as fh:
        return proc, json.load(fh), out / "results.json"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc = _run("--quick", "--trace", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "results.json", encoding="utf-8") as fh:
        return proc, json.load(fh)


def _printed(stdout: str, workload: str):
    """``{metric: (value, unit)}`` from one workload's block of stdout."""
    block = stdout.split(f"== {workload} ")[1].split("\n== ")[0]
    values = {}
    for line in block.splitlines():
        match = re.match(r"^  (\S+)\s+(\S+)\s+(\S+)", line)
        if match:
            name, value, unit = match.groups()
            try:
                values[name] = (float(value), unit)
            except ValueError:
                continue
    return values


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_quick_set_runs_all_four_workloads(timed):
    proc, results, _ = timed
    assert list(results["workloads"]) == list(e2e_run.WORKLOADS)
    line = _last_line(proc.stdout)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    for workload, result in results["workloads"].items():
        assert result["correct"], (workload, result["problems"])
        assert len(result["sha256"]) == 1


def test_every_declared_metric_is_printed_with_unit(timed, traced):
    for proc, kind in ((timed[0], "end_to_end"), (traced[0], "per_layer")):
        for workload in e2e_run.WORKLOADS:
            printed = _printed(proc.stdout, workload)
            for metric in DEFS[kind]:
                value, unit = printed[metric["name"]]
                assert unit == metric["unit"], (workload, metric["name"])
                assert math.isfinite(value), (workload, metric["name"])
    timed_metrics = _last_line(timed[0].stdout)["metrics"]
    for workload in e2e_run.WORKLOADS:
        for metric in DEFS["end_to_end"]:
            assert timed_metrics[f"{workload}.{metric['name']}"]["unit"] == metric["unit"]


def test_layers_telescope_and_the_tracer_is_pure(timed, traced):
    _, timed_results, _ = timed
    _, traced_results = traced
    for workload, result in traced_results["workloads"].items():
        assert result["correct"], (workload, result["problems"])
        # Untraced and traced repeats of this set agree, and agree with
        # the separate timed set.
        assert result["sha256"] == timed_results["workloads"][workload]["sha256"]
        for sample in result["samples"]:
            if sample["traced"]:
                t = sample["trace"]
                total = t["traced_total_s"]
                assert abs(t["layers_s"] + t["calibrated_s"] - total) <= 0.01 * total
        layers = result["layers"]
        assert layers["trace.overhead"] > 1.0
        assert layers["sim.events"] > 0 and layers["net.link.frames"] > 0
        if workload != "observed_grid":
            # The disabled observer path costs (almost) nothing.
            total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            assert layers["telemetry.self_s"] < 0.02 * total, workload


def test_a_failing_run_raises_failed_share_without_aborting(tmp_path):
    import workloads
    from repro.harness import RunSpec

    good = workloads.headline_grid(seed=1, quick=True).runs[0]
    bad = RunSpec(app="apache", policy="no-such-policy", settings=good.settings)
    batch = workloads.Batch([good, bad, good])
    out = workloads.run_batch(batch, str(tmp_path))
    assert [r.record is not None for r in out.runs] == [True, False, True]
    assert out.runs[1].failed == out.runs[1].attempted > 0
    assert out.failed == out.runs[1].attempted
    assert out.attempted > out.failed
    assert any("no-such-policy" in p for p in out.problems)


def test_observer_purity_check_flags_a_changed_field():
    from repro.harness import RunSpec, execute_spec
    import workloads

    record = execute_spec(workloads.observed_grid(seed=1, quick=True).runs[0])
    same = json.loads(json.dumps(record.to_json_dict()))
    changed = dict(same, energy_j=same["energy_j"] * (1 + 1e-15), p99_ns=same["p99_ns"] + 1)
    from repro.harness import ResultRecord

    problems, worst = workloads.purity_problems(record, ResultRecord.from_json_dict(same))
    assert problems == [] and worst == 0.0
    problems, worst = workloads.purity_problems(record, ResultRecord.from_json_dict(changed))
    assert problems == ["observed p99_ns differs from plain"]
    assert 0 < worst <= workloads.ENERGY_REL_TOL


@pytest.mark.parametrize(
    "a, b, bound, better, expected",
    [
        ([10, 10.1, 9.9, 10], [10.2, 10.1, 10.3, 10.2], 0.1, "lower", "OK"),
        ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], 0.1, "lower", "REGRESSED"),
        ([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], 0.1, "higher", "REGRESSED"),
        ([5, 10, 15, 20], [13, 14, 15, 16], 0.1, "lower", "UNRESOLVED"),
        ([5, 10, 15, 20], [1, 2, 3, 4], 0.1, "lower", "OK"),
        ([3.0, 3.0, 3.0], [3.0, 3.0, 3.0], 0.0, "lower", "OK"),
        ([3.0, 3.0, 3.0], [3.01, 3.01, 3.01], 0.0, "lower", "REGRESSED"),
    ],
)
def test_compare_verdicts(a, b, bound, better, expected):
    assert e2e_run.verdict(a, b, bound, better)[0] == expected


def test_compare_a_set_with_itself(timed):
    _, _, path = timed
    proc = _run("compare", str(path), str(path))
    assert proc.returncode == 0, proc.stdout
    rows = [line for line in proc.stdout.splitlines() if line.endswith(("OK", "REGRESSED", "UNRESOLVED"))]
    names = DEFS["end_to_end"] + e2e_run.SIM_E2E
    assert len(rows) == len(e2e_run.WORKLOADS) * len(names)
    assert all(row.endswith("OK") for row in rows)
    assert proc.stdout.count("records sha256 identical") == len(e2e_run.WORKLOADS)


def test_without_the_model_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "headline_grid",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_benchmark():
    import workloads

    assert [w["name"] for w in DEFS["workloads"]] == list(e2e_run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(e2e_run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in DEFS["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 <= b <= 0.25 for b in bounds.values())
