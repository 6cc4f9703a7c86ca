"""End-to-end benchmark of the NCAP discrete-event model.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload headline_grid --seed 1 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py [--seed N] [--repeats 3] [--trace] [--quick] [--out DIR]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each repeat of a workload runs in a fresh interpreter (``repeat.py``).
A timed run reports, per end-to-end metric, the median over its repeats;
a traced run (``--trace``) makes one untraced repeat and then traced
ones, and reports the per-layer metrics.  Metric names, units and bounds
come from ``BENCHMARK.json`` at the repository root.  Every metric is
printed by name with its unit; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
WORKLOADS = ("headline_grid", "memcached_saturation", "frontend_fleet", "observed_grid")
#: A repeat that runs longer than this is killed and counted as failed.
REPEAT_TIMEOUT_S = 150

#: Simulated-time metrics, printed and compared beside BENCHMARK.json's
#: host metrics but not declared there.  They repeat exactly on one seed,
#: so ``compare`` holds two sets on the same seed to these bounds.  Across
#: seeds they move by more than a declared bound may (over ten seeds at
#: these windows: p99 up to 26%, SLA share up to 50%, energy up to 10%),
#: and failed_share is 0 whenever nothing fails; the result line's
#: ``attempted`` and ``failed`` carry it.
SIM_E2E = [
    {"name": "sim_p99_us", "unit": "us", "better": "lower", "bound": 0.01},
    {"name": "sim_mj_per_request", "unit": "mJ", "better": "lower", "bound": 0.01},
    {"name": "sim_sla_met_share", "unit": "fraction", "better": "higher", "bound": 0.0},
    {"name": "failed_share", "unit": "fraction", "better": "lower", "bound": 0.0},
]


def load_definitions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- running repeats --------------------------------------------------------


def run_repeat(workload: str, seed: int, quick: bool, traced: bool) -> dict:
    """One repeat in a fresh interpreter; a crash becomes a failed repeat."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="repeat-", dir=WORK_ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "repeat.py"),
           "--workload", workload, "--seed", str(seed), "--work", work]
    cmd += ["--quick"] * quick + ["--trace"] * traced
    start = time.monotonic()
    result, error = None, None
    try:
        # On timeout, run() kills the repeat and waits for it to end.
        proc = subprocess.run(
            cmd + ["--t0", repr(start)], env=env, capture_output=True,
            text=True, timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        error = f"repeat exceeded {REPEAT_TIMEOUT_S} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            error = f"repeat exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        else:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError as exc:
                error = f"unreadable repeat output: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        result = {"traced": traced, "metrics": {}, "attempted": 1, "failed": 1,
                  "problems": [error], "sha256": None}
    result["duration_s"] = time.monotonic() - start
    return result


def run_workload(workload: str, seed: int, quick: bool, traced: bool,
                 seconds: Optional[float], repeats: Optional[int]) -> dict:
    """Repeats of one workload: untraced ones, or one untraced then traced
    ones.  With ``repeats`` that many (timed or traced) repeats run;
    otherwise repeats start while the ``seconds`` budget still fits one."""
    start = time.monotonic()
    samples: List[dict] = []

    def done(group: List[dict]) -> bool:
        if repeats is not None:
            return len(group) >= repeats
        elapsed = time.monotonic() - start
        return elapsed + group[-1]["duration_s"] > seconds

    if traced:
        samples.append(run_repeat(workload, seed, quick, traced=False))
    group: List[dict] = []
    while not group or not done(group):
        group.append(run_repeat(workload, seed, quick, traced))
        samples.append(group[-1])
    return summarize(workload, seed, samples)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summarize(workload: str, seed: int, samples: List[dict]) -> dict:
    timed = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    problems = [p for s in samples for p in s["problems"]]
    digests = {s["sha256"] for s in samples if s["sha256"]}
    if len(digests) > 1:
        problems.append(
            f"records sha256 differ across {len(samples)} repeats "
            "(traced and untraced included)"
        )
    layers: Dict[str, float] = {}
    if traced:
        names = set().union(*(s.get("layers", {}) for s in traced))
        layers = {n: _median([s["layers"][n] for s in traced if n in s.get("layers", {})])
                  for n in names}
        layers["sim.events_per_s"] = _median(
            [s["events"] / s["run_s"] for s in timed if s.get("run_s")]
        )
        layers["trace.overhead"] = (
            _median([s["metrics"]["wall_s"] for s in traced if s["metrics"]])
            / _median([s["metrics"]["wall_s"] for s in timed if s["metrics"]])
        )
    return {
        "workload": workload,
        "seed": seed,
        "samples": samples,
        "layers": layers,
        "sha256": sorted(digests),
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "problems": problems,
        "correct": not problems,
    }


# -- reporting ----------------------------------------------------------------


def metric_values(result: dict, name: str) -> List[float]:
    """Per-repeat values of an end-to-end metric (untraced repeats)."""
    return [s["metrics"][name] for s in result["samples"]
            if not s["traced"] and name in s["metrics"]]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict, defs: dict, traced: bool) -> Dict[str, dict]:
    """Print one workload's metrics and checks; return ``{name: {value, unit}}``."""
    workload = result["workload"]
    samples = result["samples"]
    n_timed = sum(not s["traced"] for s in samples)
    print(f"== {workload} (seed {result['seed']}, {n_timed} timed"
          f"{f', {len(samples) - n_timed} traced' if traced else ''} repeats) ==")
    out: Dict[str, dict] = {}
    declared = {m["name"] for m in defs["end_to_end"]}
    for metric in defs["end_to_end"] + SIM_E2E:
        values = metric_values(result, metric["name"])
        if not values:
            continue
        value = _median(values)
        clock = "host" if metric["name"] in declared else "simulated"
        print(f"  {metric['name']:<22} {_fmt(value):>12} {metric['unit']:<9} "
              f"min {_fmt(min(values))}  max {_fmt(max(values))}  n={len(values)}"
              f"  [{clock}, bound {metric['bound']:.0%}]")
        if not traced and metric["name"] in declared:
            out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for metric in defs["per_layer"] if traced else ():
        value = result["layers"].get(metric["name"])
        if value is None:
            continue
        print(f"  {metric['name']:<32} {_fmt(value):>12} {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    fidelity = next((s["fidelity"] for s in samples if s.get("fidelity")), {})
    for key, saving in sorted(fidelity.items()):
        print(f"  fidelity {key}: NCAP saves {saving:.1f}% energy vs perf "
              "(paper: 37-61% at low-to-medium load)")
    deviation = max((s.get("energy_deviation", 0.0) for s in samples), default=0.0)
    if deviation:
        print(f"  known_deviation: observed energy differs from plain by "
              f"{deviation:.2e} (rel; allowed 1e-12): the flight recorder's "
              "PowerMeter.sync() splits the energy integral")
    for s in samples:
        if s["traced"] and "trace" in s:
            t = s["trace"]
            print(f"  trace: layers {t['layers_s']:.4f} s + calibrated span cost "
                  f"{t['calibrated_s']:.4f} s of {t['traced_total_s']:.4f} s traced; "
                  f"cluster.barrier_wait_s {t['cluster.barrier_wait_s']:.4f} s")
    if result["correct"]:
        print(f"  check: passed; records sha256 {result['sha256'][0][:16]} "
              f"identical across {len(samples)} repeats")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  failed {result['failed']} of {result['attempted']} requests attempted")
    return out


# -- compare ------------------------------------------------------------------


def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str):
    """(verdict, win share of B over A) by the paired-run rule: REGRESSED
    when B's median is worse than A's by more than ``bound``; UNRESOLVED
    when A's own quartile spread exceeds the bound, unless every B run
    beats every A run."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = _median(a), _median(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1, _, q3 = _quartiles(a)
    scale = abs(med_a) or 1.0
    if (q3 - q1) / scale > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "OK", share
        return "UNRESOLVED", share
    worse = sign * (med_b - med_a) / scale
    return ("REGRESSED" if worse > bound else "OK"), share


def _load_results(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("workloads"), dict):
        raise ValueError("not a results.json written by run.py --out")
    return data


def compare(path_a: str, path_b: str, defs: dict) -> int:
    try:
        a, b = _load_results(path_a), _load_results(path_b)
    except (OSError, ValueError) as exc:
        print(f"run.py compare: error: {exc}", file=sys.stderr)
        return 2
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<21} {'metric':<20} {'A median':>11} {'B median':>11} "
          f"{'A q1..q3':>23} {'B q1..q3':>23} {'bound':>6} {'B wins':>6}  verdict")
    regressed = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        for metric in defs["end_to_end"] + SIM_E2E:
            va, vb = metric_values(ra, metric["name"]), metric_values(rb, metric["name"])
            if not va or not vb:
                continue
            result, share = verdict(va, vb, metric["bound"], metric["better"])
            regressed += result == "REGRESSED"
            qa, qb = _quartiles(va), _quartiles(vb)
            print(f"{workload:<21} {metric['name']:<20} {_fmt(_median(va)):>11} "
                  f"{_fmt(_median(vb)):>11} {_fmt(qa[0]) + '..' + _fmt(qa[2]):>23} "
                  f"{_fmt(qb[0]) + '..' + _fmt(qb[2]):>23} {metric['bound']:>6.0%} "
                  f"{share:>6.0%}  {result}")
        same = ra["sha256"] == rb["sha256"]
        print(f"{workload:<21} records sha256 {'identical' if same else 'DIFFER'}")
    return 1 if regressed else 0


# -- command line -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: error: no model sources at {SRC}", file=sys.stderr)
        return 2
    defs = load_definitions()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], defs)

    parser = argparse.ArgumentParser(description="End-to-end benchmark of the NCAP model.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="time budget per workload; repeats start while one still fits")
    parser.add_argument("--repeats", type=int,
                        help="exact number of (timed or traced) repeats, instead of "
                             "--seconds; default 3")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced repeats")
    parser.add_argument("--quick", action="store_true", help="smaller batches")
    parser.add_argument("--out", help="directory for results.json")
    args = parser.parse_args(argv)
    if args.seconds is None and args.repeats is None:
        args.repeats = 3
    if (args.repeats is not None and args.repeats < 1) or (
        args.seconds is not None and args.seconds <= 0
    ):
        parser.error("--repeats and --seconds must be positive")

    if hasattr(os, "sched_setaffinity"):
        # Repeats inherit this: one CPU, so a repeat never migrates, and
        # the highest-numbered one, away from CPU 0 where a VM takes most
        # of its interrupt work.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = [args.workload] if args.workload else list(WORKLOADS)
    results, metrics = {}, {}
    for name in names:
        result = run_workload(name, args.seed, args.quick, bool(args.trace),
                              args.seconds, args.repeats)
        results[name] = result
        for metric, value in report(result, defs, bool(args.trace)).items():
            metrics[metric if args.workload else f"{name}.{metric}"] = value
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "quick": args.quick, "trace": bool(args.trace),
                       "workloads": results}, fh, indent=1)
    bad = [m for m, v in metrics.items() if not math.isfinite(v["value"])]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and not bad,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
