"""One repeat of one workload, in a fresh single-threaded interpreter.

``run.py`` starts this script once per repeat and reads the JSON object
it prints on its last stdout line.  ``--t0`` is the parent's
``time.monotonic()`` just before the launch, so set-up time covers
interpreter start, imports, config and topology build.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


class RunProbe:
    """Times every ``Simulator.run`` call in the process (every shard of a
    fleet included) and counts the events it dispatched."""

    def __init__(self) -> None:
        from repro.sim.kernel import Simulator

        self.first_run = None
        self.run_s = 0.0
        self.events = 0
        self.cancelled = 0
        run = Simulator.run

        def timed_run(sim, until=None):
            start = time.monotonic()
            if self.first_run is None:
                self.first_run = start
            events = sim.events_executed
            cancelled = sim.cancelled_pops + sim.cancelled_unlinked
            try:
                return run(sim, until)
            finally:
                self.run_s += time.monotonic() - start
                self.events += sim.events_executed - events
                self.cancelled += sim.cancelled_pops + sim.cancelled_unlinked - cancelled

        Simulator.run = timed_run


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def layer_metrics(
    tracer, probe: RunProbe, outcome, work_dir: str, problems: List[str]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of a traced repeat, and the trace's own totals.

    ``sim.events_per_s`` and ``trace.overhead`` need an untraced repeat;
    run.py adds them.
    """
    from tracer import LAYERS, UNATTRIBUTED, handler_cost_ns

    self_ns = dict(tracer.self_ns)
    handler_spans = sum(tracer.handlers.values())
    correction = min(self_ns["sim"], handler_cost_ns() * handler_spans)
    self_ns["sim"] -= correction
    if handler_spans != probe.events:
        problems.append(
            f"tracer saw {handler_spans} handler calls but the kernel "
            f"dispatched {probe.events} events"
        )
    counters: Counter = Counter()
    cstate_entries = 0
    for record in outcome.records:
        counters.update(record.counters)
        cstate_entries += sum(record.cstate_entries.values())
    profiles = outcome.fleet_profiles

    def s(layer: str) -> float:
        return self_ns[layer] / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {f"{layer}.self_s": s(layer) for layer in LAYERS}
    metrics.update({
        "sim.events": probe.events,
        "sim.cancelled_share": ratio(probe.cancelled, probe.events + probe.cancelled),
        "net.link.frames": tracer.link_frames,
        "net.link.events_per_frame": ratio(tracer.handlers["net.link"], tracer.link_frames),
        "net.nic.rx_frames": counters["nic.rx.frames"],
        "net.nic.rx_drop_share": ratio(counters["nic.rx.dropped_frames"], counters["nic.rx.frames"]),
        "net.driver.hardirqs": counters["driver.hardirqs"],
        "net.driver.frames_per_poll": ratio(
            counters["driver.frames_delivered"], counters["driver.napi_polls"]
        ),
        "core.ticks": counters["ncap.ticks"],
        "core.inspected": counters["ncap.inspected"],
        "oskernel.gov.idle_selections": sum(
            v for k, v in counters.items()
            if k.startswith("governor.") and k.endswith(".selections")
        ),
        "oskernel.gov.promotions": counters["cpuidle.promotions"],
        "oskernel.gov.pstate_transitions": counters["cpu.pstate.transitions"],
        "cpu.events": tracer.handlers["cpu"],
        "cpu.us_per_event": ratio(s("cpu") * 1e6, tracer.handlers["cpu"]),
        "cpu.cstate_entries": cstate_entries,
        "apps.requests": counters["app.requests"],
        "telemetry.calls": tracer.spans["telemetry"],
        "cluster.build_s": tracer.timed_ns["build"] / 1e9,
        "cluster.windows": sum(len(p.windows) for p in profiles),
        "cluster.lif": max((p.load_imbalance_factor for p in profiles), default=1.0),
        "harness.record_s": tracer.timed_ns["record"] / 1e9,
        "harness.cache_write_s": tracer.timed_ns["cache_write"] / 1e9,
        "harness.cache_read_s": tracer.timed_ns["cache_read"] / 1e9,
        "harness.record_bytes": sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(work_dir) for f in files
        ),
        "trace.unattributed_share": ratio(self_ns[UNATTRIBUTED], tracer.root_ns),
    })
    barrier = sum(p.coordinator_s["barrier_wait_s"] for p in profiles)
    return metrics, {
        "layers_s": sum(self_ns.values()) / 1e9,
        "calibrated_s": correction / 1e9,
        "traced_total_s": tracer.root_ns / 1e9,
        "unattributed_s": s(UNATTRIBUTED),
        "cluster.barrier_wait_s": barrier,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads

    probe = RunProbe()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    batch = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    outcome = workloads.run_batch(batch, args.work, tracer)
    end = time.monotonic()

    problems = outcome.problems
    requests = sum(r.responses_received for r in outcome.records)
    sim_s = sum(r.sim_s for r in outcome.runs if r.record is not None)
    first_run = probe.first_run if probe.first_run is not None else end
    metrics = {
        "setup_s": first_run - args.t0,
        "wall_s": end - args.t0,
        "wall_s_per_sim_s": probe.run_s / sim_s if sim_s else 0.0,
        "wall_us_per_request": (end - first_run) / max(requests, 1) * 1e6,
        "peak_rss_mb": _peak_rss_mb(),
        **workloads.sim_metrics(outcome),
        "failed_share": outcome.failed / max(outcome.attempted, 1),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "events": probe.events,
        "run_s": probe.run_s,
        "sha256": outcome.sha256(),
        "energy_deviation": outcome.energy_deviation,
        "fidelity": workloads.fidelity(outcome),
    }
    if tracer is not None:
        result["layers"], result["trace"] = layer_metrics(
            tracer, probe, outcome, args.work, problems
        )
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
