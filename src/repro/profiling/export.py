"""Profile exporters: handler tables, collapsed stacks, wall-clock lane.

Three views of one :class:`~repro.profiling.profiler.LoopProfile`:

- :func:`format_top_handlers` — a plain-text top-N table (the bench
  reports embed it);
- :func:`collapsed_stacks` — ``subsystem;qualname <wall_us>`` lines, the
  folded-stack format flamegraph tooling (``flamegraph.pl``, speedscope,
  inferno) consumes directly;
- :func:`wall_clock_trace_events` — Chrome Trace Event Format entries on
  a dedicated wall-clock process lane, mergeable into the existing
  :class:`~repro.telemetry.ChromeTraceSink` export via
  :meth:`~repro.telemetry.ChromeTraceSink.add_profile` (every other lane
  in that export runs on *simulated* time; this one runs on wall time:
  throughput counters from the profiler's checkpoints plus a stacked bar
  of the top handlers' cumulative wall cost).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.metrics.report import format_table
from repro.profiling.profiler import LoopProfile

#: pid for the wall-clock lane; the sim-time lanes use pid 1.
WALL_PID = 2


def format_top_handlers(
    profile: LoopProfile, n: int = 15, title: str = "Top handlers by wall time"
) -> str:
    """A fixed-width top-N handler table."""
    total = max(profile.loop_wall_ns, 1)
    rows = [
        [
            h.subsystem,
            h.qualname,
            h.calls,
            round(h.wall_ns / 1e6, 3),
            round(h.wall_ns / max(h.calls, 1)),
            f"{100.0 * h.wall_ns / total:.1f}%",
        ]
        for h in profile.top(n)
    ]
    return format_table(
        ["subsystem", "handler", "calls", "wall (ms)", "ns/call", "share"],
        rows,
        title=title,
    )


def collapsed_stacks(profile: LoopProfile) -> str:
    """Folded-stack text: one ``subsystem;qualname <weight>`` line each.

    Weights are integer microseconds of attributed wall time (the
    conventional sample unit for folded stacks); handlers whose total
    rounds to zero are kept at weight 1 so they stay visible.
    """
    lines = []
    for h in profile.handlers:
        weight = max(1, round(h.wall_ns / 1000))
        lines.append(f"{h.subsystem};{h.qualname} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def wall_clock_trace_events(
    profile: LoopProfile, top_n: int = 10, pid: int = WALL_PID
) -> List[Dict[str, Any]]:
    """Chrome-trace events for the wall-clock lane.

    Timestamps are wall microseconds since the first profiled loop
    started (the sim-time lanes use simulated microseconds; keeping the
    lanes on separate pids keeps the axes from being conflated).
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": 0,
            "args": {"name": "wall-clock (simulator profile)"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": 0,
            "args": {"name": "throughput"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": 1,
            "args": {"name": "handlers (cumulative wall time)"},
        },
    ]
    prev_wall, prev_events, prev_sim = 0, 0, 0
    for wall_ns, sim_ns, n_events in profile.checkpoints:
        d_wall = wall_ns - prev_wall
        if d_wall <= 0:
            continue
        events.append(
            {
                "name": "events/sec",
                "cat": "profile",
                "ph": "C",
                "ts": wall_ns / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {"rate": (n_events - prev_events) * 1e9 / d_wall},
            }
        )
        events.append(
            {
                "name": "sim-ns/wall-s",
                "cat": "profile",
                "ph": "C",
                "ts": wall_ns / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {"rate": (sim_ns - prev_sim) * 1e9 / d_wall},
            }
        )
        prev_wall, prev_events, prev_sim = wall_ns, n_events, sim_ns
    offset_ns = 0
    for h in profile.top(top_n):
        events.append(
            {
                "name": h.qualname,
                "cat": "profile",
                "ph": "X",
                "ts": offset_ns / 1e3,
                "dur": h.wall_ns / 1e3,
                "pid": pid,
                "tid": 1,
                "args": {
                    "subsystem": h.subsystem,
                    "calls": h.calls,
                    "ns_per_call": h.wall_ns / max(h.calls, 1),
                },
            }
        )
        offset_ns += h.wall_ns
    return events
