"""Simulator self-profiling: where does *wall-clock* time go?

The rest of the repo observes the simulated system (telemetry, critical
paths, flight recorder); this package observes the simulator.
:meth:`SimProfiler.attach` wraps one simulator's scheduling methods from
outside, so every handler attributes its wall time and event count
(keyed by callable qualname and owner subsystem), and reads the
simulator's queue-health counters — a simulator with no profiler
attached runs the kernel's one dispatch loop untouched.

Exporters turn a finished :class:`LoopProfile` into a top-N handler
table, collapsed-stack text for flamegraph tooling, and a wall-clock
lane for the existing Chrome-trace export.

    from repro.profiling import SimProfiler

    profiler = SimProfiler()
    profiler.attach(sim)  # before anything is scheduled
    sim.run()
    print(format_top_handlers(profiler.profile()))
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".export": ("collapsed_stacks", "format_top_handlers", "wall_clock_trace_events"),
    ".profiler": (
        "PROFILE_SCHEMA_VERSION", "HandlerStats", "LoopProfile", "SimProfiler",
        "peak_rss_bytes",
    ),
})
