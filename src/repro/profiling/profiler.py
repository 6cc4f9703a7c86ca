"""The event-loop profiler: per-handler wall-time attribution.

:meth:`SimProfiler.attach` times one
:class:`~repro.sim.kernel.Simulator` from outside.  It sets wrappers of
the simulator's :data:`SCHEDULING` methods and of ``run`` as attributes
of that one object; the class and its dispatch loop are untouched.
Each handler is scheduled behind a trampoline that runs it and charges
it the wall time since the previous charge, so queue bookkeeping and
cancelled-event pops go to the next handler and the per-handler totals
telescope to the measured loop total.  Attribution state accumulates
across ``run()`` calls; :meth:`SimProfiler.profile` snapshots it into an
immutable, picklable :class:`LoopProfile`.

Handlers are keyed by the callable itself during the run (one dict
lookup per event) and folded into ``(qualname, subsystem)`` aggregates
lazily — at snapshot time, or early whenever the per-callable dict
exceeds :attr:`SimProfiler.fold_threshold` (so workloads that schedule
fresh closures per call cannot grow memory without bound).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

#: Bump when the serialized profile payload changes shape.
PROFILE_SCHEMA_VERSION = 2

#: The simulator methods that take a handler, wrapped by
#: :meth:`SimProfiler.attach`.  ``call_now`` and the slow path of
#: ``reschedule`` go through ``schedule_at``.
SCHEDULING = ("schedule", "schedule_at", "schedule_many", "schedule_batch")

#: Simulator counters a profile reports as deltas since ``attach``.
LOOP_COUNTERS = (
    "cancelled_pops", "cancelled_unlinked", "compactions", "compacted_events",
)


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def describe_handler(fn: Callable[..., Any]) -> Tuple[str, str]:
    """``(qualname, subsystem)`` for a dispatch-loop callable.

    Bound methods report their underlying function; ``functools.partial``
    chains unwrap to the wrapped callable.  The subsystem is the first
    package component under ``repro.`` (``net``, ``oskernel``, ``cpu``,
    ...), or the bare module name for anything else.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    target = getattr(fn, "__func__", fn)
    qualname = getattr(target, "__qualname__", None) or repr(target)
    module = getattr(target, "__module__", None) or "?"
    if module.startswith("repro."):
        parts = module.split(".")
        subsystem = parts[1] if len(parts) > 1 else "repro"
    else:
        subsystem = module
    return qualname, subsystem


@dataclass(frozen=True)
class HandlerStats:
    """One handler's aggregate cost."""

    qualname: str
    subsystem: str
    calls: int
    wall_ns: int

    @property
    def key(self) -> str:
        return f"{self.subsystem};{self.qualname}"


@dataclass
class LoopProfile:
    """An immutable snapshot of a profiled dispatch loop.

    Plain data: picklable, JSON-round-trippable, safe to hang off an
    :class:`~repro.cluster.simulation.ExperimentResult`.
    """

    #: Per-handler attribution, sorted by descending wall time.
    handlers: List[HandlerStats] = field(default_factory=list)
    #: Total wall time spent inside the profiled ``run()`` calls.
    loop_wall_ns: int = 0
    events: int = 0
    sim_ns: int = 0
    max_heap_depth: int = 0
    final_heap_size: int = 0
    cancelled_pops: int = 0
    #: Cancelled events unlinked at once from the heap's last slot
    #: (never entered the lazy-tombstone machinery).
    cancelled_unlinked: int = 0
    compactions: int = 0
    compacted_events: int = 0
    peak_rss_bytes: int = 0
    #: ``(wall_ns_since_first_loop, sim_ns, events)`` throughput samples.
    checkpoints: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def attributed_wall_ns(self) -> int:
        """Handler wall time; should telescope to :attr:`loop_wall_ns`
        within the loop's tail after the last handler."""
        return sum(h.wall_ns for h in self.handlers)

    @property
    def events_per_wall_s(self) -> float:
        if self.loop_wall_ns <= 0:
            return 0.0
        return self.events * 1e9 / self.loop_wall_ns

    @property
    def sim_ns_per_wall_s(self) -> float:
        """Simulated nanoseconds advanced per wall-clock second."""
        if self.loop_wall_ns <= 0:
            return 0.0
        return self.sim_ns * 1e9 / self.loop_wall_ns

    def top(self, n: int = 10) -> List[HandlerStats]:
        return self.handlers[:n]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "loop_wall_ns": self.loop_wall_ns,
            "events": self.events,
            "sim_ns": self.sim_ns,
            "events_per_wall_s": self.events_per_wall_s,
            "sim_ns_per_wall_s": self.sim_ns_per_wall_s,
            "max_heap_depth": self.max_heap_depth,
            "final_heap_size": self.final_heap_size,
            "cancelled_pops": self.cancelled_pops,
            "cancelled_unlinked": self.cancelled_unlinked,
            "compactions": self.compactions,
            "compacted_events": self.compacted_events,
            "peak_rss_bytes": self.peak_rss_bytes,
            "checkpoints": [list(c) for c in self.checkpoints],
            "handlers": [
                {
                    "qualname": h.qualname,
                    "subsystem": h.subsystem,
                    "calls": h.calls,
                    "wall_ns": h.wall_ns,
                }
                for h in self.handlers
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "LoopProfile":
        schema = data.get("schema")
        if schema != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"profile schema {schema!r} != {PROFILE_SCHEMA_VERSION}"
            )
        return cls(
            handlers=[
                HandlerStats(
                    qualname=h["qualname"],
                    subsystem=h["subsystem"],
                    calls=int(h["calls"]),
                    wall_ns=int(h["wall_ns"]),
                )
                for h in data.get("handlers", [])
            ],
            loop_wall_ns=int(data["loop_wall_ns"]),
            events=int(data["events"]),
            sim_ns=int(data["sim_ns"]),
            max_heap_depth=int(data.get("max_heap_depth", 0)),
            final_heap_size=int(data.get("final_heap_size", 0)),
            cancelled_pops=int(data.get("cancelled_pops", 0)),
            cancelled_unlinked=int(data.get("cancelled_unlinked", 0)),
            compactions=int(data.get("compactions", 0)),
            compacted_events=int(data.get("compacted_events", 0)),
            peak_rss_bytes=int(data.get("peak_rss_bytes", 0)),
            checkpoints=[tuple(c) for c in data.get("checkpoints", [])],
        )


class SimProfiler:
    """Accumulates handler attribution for one or more simulators.

    One profiler may be attached to several simulators that run one
    after another (the shards of a serial fleet run): calls, wall time
    and the loop counters sum over them, and ``sim_ns`` is the largest
    advance.
    """

    def __init__(self, checkpoint_every: int = 50_000, fold_threshold: int = 4096):
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        #: Events between throughput checkpoints.
        self.checkpoint_every = checkpoint_every
        #: Fold the per-callable dict into string aggregates past this
        #: size, bounding memory under per-call closure churn.
        self.fold_threshold = fold_threshold
        #: callable -> [calls, wall_ns]; folded lazily into ``_agg``.
        self._record: Dict[Callable[..., Any], List[int]] = {}
        self._agg: Dict[Tuple[str, str], List[int]] = {}
        self._countdown = checkpoint_every
        self._wall0_ns: Optional[int] = None
        #: ``(sim, now, counters)`` at each :meth:`attach`.
        self._attached: List[Tuple["Simulator", int, Tuple[int, ...]]] = []
        self.loop_wall_ns = 0
        self.events = 0
        self.max_heap_depth = 0
        self.checkpoints: List[Tuple[int, int, int]] = []

    def attach(self, sim: "Simulator") -> None:
        """Time every handler ``sim`` is given from now on.

        Attach before anything is scheduled: a handler scheduled before
        this call is not timed.  The wrappers live on ``sim`` alone and
        are never removed.  An event re-armed with ``reschedule`` already
        holds the trampoline and is not wrapped twice.
        """
        perf = perf_counter_ns
        record = self._record
        heap_size = sim.heap_size
        mark = 0

        def trampoline(fn: Callable[..., Any], *args: Any) -> None:
            nonlocal mark
            fn(*args)
            # Charge everything since the previous charge (or run start).
            now = perf()
            elapsed = now - mark
            mark = now
            entry = record.get(fn)
            if entry is None:
                record[fn] = [1, elapsed]
                if len(record) >= self.fold_threshold:
                    self._fold()
            else:
                entry[0] += 1
                entry[1] += elapsed
            self.events += 1
            depth = heap_size()
            if depth > self.max_heap_depth:
                self.max_heap_depth = depth
            self._countdown -= 1
            if self._countdown <= 0:
                self._countdown = self.checkpoint_every
                self.checkpoints.append((now - self._wall0_ns, sim.now, self.events))

        # Every SCHEDULING method takes ``(when, fn, *args)`` except
        # ``schedule_batch``, which takes ``(delay, count, fn, *args)``.
        def wrap(method: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(when: Any, fn: Callable[..., Any], *args: Any):
                if fn is trampoline:
                    return method(when, fn, *args)
                return method(when, trampoline, fn, *args)

            return wrapper

        def wrap_batch(method: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(delay: int, count: int, fn: Callable[..., Any], *args: Any):
                if fn is trampoline:
                    return method(delay, count, fn, *args)
                return method(delay, count, trampoline, fn, *args)

            return wrapper

        run = sim.run

        def timed_run(until: Optional[int] = None) -> int:
            nonlocal mark
            start = perf()
            if self._wall0_ns is None:
                self._wall0_ns = start
            mark = start
            try:
                return run(until)
            finally:
                self.loop_wall_ns += perf() - start

        for name in SCHEDULING:
            wrapped = (wrap_batch if name == "schedule_batch" else wrap)(getattr(sim, name))
            setattr(sim, name, wrapped)
        sim.run = timed_run
        self._attached.append(
            (sim, sim.now, tuple(getattr(sim, c) for c in LOOP_COUNTERS))
        )

    def _fold(self) -> None:
        """Collapse the per-callable dict into the string-keyed aggregate."""
        agg = self._agg
        for fn, (calls, wall_ns) in self._record.items():
            key = describe_handler(fn)
            entry = agg.get(key)
            if entry is None:
                agg[key] = [calls, wall_ns]
            else:
                entry[0] += calls
                entry[1] += wall_ns
        self._record.clear()

    # -- snapshot --------------------------------------------------------

    def profile(self) -> LoopProfile:
        """Snapshot everything accumulated so far."""
        self._fold()
        handlers = sorted(
            (
                HandlerStats(
                    qualname=qualname,
                    subsystem=subsystem,
                    calls=calls,
                    wall_ns=wall_ns,
                )
                for (qualname, subsystem), (calls, wall_ns) in self._agg.items()
            ),
            key=lambda h: (-h.wall_ns, h.key),
        )
        counters = dict.fromkeys(LOOP_COUNTERS, 0)
        for sim, _now0, before in self._attached:
            for name, value in zip(LOOP_COUNTERS, before):
                counters[name] += getattr(sim, name) - value
        return LoopProfile(
            handlers=handlers,
            loop_wall_ns=self.loop_wall_ns,
            events=self.events,
            sim_ns=max(
                (sim.now - now0 for sim, now0, _ in self._attached), default=0
            ),
            max_heap_depth=self.max_heap_depth,
            final_heap_size=sum(sim.heap_size() for sim, _, _ in self._attached),
            peak_rss_bytes=peak_rss_bytes(),
            checkpoints=list(self.checkpoints),
            **counters,
        )
