"""Window/imbalance profiler for the sharded datacenter coordinator.

ROADMAP item 2 calls out that "shard imbalance sets the critical path" of
a sharded run — this module is the instrument that measures it.  The
coordinator's conservative-window loop is timed per window and per phase
(injection planning, the advance barrier, boundary observe/merge), and
every shard reports its own wall time and event count for each window.
From those samples the profiler derives the quantities a work-stealing or
share-aware shard planner would need to justify itself:

- **critical path** — ``Σ_w max_shard wall(w)``: the serialized time the
  lockstep barrier actually pays, window by window;
- **load-imbalance factor** — max over shards of total wall divided by
  the mean: 1.0 is perfect balance;
- **critical-path share** — per shard, the fraction of the critical path
  contributed by the windows it straggled;
- **speedup bound** — total shard work over the critical path: the best
  parallel speedup any placement of these shards could achieve at the
  measured per-window balance (compare against the observed 7.53×);
- **pool-slot utilization** — how busy the worker slots were while the
  barrier waited for the slowest one.

All of it is wall-clock observer data: it lives on
:class:`~repro.cluster.datacenter.DatacenterResult` (like its per-shard
``shards``) and never enters the ResultRecord, whose contents stay a pure function of
the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.tracing import WINDOW_PID, lane_metadata_events


@dataclass
class WindowSample:
    """One conservative window as the coordinator and shards saw it."""

    index: int
    t_start_ns: int
    t_end_ns: int
    #: Coordinator phase wall times for this window (seconds).
    plan_s: float
    advance_s: float
    observe_s: float
    #: Per-shard wall seconds and handled events inside the advance.
    shard_wall_s: Dict[int, float]
    shard_events: Dict[int, int]
    #: Dispatches planned for this window.
    injections: int

    @property
    def straggler(self) -> int:
        """The shard whose advance took longest this window."""
        return max(self.shard_wall_s, key=lambda s: (self.shard_wall_s[s], s))

    @property
    def max_shard_wall_s(self) -> float:
        return max(self.shard_wall_s.values(), default=0.0)


@dataclass
class FleetProfile:
    """Accumulated per-window samples plus the derived imbalance report."""

    n_shards: int
    n_slots: int
    windows: List[WindowSample] = field(default_factory=list)

    def record(self, sample: WindowSample) -> None:
        self.windows.append(sample)

    def slot_of_shard(self, shard: int) -> int:
        return shard % self.n_slots

    # -- derived metrics -------------------------------------------------

    @property
    def shard_wall_totals(self) -> Dict[int, float]:
        totals = {s: 0.0 for s in range(self.n_shards)}
        for w in self.windows:
            for s, wall in w.shard_wall_s.items():
                totals[s] = totals.get(s, 0.0) + wall
        return totals

    @property
    def shard_event_totals(self) -> Dict[int, int]:
        totals = {s: 0 for s in range(self.n_shards)}
        for w in self.windows:
            for s, n in w.shard_events.items():
                totals[s] = totals.get(s, 0) + n
        return totals

    @property
    def total_shard_wall_s(self) -> float:
        return sum(self.shard_wall_totals.values())

    @property
    def critical_path_s(self) -> float:
        """Σ over windows of the slowest shard's wall time."""
        return sum(w.max_shard_wall_s for w in self.windows)

    @property
    def load_imbalance_factor(self) -> float:
        """Max shard total wall over the mean (1.0 = perfectly balanced)."""
        totals = list(self.shard_wall_totals.values())
        if not totals or sum(totals) == 0.0:
            return 1.0
        return max(totals) / (sum(totals) / len(totals))

    @property
    def speedup_bound(self) -> float:
        """Best parallel speedup this work could see at perfect placement."""
        critical = self.critical_path_s
        if critical == 0.0:
            return float(self.n_shards)
        return self.total_shard_wall_s / critical

    @property
    def critical_path_share(self) -> Dict[int, float]:
        """Per shard: fraction of the critical path where it straggled."""
        critical = self.critical_path_s
        shares = {s: 0.0 for s in range(self.n_shards)}
        if critical == 0.0:
            return shares
        for w in self.windows:
            shares[w.straggler] = (
                shares.get(w.straggler, 0.0) + w.max_shard_wall_s / critical
            )
        return shares

    @property
    def straggler_windows(self) -> Dict[int, int]:
        counts = {s: 0 for s in range(self.n_shards)}
        for w in self.windows:
            counts[w.straggler] = counts.get(w.straggler, 0) + 1
        return counts

    @property
    def pool_slot_utilization(self) -> float:
        """Shard busy time over slot capacity during the barrier waits.

        Slot capacity per window is ``n_slots × max_slot busy(w)`` (the
        barrier holds every slot until the slowest one finishes); shards
        mapped to the same slot run serially inside it.
        """
        capacity = 0.0
        busy = 0.0
        for w in self.windows:
            slot_busy = {slot: 0.0 for slot in range(self.n_slots)}
            for s, wall in w.shard_wall_s.items():
                slot = self.slot_of_shard(s)
                slot_busy[slot] = slot_busy.get(slot, 0.0) + wall
            window_max = max(slot_busy.values(), default=0.0)
            capacity += self.n_slots * window_max
            busy += sum(slot_busy.values())
        if capacity == 0.0:
            return 1.0
        return busy / capacity

    @property
    def coordinator_s(self) -> Dict[str, float]:
        plan = sum(w.plan_s for w in self.windows)
        advance = sum(w.advance_s for w in self.windows)
        observe = sum(w.observe_s for w in self.windows)
        #: The advance phase is the barrier: coordinator wall beyond the
        #: slowest shard's own work is wait + IPC overhead.
        barrier_wait = sum(
            max(0.0, w.advance_s - w.max_shard_wall_s) for w in self.windows
        )
        return {
            "plan_s": plan,
            "advance_s": advance,
            "observe_s": observe,
            "barrier_wait_s": barrier_wait,
        }

    # -- export ----------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        coord = self.coordinator_s
        return {
            "n_shards": self.n_shards,
            "n_slots": self.n_slots,
            "n_windows": len(self.windows),
            "critical_path_s": self.critical_path_s,
            "total_shard_wall_s": self.total_shard_wall_s,
            "load_imbalance_factor": self.load_imbalance_factor,
            "speedup_bound": self.speedup_bound,
            "pool_slot_utilization": self.pool_slot_utilization,
            "coordinator": coord,
            "shards": {
                str(s): {
                    "wall_s": self.shard_wall_totals.get(s, 0.0),
                    "events": self.shard_event_totals.get(s, 0),
                    "straggler_windows": self.straggler_windows.get(s, 0),
                    "critical_path_share": self.critical_path_share.get(s, 0.0),
                    "slot": self.slot_of_shard(s),
                }
                for s in range(self.n_shards)
            },
            "windows": [
                {
                    "index": w.index,
                    "t_start_ns": w.t_start_ns,
                    "t_end_ns": w.t_end_ns,
                    "plan_s": w.plan_s,
                    "advance_s": w.advance_s,
                    "observe_s": w.observe_s,
                    "injections": w.injections,
                    "straggler": w.straggler,
                    "shard_wall_s": {
                        str(s): wall for s, wall in sorted(w.shard_wall_s.items())
                    },
                    "shard_events": {
                        str(s): n for s, n in sorted(w.shard_events.items())
                    },
                }
                for w in self.windows
            ],
        }


def window_trace_events(profile: FleetProfile) -> List[Dict[str, Any]]:
    """The window timeline as a wall-clock Chrome-trace lane.

    Lane pid is :data:`~repro.telemetry.tracing.WINDOW_PID`; tid 0 is the
    coordinator's plan/advance/observe phases, tid ``1+s`` shows shard
    ``s``'s busy span inside each window's barrier.  Timestamps are
    cumulative coordinator wall time in µs, so the lane composes with the
    self-profiler's wall lane rather than the simulated-time lanes.
    """
    events: List[Dict[str, Any]] = []
    threads: Dict[int, str] = {0: "coordinator"}
    cursor_us = 0.0

    def span(name: str, cat: str, start_us: float, dur_us: float,
             tid: int, args: Dict[str, Any]) -> None:
        events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start_us,
                "dur": dur_us,
                "pid": WINDOW_PID,
                "tid": tid,
                "args": args,
            }
        )

    for w in profile.windows:
        win_args = {
            "window": w.index,
            "t_start_ns": w.t_start_ns,
            "t_end_ns": w.t_end_ns,
            "straggler": w.straggler,
        }
        plan_us = w.plan_s * 1e6
        advance_us = w.advance_s * 1e6
        observe_us = w.observe_s * 1e6
        span(f"plan w{w.index}", "coordinator", cursor_us, plan_us, 0,
             {**win_args, "injections": w.injections})
        barrier_start = cursor_us + plan_us
        span(f"advance w{w.index}", "coordinator", barrier_start, advance_us,
             0, win_args)
        for s, wall in sorted(w.shard_wall_s.items()):
            threads[1 + s] = f"shard {s}"
            span(
                f"shard{s} w{w.index}", "shard", barrier_start, wall * 1e6,
                1 + s,
                {"window": w.index, "wall_s": wall,
                 "events": w.shard_events.get(s, 0)},
            )
        span(f"observe w{w.index}", "coordinator",
             barrier_start + advance_us, observe_us, 0, win_args)
        cursor_us = barrier_start + advance_us + observe_us

    events.extend(
        lane_metadata_events(WINDOW_PID, "fleet windows (wall clock)", threads)
    )
    return events


def format_fleet_profile(
    profile: FleetProfile, measured_speedup: Optional[float] = None
) -> str:
    """Plain-text imbalance report for ``repro datacenter --profile-fleet``."""
    from repro.metrics.report import format_table

    coord = profile.coordinator_s
    wall_totals = profile.shard_wall_totals
    event_totals = profile.shard_event_totals
    shares = profile.critical_path_share
    straggles = profile.straggler_windows
    rows = []
    for s in sorted(wall_totals):
        wall = wall_totals[s]
        rows.append(
            [
                s,
                profile.slot_of_shard(s),
                round(wall, 3),
                event_totals.get(s, 0),
                round(event_totals.get(s, 0) / wall / 1e6, 3) if wall else 0.0,
                straggles.get(s, 0),
                f"{100.0 * shares.get(s, 0.0):.1f}%",
            ]
        )
    table = format_table(
        ["shard", "slot", "wall (s)", "events", "Mev/s",
         "straggled", "critical-path share"],
        rows,
        title=(
            f"Fleet window profile — {len(profile.windows)} windows, "
            f"{profile.n_shards} shards on {profile.n_slots} slots"
        ),
    )
    lines = [table, ""]
    lines.append(
        f"load-imbalance factor : {profile.load_imbalance_factor:.3f} "
        f"(max shard wall / mean)"
    )
    lines.append(
        f"critical path         : {profile.critical_path_s:.3f} s of "
        f"{profile.total_shard_wall_s:.3f} s total shard work"
    )
    bound = profile.speedup_bound
    vs = f" (measured {measured_speedup:.2f}x)" if measured_speedup else ""
    lines.append(
        f"speedup bound         : {bound:.2f}x at this per-window balance{vs}"
    )
    lines.append(
        f"pool-slot utilization : {100.0 * profile.pool_slot_utilization:.1f}%"
    )
    lines.append(
        "coordinator           : "
        f"plan {coord['plan_s']:.3f} s, advance {coord['advance_s']:.3f} s "
        f"(barrier wait {coord['barrier_wait_s']:.3f} s), "
        f"observe/merge {coord['observe_s']:.3f} s"
    )
    return "\n".join(lines)


__all__ = [
    "FleetProfile",
    "WindowSample",
    "format_fleet_profile",
    "window_trace_events",
]
