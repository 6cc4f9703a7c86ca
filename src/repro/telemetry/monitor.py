"""Live heartbeat monitor for long sharded datacenter runs.

``repro datacenter --progress[=path]`` turns a multi-minute fleet run
from a silent wait into a stream of machine-readable JSONL status lines:
windows completed, fleet sim-time reached, per-shard events/s over the
last window, the current straggler, and a wall-clock ETA extrapolated
from progress so far.  ``path`` of ``-`` (the default) writes to stderr
so the heartbeat never mixes with report output on stdout; any other
path is truncated and then holds one run's JSONL (``begin`` first,
``end`` last) for CI or a dashboard to tail.

The monitor is a pure observer of coordinator state — it reads window
reports the coordinator already collected, writes outside the simulator,
and therefore cannot perturb simulated results (the parity suites hold
with it enabled).
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Dict, IO, Optional


class RunMonitor:
    """Emits one JSONL heartbeat per progress interval of a fleet run."""

    def __init__(
        self,
        out: str = "-",
        *,
        interval_s: float = 1.0,
        clock=time.monotonic,
    ):
        self._path = out
        self._interval_s = interval_s
        self._clock = clock
        self._fh: Optional[IO[str]] = None
        self._owns_fh = False
        self._t0 = 0.0
        self._last_emit = 0.0
        self._end_ns = 0
        self._n_windows = 0
        #: Every heartbeat payload emitted, in order (tests read these).
        self.emitted: list[Dict[str, Any]] = []

    # -- lifecycle -------------------------------------------------------

    def begin(self, *, n_windows: int, end_ns: int, n_shards: int) -> None:
        if self._path == "-":
            self._fh = sys.stderr
        else:
            self._fh = open(self._path, "w", encoding="utf-8")
            self._owns_fh = True
        self._t0 = self._clock()
        self._last_emit = self._t0 - self._interval_s  # emit on first window
        self._end_ns = end_ns
        self._n_windows = n_windows
        self._write(
            {
                "type": "begin",
                "n_windows": n_windows,
                "end_ns": end_ns,
                "n_shards": n_shards,
            }
        )

    def on_window(
        self,
        *,
        index: int,
        t_end_ns: int,
        shard_wall_s: Dict[int, float],
        shard_events: Dict[int, int],
        events_total: int,
    ) -> None:
        now = self._clock()
        # A degenerate run (n_windows <= 0) must not force every window to
        # look like "the last one" and flood heartbeats.
        last = self._n_windows > 0 and index + 1 >= self._n_windows
        if not last and now - self._last_emit < self._interval_s:
            return
        self._last_emit = now
        elapsed = now - self._t0
        frac = t_end_ns / self._end_ns if self._end_ns > 0 else 1.0
        frac = min(max(frac, 0.0), 1.0)
        # ETA only when there is a meaningful extrapolation: some progress
        # (frac > 0) AND some wall time (elapsed > 0 — a first window that
        # finishes inside one clock tick has neither), and the result must
        # be finite and non-negative.  Anything else reports null.
        eta_s = None
        if frac > 0.0 and elapsed > 0.0:
            candidate = elapsed * (1.0 - frac) / frac
            if math.isfinite(candidate) and candidate >= 0.0:
                eta_s = candidate
        straggler = (
            max(shard_wall_s, key=lambda s: (shard_wall_s[s], s))
            if shard_wall_s else None
        )
        per_shard = {
            str(s): round(shard_events.get(s, 0) / wall, 1) if wall else 0.0
            for s, wall in sorted(shard_wall_s.items())
        }
        self._write(
            {
                "type": "heartbeat",
                "windows_done": index + 1,
                "n_windows": self._n_windows,
                "sim_ns": t_end_ns,
                "end_ns": self._end_ns,
                "elapsed_s": round(elapsed, 3),
                "eta_s": round(eta_s, 3) if eta_s is not None else None,
                "events_total": events_total,
                "straggler": straggler,
                "shard_events_per_s": per_shard,
            }
        )

    def close(self, *, events_total: int) -> None:
        if self._fh is None:
            return
        self._write(
            {
                "type": "end",
                "elapsed_s": round(self._clock() - self._t0, 3),
                "events_total": events_total,
            }
        )
        if self._owns_fh:
            self._fh.close()
        self._fh = None

    # -- plumbing --------------------------------------------------------

    def _write(self, payload: Dict[str, Any]) -> None:
        self.emitted.append(payload)
        if self._fh is None:
            return
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()


def resolve_monitor(spec: Any) -> Optional[RunMonitor]:
    """Normalize a ``monitor=`` argument: None/False off, True/"-" stderr,
    a string path truncated for one run's JSONL, a RunMonitor as is."""
    if spec is None or spec is False:
        return None
    if spec is True:
        return RunMonitor("-")
    if isinstance(spec, str):
        return RunMonitor(spec)
    if isinstance(spec, RunMonitor):
        return spec
    raise TypeError(
        f"monitor must be None, bool, str or RunMonitor, "
        f"not {type(spec).__name__}"
    )


__all__ = ["RunMonitor", "resolve_monitor"]
