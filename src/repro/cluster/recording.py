"""Standard flight-recorder wiring for a :class:`~repro.cluster.node.ServerNode`.

:func:`build_server_recorder` declares the canonical per-server series —
the quantities every figure and the dashboard timeline panels read:

==================  ====================================================
``cpu.freq_ghz``    package operating frequency (GHz, gauge)
``core<i>.cstate``  per-core C-state table index (0 = awake, gauge)
``cpu.util``        mean core utilization over the last interval (gauge)
``power.watts``     mean package power over the last interval (gauge)
``runq.depth``      run-queue depth across cores (gauge)
``nic.rx_ring``     rx descriptor-ring occupancy (gauge)
``nic.rx.bytes``    cumulative wire bytes received (counter)
``nic.tx.bytes``    cumulative wire bytes transmitted (counter)
``app.requests``    cumulative requests accepted by the app (counter)
``app.responses``   cumulative responses produced by the app (counter)
==================  ====================================================

Utilization and power are *windowed* gauges: closures snapshot the
package's cumulative busy-ns / energy at each tick and record the delta
over the elapsed interval.  At a 1 ms cadence these are the series the
paper's Figure 4 and the Figure 8/9 snapshots plot; exact per-transition
data (every P-state or C-state change) comes from the probe bus instead.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.telemetry.recorder import RecorderConfig, TimeSeriesRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ServerNode
    from repro.sim.kernel import Simulator

#: Registry counters sampled cumulatively on every server recorder.
STANDARD_COUNTERS = (
    "nic.rx.bytes",
    "nic.tx.bytes",
    "app.requests",
    "app.responses",
)


def utilization_source(package, interval_ns: int):
    """Mean core utilization over each elapsed interval, clamped to 1.

    The delta of cumulative busy-ns since the previous tick, averaged
    across cores and normalized by the sampling interval.
    """
    state = {"busy": package.busy_ns_per_core()}

    def sample() -> float:
        busy = package.busy_ns_per_core()
        last = state["busy"]
        state["busy"] = busy
        deltas = [b - prev for b, prev in zip(busy, last)]
        return min(1.0, sum(deltas) / (len(deltas) * interval_ns))

    return sample


def power_source(package, interval_ns: int):
    """Mean package power (W) over each elapsed interval.

    Differencing the cumulative energy account gives the exact mean over
    the interval — no assumption that power was constant within it.
    """
    state = {"energy_j": package.energy_report().energy_j}

    def sample() -> float:
        energy_j = package.energy_report().energy_j
        delta = energy_j - state["energy_j"]
        state["energy_j"] = energy_j
        return delta * 1e9 / interval_ns

    return sample


def cstate_source(core):
    """The core's current C-state table index (0 while awake)."""

    def sample() -> float:
        cstate = core.current_cstate
        return float(cstate.index) if cstate is not None else 0.0

    return sample


def build_server_recorder(
    sim: "Simulator",
    server: "ServerNode",
    config: Optional[RecorderConfig] = None,
) -> TimeSeriesRecorder:
    """A recorder pre-loaded with the standard series for ``server``.

    The recorder is returned un-started so callers can add extra sources
    first.
    """
    config = config or RecorderConfig.coarse()
    recorder = TimeSeriesRecorder(
        sim, telemetry=server.telemetry, interval_ns=config.interval_ns
    )
    package = server.package

    recorder.add_source("cpu.freq_ghz", lambda: package.frequency_hz / 1e9)
    for i, core in enumerate(package.cores):
        recorder.add_source(f"core{i}.cstate", cstate_source(core))

    recorder.add_source("cpu.util", utilization_source(package, config.interval_ns))
    recorder.add_source("power.watts", power_source(package, config.interval_ns))
    recorder.add_source("runq.depth", lambda: float(server.scheduler.queue_depth))
    recorder.add_source("nic.rx_ring", lambda: float(server.nic.rx_pending))

    registry = server.telemetry.stats
    for name in STANDARD_COUNTERS:
        if registry.get(name) is not None:
            recorder.add_stat(name)
    return recorder
