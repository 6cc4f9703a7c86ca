"""Shared experiment plumbing.

:class:`RunSettings` moved to :mod:`repro.harness.settings` when the sweep
harness grew underneath the experiment layer; it is re-exported here so
``from repro.experiments.common import RunSettings`` keeps working.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.apps.client import OpenLoopClient
from repro.cluster.simulation import Station, arm_window
from repro.cpu.energy import EnergyReport
from repro.harness.settings import RunSettings
from repro.metrics.latency import LatencyStats
from repro.net.switch import Switch
from repro.sim.kernel import Simulator


def run_star(
    sim: Simulator,
    server,
    clients: Sequence[OpenLoopClient],
    settings: RunSettings,
) -> Tuple[LatencyStats, EnergyReport]:
    """Run ``server`` and its ``clients`` as one station through the
    ``settings`` windows; the measurement window's latency and energy.

    For the experiments that bring their own server class or client
    type into the standard star.
    """
    station = Station(sim, Switch(sim), server, clients)
    window = (settings.warmup_ns, settings.warmup_ns + settings.measure_ns)
    station.start()
    arm_window(sim, [station], window)
    sim.run(until=window[1] + settings.drain_ns)
    return LatencyStats.from_values(station.window_rtts(window)), station.energy()


__all__ = ["RunSettings", "run_star"]
