"""Energy accounting over measurement windows."""

from __future__ import annotations

from repro.cpu.energy import EnergyReport


def energy_delta(start: EnergyReport, end: EnergyReport) -> EnergyReport:
    """Energy/residency accumulated between two snapshots of the same meter.

    :class:`PowerMeter` reports are cumulative, so a measurement window is
    simply the difference of its end and start snapshots.
    """
    delta = EnergyReport(energy_j=end.energy_j - start.energy_j)
    for key, value in end.residency_ns.items():
        diff = value - start.residency_ns.get(key, 0)
        if diff:
            delta.residency_ns[key] = diff
    for key, value in end.energy_by_mode_j.items():
        diff = value - start.energy_by_mode_j.get(key, 0.0)
        if abs(diff) > 1e-15:
            delta.energy_by_mode_j[key] = diff
    return delta


def average_power_w(report: EnergyReport, window_ns: int) -> float:
    """Mean power over the window the report covers."""
    if window_ns <= 0:
        raise ValueError("window must be positive")
    return report.energy_j / (window_ns * 1e-9)

