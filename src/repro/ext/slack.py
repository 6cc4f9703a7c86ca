"""A latency-slack controller in the spirit of Pegasus / TimeTrader.

Section 7 of the paper: "NCAP exhibit[s] some slack between the achieved
95th-percentile latency and the SLA.  This slack can be exploited for
further reduction of energy consumption using other techniques [12, 34]."

This controller is that technique, implemented the way Pegasus operates:
a feedback loop over *server-observed* request latencies that adjusts a
performance cap (``scaling_max_freq``) on the cpufreq driver:

- p95 comfortably below ``target`` x SLA  → deepen the cap one step
  (cores may no longer run at the fastest states);
- p95 above ``guard`` x SLA               → lift the cap entirely
  (full P0 available again, the "panic" action).

NCAP continues to work underneath: its IT_HIGH boost simply saturates at
the capped state, so the two mechanisms compose exactly as the paper
suggests.

The window's p95 is :func:`~repro.metrics.latency.linear_percentile`,
numpy's default percentile rule in standard-library Python.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.latency import linear_percentile
from repro.oskernel.cpufreq import CpufreqDriver
from repro.oskernel.irq import IRQController
from repro.oskernel.timers import PeriodicKernelTask
from repro.sim.kernel import Simulator
from repro.sim.units import MS


class SlackController:
    """Feedback loop: latency slack -> performance cap."""

    def __init__(
        self,
        sim: Simulator,
        cpufreq: CpufreqDriver,
        irq: IRQController,
        sla_ns: int,
        target: float = 0.65,
        guard: float = 0.90,
        period_ns: int = 50 * MS,
        min_samples: int = 50,
        overhead_cycles: float = 20_000.0,
        core_id: int = 0,
    ):
        if not 0 < target < guard <= 1.5:
            raise ValueError("need 0 < target < guard")
        self._sim = sim
        self._cpufreq = cpufreq
        self.sla_ns = sla_ns
        self.target = target
        self.guard = guard
        self.min_samples = min_samples
        self._window: List[int] = []
        self._task = PeriodicKernelTask(
            sim, irq, period_ns, overhead_cycles, self._adjust,
            core_id=core_id, name="slack-ctl",
        )
        self.steps_down = 0
        self.panics = 0
        self.last_p95_ns: Optional[float] = None

    # -- wiring -----------------------------------------------------------

    def observe(self, latency_ns: int) -> None:
        """Feed one server-observed request latency (wire this into
        ``ServerApp.latency_listeners``)."""
        self._window.append(latency_ns)

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    # -- control law ----------------------------------------------------------

    def _adjust(self) -> None:
        if len(self._window) < self.min_samples:
            self._window.clear()
            return
        p95 = linear_percentile(sorted(self._window), 95)
        self._window.clear()
        self.last_p95_ns = p95
        table = self._cpufreq.package.pstates
        if p95 > self.guard * self.sla_ns:
            # Panic: restore the full frequency range and go there now.
            self.panics += 1
            self._cpufreq.set_cap(0)
            self._cpufreq.set_pstate(0)
        elif p95 < self.target * self.sla_ns:
            cap = self._cpufreq.cap_index
            if cap < table.max_index:
                self.steps_down += 1
                self._cpufreq.set_cap(cap + 1)
