"""A processor package: cores sharing one clock/voltage domain.

Matching the paper's i7-3770-like setup (and its single-queue NIC), DVFS is
**chip-wide**: all cores share the P-state, while C-states are per-core.
A per-core-DVFS variant (the paper's Section 7 multi-queue discussion) is
provided by constructing one single-core domain per core — see
``repro.cluster.node``.

P-state transitions follow :class:`repro.cpu.pstates.DVFSTimingModel`:
voltage ramps first on an upward transition (cores keep running), then all
cores halt for the PLL relock window, then the new frequency takes effect.
Requests arriving mid-transition are coalesced: the latest target wins and
is applied after the in-flight transition completes.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cpu.core import Core
from repro.cpu.cstates import CStateTable
from repro.cpu.energy import EnergyReport, PowerMeter
from repro.cpu.power import PowerModel
from repro.cpu.pstates import DVFSTimingModel, PStateTable
from repro.sim.kernel import Simulator
from repro.telemetry import PStateChange, Telemetry, ensure_telemetry


class ClockDomain:
    """Cores under one shared V/F domain with ACPI-style P-state control."""

    def __init__(
        self,
        sim: Simulator,
        n_cores: int,
        pstates: PStateTable,
        cstates: CStateTable,
        power_model: PowerModel,
        dvfs_timing: Optional[DVFSTimingModel] = None,
        initial_pstate: int = 0,
        name: str = "cpu",
        core_id_base: int = 0,
        telemetry: Optional[Telemetry] = None,
    ):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self._sim = sim
        self.name = name
        self.pstates = pstates
        self.cstates = cstates
        self.power_model = power_model
        self.dvfs_timing = dvfs_timing or DVFSTimingModel()
        self._index = pstates.clamp_index(initial_pstate)
        #: The operating point of ``pstate_index``, kept as plain attributes
        #: (read on every core power transition) and refreshed per switch.
        self.frequency_hz: float = pstates[self._index].freq_hz
        self.voltage: float = pstates[self._index].voltage
        self.telemetry = ensure_telemetry(telemetry)
        self._pstate_probe = self.telemetry.probe("cpu.pstate")
        self._transitions = self.telemetry.counter("cpu.pstate.transitions")
        self._transition_target: Optional[int] = None
        self._queued_target: Optional[int] = None
        #: Called with the new P-state index after each completed switch
        #: (e.g. the NCAP driver mirroring CPU state into a NIC register).
        self.pstate_listeners: List[Callable[[int], None]] = []

        self.cores: List[Core] = [
            Core(sim, core_id_base + i, self, PowerMeter(sim, power_model))
            for i in range(n_cores)
        ]
        if self._pstate_probe.enabled:
            self._pstate_probe.emit(
                PStateChange(sim.now, name, self._index, self.frequency_hz)
            )

    # -- operating point -----------------------------------------------------

    @property
    def transitions(self) -> int:
        """Completed DVFS switches across the whole telemetry scope."""
        return int(self._transitions.value)

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def pstate_index(self) -> int:
        return self._index

    @property
    def max_frequency_hz(self) -> float:
        return self.pstates.p0.freq_hz

    @property
    def at_max_performance(self) -> bool:
        """True when already at P0 (and not heading elsewhere)."""
        target = self.effective_target_index
        return target == 0

    @property
    def transition_in_progress(self) -> bool:
        return self._transition_target is not None

    @property
    def effective_target_index(self) -> int:
        """Where the domain will settle once in-flight work completes."""
        if self._queued_target is not None:
            return self._queued_target
        if self._transition_target is not None:
            return self._transition_target
        return self._index

    # -- P-state control -------------------------------------------------------

    def set_pstate(self, index: int) -> None:
        """Request a transition to P-state ``index`` (clamped).

        No-op if the domain is already at (or heading to) that state.
        If a transition is in flight, the request is queued (latest wins).
        """
        index = self.pstates.clamp_index(index)
        if self._transition_target is not None:
            if index != self._transition_target:
                self._queued_target = index
            else:
                self._queued_target = None
            return
        if index == self._index:
            return
        old = self.pstates[self._index]
        new = self.pstates[index]
        ramp_ns, halt_ns = self.dvfs_timing.plan(old, new)
        self._transition_target = index
        if ramp_ns > 0:
            self._sim.schedule(ramp_ns, self._begin_halt, index, halt_ns)
        else:
            self._begin_halt(index, halt_ns)

    def set_frequency(self, freq_hz: float) -> None:
        """Request the P-state whose frequency covers ``freq_hz``."""
        self.set_pstate(self.pstates.index_for_frequency(freq_hz))

    def _begin_halt(self, index: int, halt_ns: int) -> None:
        # Scheduled before the stalls end so the switch lands first.
        self._sim.schedule(halt_ns, self._finish_switch, index)
        for core in self.cores:
            core.stall(halt_ns)

    def _finish_switch(self, index: int) -> None:
        old_freq = self.frequency_hz
        self._index = index
        state = self.pstates[index]
        self.frequency_hz = state.freq_hz
        self.voltage = state.voltage
        self._transition_target = None
        self._transitions.inc()
        for core in self.cores:
            core.on_clock_change(old_freq)
        if self._pstate_probe.enabled:
            self._pstate_probe.emit(
                PStateChange(self._sim.now, self.name, index, self.frequency_hz)
            )
        for listener in self.pstate_listeners:
            listener(index)
        if self._queued_target is not None:
            queued = self._queued_target
            self._queued_target = None
            self.set_pstate(queued)

    # -- accounting ---------------------------------------------------------------

    def energy_report(self) -> EnergyReport:
        """Aggregate energy/residency across all cores (finalizes segments)."""
        report = EnergyReport()
        for core in self.cores:
            report = report.merge(core.meter.report())
        return report

    def busy_ns_per_core(self) -> List[int]:
        return [core.busy_ns_total() for core in self.cores]
