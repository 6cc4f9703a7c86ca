"""Per-core DVFS: one clock/voltage domain per core (Section 7).

The paper's evaluation platform has chip-wide DVFS (one V/F for all four
cores), but Section 7 argues that with a multi-queue NIC, NCAP can retune
*the target core* independently.  :class:`MultiDomainProcessor` provides
that substrate: N single-core :class:`ClockDomain`\\ s behind a facade with
the same surface the scheduler / IRQ / metrics layers use (``cores``,
``cstates``, ``energy_report``, ``busy_ns_per_core``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.config import ProcessorConfig, processor_tables
from repro.cpu.core import Core
from repro.cpu.cstates import CStateTable
from repro.cpu.energy import EnergyReport
from repro.cpu.package import ClockDomain
from repro.sim.kernel import Simulator
from repro.telemetry import Telemetry, ensure_telemetry


class MultiDomainProcessor:
    """N independent single-core V/F domains presented as one processor."""

    def __init__(
        self,
        sim: Simulator,
        config: ProcessorConfig = ProcessorConfig(),
        name: str = "cpu",
        telemetry: Optional[Telemetry] = None,
    ):
        self._sim = sim
        self.name = name
        self.config = config
        self.telemetry = ensure_telemetry(telemetry)
        tables = processor_tables(config)
        self.cstates: CStateTable = tables.cstates
        self.domains: List[ClockDomain] = [
            ClockDomain(
                sim,
                n_cores=1,
                pstates=tables.pstates,
                cstates=self.cstates,
                power_model=tables.power_model,
                dvfs_timing=tables.dvfs_timing,
                initial_pstate=config.initial_pstate,
                name=f"{name}.domain{i}",
                core_id_base=i,
                telemetry=self.telemetry,
            )
            for i in range(config.n_cores)
        ]
        self.cores: List[Core] = [d.cores[0] for d in self.domains]
        self.pstates = tables.pstates

    # -- package-facade surface --------------------------------------------

    def domain_of(self, core_id: int) -> ClockDomain:
        return self.domains[core_id]

    def set_pstate(self, index: int) -> None:
        """Broadcast a P-state to every domain (chip-wide-compatible path)."""
        for domain in self.domains:
            domain.set_pstate(index)

    @property
    def at_max_performance(self) -> bool:
        return all(d.at_max_performance for d in self.domains)

    @property
    def frequency_hz(self) -> float:
        """Highest frequency across domains (facade convenience)."""
        return max(d.frequency_hz for d in self.domains)

    def energy_report(self) -> EnergyReport:
        report = EnergyReport()
        for domain in self.domains:
            report = report.merge(domain.energy_report())
        return report

    def busy_ns_per_core(self) -> List[int]:
        return [core.busy_ns_total() for core in self.cores]
