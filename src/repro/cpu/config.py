"""Processor configuration (Table 1 of the paper) and a package factory."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.cstates import CStateTable, default_cstates
from repro.cpu.package import ClockDomain
from repro.cpu.power import PowerModel, PowerModelConfig
from repro.cpu.pstates import DVFSTimingModel, PStateTable
from repro.sim.kernel import Simulator
from repro.sim.units import ghz
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class ProcessorConfig:
    """Table 1 processor parameters (i7-3770-like)."""

    n_cores: int = 4
    n_pstates: int = 15
    f_max_hz: float = ghz(3.1)
    f_min_hz: float = ghz(0.8)
    v_max: float = 1.2
    v_min: float = 0.65
    v_ramp_rate_mv_per_us: float = 6.25
    pll_relock_us: float = 5.0
    power: PowerModelConfig = field(default_factory=PowerModelConfig)
    initial_pstate: int = 0

    def pstate_table(self) -> PStateTable:
        return PStateTable.linear(
            count=self.n_pstates,
            f_max_hz=self.f_max_hz,
            f_min_hz=self.f_min_hz,
            v_max=self.v_max,
            v_min=self.v_min,
        )

    def cstate_table(self) -> CStateTable:
        return CStateTable(default_cstates())

    def dvfs_timing(self) -> DVFSTimingModel:
        return DVFSTimingModel(
            v_ramp_rate_mv_per_us=self.v_ramp_rate_mv_per_us,
            pll_relock_ns=round(self.pll_relock_us * 1000),
        )

    def build_package(
        self,
        sim: Simulator,
        name: str = "cpu",
        telemetry: Optional[Telemetry] = None,
    ) -> ClockDomain:
        return ClockDomain(
            sim=sim,
            n_cores=self.n_cores,
            pstates=self.pstate_table(),
            cstates=self.cstate_table(),
            power_model=PowerModel(self.power),
            dvfs_timing=self.dvfs_timing(),
            initial_pstate=self.initial_pstate,
            name=name,
            telemetry=telemetry,
        )
