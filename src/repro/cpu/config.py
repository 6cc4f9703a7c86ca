"""Processor configuration (Table 1 of the paper) and a package factory."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    power: PowerModelConfig = PowerModelConfig()
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
        tables = processor_tables(self)
        return ClockDomain(
            sim=sim,
            n_cores=self.n_cores,
            pstates=tables.pstates,
            cstates=tables.cstates,
            power_model=tables.power_model,
            dvfs_timing=tables.dvfs_timing,
            initial_pstate=self.initial_pstate,
            name=name,
            telemetry=telemetry,
        )


class ProcessorTables(NamedTuple):
    """The P-state, C-state, power and DVFS-timing tables of a config."""

    pstates: PStateTable
    cstates: CStateTable
    power_model: PowerModel
    dvfs_timing: DVFSTimingModel


@functools.lru_cache(maxsize=None)
def processor_tables(config: ProcessorConfig) -> ProcessorTables:
    """The tables every package of ``config`` is built from, built once
    per config *value*, not per instance: equal configs built apart (one
    per fleet server's config, one per run) get the same objects.  A
    process keeps one set, a few KB, for each distinct value it builds a
    package from.

    Sharing is safe because none of the four changes after it is built:
    the tables are tuples of frozen states, the timing model is frozen,
    and the power model's memo caches a pure function of
    ``(mode, V, f)``, so what one run priced is what any run would price.
    """
    return ProcessorTables(
        config.pstate_table(),
        config.cstate_table(),
        PowerModel(config.power),
        config.dvfs_timing(),
    )
