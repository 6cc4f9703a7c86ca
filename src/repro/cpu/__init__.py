"""CPU substrate: P/C states, DVFS timing, power model, cores, packages."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".config": ("ProcessorConfig",),
    ".core": ("Core", "CoreBusyError", "CoreState", "Job"),
    ".cstates": ("CState", "CStateTable", "default_cstates"),
    ".energy": ("EnergyReport", "PowerMeter"),
    ".package": ("ClockDomain",),
    ".power": ("PowerMode", "PowerModel", "PowerModelConfig"),
    ".pstates": ("DVFSTimingModel", "PState", "PStateTable"),
})
