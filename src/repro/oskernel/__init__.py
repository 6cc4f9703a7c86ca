"""OS-kernel substrate: scheduler, IRQs, timers, cpufreq/cpuidle, sysfs."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".cpufreq": (
        "CpufreqDriver", "OndemandGovernor", "PerformanceGovernor",
        "PowersaveGovernor", "UserspaceGovernor",
    ),
    ".cpuidle": ("CpuidleDriver", "LadderGovernor", "MenuGovernor"),
    ".irq": ("IRQController",),
    ".netstack": ("NetStackCosts",),
    ".scheduler": ("Scheduler",),
    ".sysfs": ("SysFS", "SysfsError"),
    ".timers": ("OneShotKernelTask", "PeriodicKernelTask"),
})
