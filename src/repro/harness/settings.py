"""Run-length presets shared by every experiment and sweep.

Lives in the harness layer (below ``repro.experiments``) so that sweep
specs can carry a preset without importing the experiment modules that
themselves import the harness.  ``repro.experiments.common`` re-exports
:class:`RunSettings` for its historical import path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.simulation import ExperimentConfig, check_run_window
from repro.sim.units import MS


@dataclass(frozen=True)
class RunSettings:
    """How long each cluster run simulates.

    ``quick`` keeps full benchmark sweeps to a few minutes of wall time;
    ``full`` uses longer windows for tighter percentiles.
    """

    warmup_ns: int
    measure_ns: int
    drain_ns: int
    seed: int = 1

    def __post_init__(self) -> None:
        check_run_window(self.warmup_ns, self.measure_ns, self.drain_ns)

    @classmethod
    def quick(cls, seed: int = 1) -> "RunSettings":
        return cls(warmup_ns=20 * MS, measure_ns=150 * MS, drain_ns=80 * MS, seed=seed)

    @classmethod
    def standard(cls, seed: int = 1) -> "RunSettings":
        return cls(warmup_ns=20 * MS, measure_ns=250 * MS, drain_ns=100 * MS, seed=seed)

    @classmethod
    def full(cls, seed: int = 1) -> "RunSettings":
        return cls(warmup_ns=40 * MS, measure_ns=600 * MS, drain_ns=150 * MS, seed=seed)

    def apply_to(self, config: ExperimentConfig) -> ExperimentConfig:
        """A copy of ``config`` with this preset's windows and seed.

        The inverse convenience of ``ExperimentConfig.from_settings(...)``
        for call sites that already hold a config.
        """
        return replace(
            config,
            warmup_ns=self.warmup_ns,
            measure_ns=self.measure_ns,
            drain_ns=self.drain_ns,
            seed=self.seed,
        )
