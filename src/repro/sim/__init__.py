"""Discrete-event simulation substrate: kernel, units, RNG."""

from repro.sim.kernel import Event, SimulationError, Simulator
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim import units

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "RngRegistry",
    "derive_seed",
    "units",
]
