"""Discrete-event simulation substrate: kernel, units, RNG."""

from repro.sim.kernel import Event, HeapScheduler, SimulationError, Simulator
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim import units

__all__ = [
    "Event",
    "HeapScheduler",
    "SimulationError",
    "Simulator",
    "RngRegistry",
    "derive_seed",
    "units",
]
