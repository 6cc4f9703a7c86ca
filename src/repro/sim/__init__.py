"""Discrete-event simulation substrate: kernel, units, RNG."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".kernel": ("Event", "SimulationError", "Simulator"),
    ".rng": ("RngRegistry", "derive_seed"),
    ".": ("units",),
})
