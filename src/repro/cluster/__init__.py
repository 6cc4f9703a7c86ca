"""Cluster wiring: nodes, policies, and the experiment runner."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".node": ("ServerNode",),
    ".policies": ("POLICIES", "POLICY_ORDER", "PolicyConfig", "get_policy"),
    ".simulation": ("Cluster", "ExperimentConfig", "ExperimentResult", "run_experiment"),
})
