"""NCAP reproduction: network-driven, packet context-aware power management.

Reimplementation of *NCAP: Network-Driven, Packet Context-Aware Power
Management for Client-Server Architecture* (Alian et al., HPCA 2017) on a
pure-Python discrete-event full-system model.

Quick start::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        app="apache", policy="ncap.cons", target_rps=45_000,
    ))
    print(result.latency.p95_ns / 1e6, "ms p95;",
          result.energy.energy_j, "J")

Subpackages:

- ``repro.core``      — NCAP itself (ReqMonitor, DecisionEngine, drivers);
- ``repro.sim``       — discrete-event kernel, units, RNG;
- ``repro.cpu``       — cores, P/C states, DVFS timing, power/energy;
- ``repro.oskernel``  — scheduler, IRQs, cpufreq/cpuidle governors;
- ``repro.net``       — links, switch, NIC, interrupt moderation;
- ``repro.apps``      — Apache/Memcached models, open-loop clients;
- ``repro.cluster``   — node/fleet wiring, sharding and the experiment runner;
- ``repro.telemetry`` — stats registry, probe bus, flight recorder, tracing;
- ``repro.analysis``  — request and energy attribution, audits, run comparison;
- ``repro.profiling`` — the simulator's own wall-time profile;
- ``repro.harness``   — sweep specs, parallel runner, result records/cache;
- ``repro.metrics``   — latency percentiles, energy windows, reports;
- ``repro.viz``       — HTML dashboards and frontier pages;
- ``repro.ext``       — extensions beyond the paper (slack, Adrenaline);
- ``repro.experiments`` — one runner per paper table/figure.

Every package exports its names lazily: importing one loads no other
module until a name is read.
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def _lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a module, relative to ``package`` (``".kernel"``), to
    the names it exports.  Under the key ``"."`` are names the package
    defines itself, which never reach ``__getattr__``, and its submodules,
    which ``__getattr__`` imports.  A resolved name is cached in the
    package's namespace; an unknown one raises :class:`AttributeError`.
    """
    owners = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".cluster.policies": ("POLICIES", "POLICY_ORDER", "PolicyConfig", "get_policy"),
    ".cluster.simulation": (
        "Cluster", "ExperimentConfig", "ExperimentResult", "run_experiment",
    ),
    ".core.config": ("NCAPConfig",),
    ".harness.cache": ("ResultCache",),
    ".harness.record": ("ResultRecord",),
    ".harness.runner": ("Runner", "run_sweep"),
    ".harness.spec": ("RunSpec", "SweepSpec"),
    ".validation": ("validate_table1",),
    ".": ("__version__",),
})
