"""A plain run loads only the model.

Every package exports its names lazily (PEP 562), and the run path
imports an observer's module only when ``Observers`` asks for it.  A
fresh interpreter pins the repro modules that ``import repro``, a plain
``run_experiment`` and then a serial frontend-fed ``ShardedDatacenterRun``
load, and checks that no tooling-only standard-library module came with
them.  Every package's ``__all__`` must still resolve.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro


def _package(name, *modules):
    return {f"repro.{name}", *(f"repro.{name}.{module}" for module in modules)}


#: The model: what a plain ``run_experiment`` loads, and nothing else.
PLAIN_RUN = {
    "repro",
    *_package("apps", "apache", "base", "client", "memcached", "workload"),
    *_package("cluster", "frontend", "node", "policies", "simulation"),
    *_package(
        "core", "config", "decision_engine", "ncap_driver", "ncap_nic", "ncap_sw",
        "req_monitor", "tx_counter",
    ),
    *_package("cpu", "config", "core", "cstates", "energy", "package", "power", "pstates"),
    *_package("metrics", "energy", "latency"),
    *_package("net", "driver", "interrupts", "link", "nic", "packet", "switch"),
    *_package(
        "oskernel", "cpufreq", "cpuidle", "irq", "netstack", "scheduler", "sysfs", "timers",
    ),
    *_package("sim", "kernel", "rng", "units"),
    *_package("telemetry", "events", "probes", "registry"),
}
#: A serial fleet adds the coordinator and the record it merges into.
SERIAL_FLEET = PLAIN_RUN | {
    "repro.cluster.datacenter",
    "repro.cluster.sharding",
    *_package("harness", "cache", "hashing", "record", "runner", "settings", "spec"),
}
#: Standard-library modules only tooling and pools need.
NOT_LOADED = (
    "logging", "concurrent.futures", "platform", "statistics", "glob",
    "multiprocessing", "numpy",
)

CHILD = f"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

import repro
stages = {{"import": loaded()}}

from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.sim.units import MS

run_experiment(ExperimentConfig(
    app="apache", policy="ncap.cons", target_rps=24_000.0,
    warmup_ns=5 * MS, measure_ns=10 * MS, drain_ns=5 * MS, seed=1,
))
stages["run"] = loaded()

from repro.cluster.datacenter import DatacenterConfig
from repro.cluster.frontend import FrontendConfig
from repro.cluster.sharding import ShardedDatacenterRun

ShardedDatacenterRun(
    DatacenterConfig(
        app="memcached", n_servers=4, n_shards=2, total_rps=40_000.0,
        warmup_ns=5 * MS, measure_ns=10 * MS, drain_ns=5 * MS, seed=1,
        frontend=FrontendConfig(n_users=500, burst_size=20),
    ),
    jobs=1,
).execute()
stages["fleet"] = loaded()
stages["stdlib"] = sorted(m for m in {NOT_LOADED!r} if m in sys.modules)
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return {stage: set(names) for stage, names in json.loads(child.stdout).items()}


def test_import_repro_loads_only_repro(stages):
    assert stages["import"] == {"repro"}


def test_plain_run_loads_only_the_model(stages):
    assert stages["run"] == PLAIN_RUN


def test_serial_fleet_adds_only_the_coordinator(stages):
    assert stages["fleet"] == SERIAL_FLEET


def test_no_tooling_standard_library_module(stages):
    assert stages["stdlib"] == set()


PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
class TestExports:
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        assert package.__all__
        for export in package.__all__:
            getattr(package, export)

    def test_star_import_binds_every_export(self, name):
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(importlib.import_module(name).__all__) <= set(namespace)

    def test_dir_lists_every_export(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_is_an_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"'{name}' has no attribute 'no_such_export'"):
            getattr(package, "no_such_export")
