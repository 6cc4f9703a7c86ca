"""The model is standard-library Python: it runs with numpy blocked.

A fresh interpreter sets ``sys.modules["numpy"] = None``, so any numpy
import raises, then imports the package, runs one experiment to a
``ResultRecord`` and one serial sharded fleet.  Its record must equal
the one this process builds (with numpy importable), and a serial run
must leave the process-pool stack unloaded.
"""

import json
import os
import subprocess
import sys

import repro
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.sim.units import MS

CONFIG = dict(
    app="apache", policy="ncap.cons", target_rps=24_000.0,
    warmup_ns=5 * MS, measure_ns=20 * MS, drain_ns=20 * MS, seed=1,
)

CHILD = f"""
import json, sys
sys.modules["numpy"] = None

import repro, repro.cli, repro.experiments, repro.ext
from repro.cluster.datacenter import DatacenterConfig
from repro.cluster.sharding import ShardedDatacenterRun
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.sim.units import MS

config = ExperimentConfig(**{CONFIG!r})
record = ResultRecord.from_result(
    run_experiment(config), config_hash(config), config.seed
)
fleet = ShardedDatacenterRun(
    DatacenterConfig(
        app="apache", policy="ncap.cons", n_servers=4, n_shards=2,
        total_rps=60_000.0, clients_per_server=2, warmup_ns=5 * MS,
        measure_ns=20 * MS, drain_ns=15 * MS, seed=7,
    ),
    jobs=1,
).execute()
assert fleet.record.latency.count > 0
loaded = sorted({{"multiprocessing", "concurrent.futures.process"}} & set(sys.modules))
assert not loaded, loaded
print(json.dumps(record.to_json_dict(), sort_keys=True))
"""


def test_model_runs_with_numpy_blocked():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr

    config = ExperimentConfig(**CONFIG)
    record = ResultRecord.from_result(
        run_experiment(config), config_hash(config), config.seed
    )
    assert child.stdout.strip() == json.dumps(record.to_json_dict(), sort_keys=True)
