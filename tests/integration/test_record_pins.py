"""Pinned sha256 of four short records.

Each digest covers a record's canonical JSON (sorted keys, compact
separators), config hash included, so it moves with anything a run
computes or a record carries.  The digests were the same under Python
3.10, 3.11, 3.12 and 3.13.  A change that moves one on purpose refreshes
the pins in a commit of its own that says why.

The attributed record runs 2,475 joined requests through a 256-entry
top-K, so the tail tables come from a heap that replaced its root; its
float sums are written left to right, because ``sum()`` compensates from
Python 3.12 on and would move the tail means in their last digits.
"""

import hashlib
import json

from repro.analysis.attribution import AttributionSink
from repro.cluster.datacenter import DatacenterConfig, run_datacenter
from repro.cluster.frontend import FrontendConfig
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.harness.hashing import config_hash
from repro.harness.record import ResultRecord
from repro.sim.units import MS

WINDOWS = dict(warmup_ns=5 * MS, measure_ns=20 * MS, drain_ns=5 * MS, seed=1)


def digest(record: ResultRecord) -> str:
    payload = json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def single_run(config: ExperimentConfig, **observers) -> str:
    result = run_experiment(config, **observers)
    return digest(ResultRecord.from_result(result, config_hash(config), config.seed))


def test_apache_ncap_cons_record():
    config = ExperimentConfig(app="apache", policy="ncap.cons", target_rps=24_000.0, **WINDOWS)
    assert single_run(config) == APACHE_NCAP_CONS


def test_memcached_ond_idle_energy_attribution_record():
    config = ExperimentConfig(
        app="memcached", policy="ond.idle", target_rps=35_000.0, **WINDOWS
    )
    assert single_run(config, energy_attribution=True) == MEMCACHED_OND_IDLE


def test_memcached_ncap_cons_attributed_record():
    config = ExperimentConfig(
        app="memcached", policy="ncap.cons", target_rps=127_000.0, **WINDOWS
    )
    assert single_run(config, sinks=[AttributionSink(top_k=256)]) == MEMCACHED_ATTRIBUTED


def test_sharded_frontend_fleet_record():
    config = DatacenterConfig(
        app="memcached", n_servers=4, n_shards=2, load_shares="uniform",
        total_rps=40_000.0, **WINDOWS,
        frontend=FrontendConfig(
            n_users=2_000, spray="po2", burst_size=50,
            intra_burst_gap_ns=1_000, dispatch_latency_ns=1 * MS,
        ),
    )
    assert digest(run_datacenter(config, jobs=1).record) == FRONTEND_FLEET


APACHE_NCAP_CONS = "c4a664acf13b6c1c43f3c4739d692e48871b271c96e766b73601a4dd2dce0ea1"
MEMCACHED_OND_IDLE = "c0aa5f0ac8a8a1d567b3b05b7cbc69d4f67b8d9827dbb98681ca5bc2380da176"
MEMCACHED_ATTRIBUTED = "ddf16c9ff184012001cf31ef60d4c659766f3201f680775dee124fc62082c82a"
FRONTEND_FLEET = "020ed17290759d69fd99555005b2b89687c939375bf4457f4bce2a6ca7d77a62"
