"""Config-hash stability: equal configs hash equal, different ones don't."""

import dataclasses

import pytest

from repro.cluster.simulation import ExperimentConfig
from repro.core.config import NCAPConfig
from repro.cpu.config import ProcessorConfig
from repro.harness import canonical_json, config_hash


class TestConfigHashStability:
    def test_default_vs_explicit_defaults(self):
        """Spelling out the defaults must not change the hash."""
        implicit = ExperimentConfig()
        explicit = ExperimentConfig(
            app="apache",
            policy="perf",
            target_rps=24_000.0,
            n_clients=3,
            seed=1,
            processor=ProcessorConfig(),
        )
        assert implicit == explicit
        assert config_hash(implicit) == config_hash(explicit)

    def test_keyword_order_irrelevant(self):
        a = ExperimentConfig(app="memcached", seed=7, target_rps=50_000)
        b = ExperimentConfig(target_rps=50_000, seed=7, app="memcached")
        assert config_hash(a) == config_hash(b)

    def test_int_float_equivalence(self):
        """24_000 and 24_000.0 are dataclass-equal; they must hash alike."""
        assert ExperimentConfig(target_rps=24_000) == ExperimentConfig(
            target_rps=24_000.0
        )
        assert config_hash(ExperimentConfig(target_rps=24_000)) == config_hash(
            ExperimentConfig(target_rps=24_000.0)
        )

    def test_nested_processor_override_changes_hash(self):
        base = ExperimentConfig()
        tweaked = ExperimentConfig(
            processor=dataclasses.replace(ProcessorConfig(), n_cores=8)
        )
        assert config_hash(base) != config_hash(tweaked)

    def test_ncap_config_and_scalar_overrides_change_hash(self):
        base = config_hash(ExperimentConfig())
        assert base != config_hash(
            ExperimentConfig(ncap_base_config=NCAPConfig(rht_rps=99_000))
        )
        assert base != config_hash(ExperimentConfig(nic_dma_latency_ns=50_000))
        assert base != config_hash(ExperimentConfig(seed=2))

    def test_hash_is_hex_digest(self):
        digest = config_hash(ExperimentConfig())
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestCanonicalJson:
    def test_dict_key_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_nested_dataclasses_serialize(self):
        text = canonical_json(ExperimentConfig())
        assert "ExperimentConfig" in text and "ProcessorConfig" in text

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))
