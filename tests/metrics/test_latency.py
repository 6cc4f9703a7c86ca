"""Tests for latency statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import LatencyStats


class TestLatencyStats:
    def test_percentiles_of_uniform_ramp(self):
        values = list(range(1, 101))  # 1..100
        stats = LatencyStats.from_values(values)
        assert stats.count == 100
        assert stats.p50_ns == pytest.approx(50.5)
        assert stats.p95_ns == pytest.approx(95.05)
        assert stats.max_ns == 100
        assert stats.mean_ns == pytest.approx(50.5)

    def test_percentile_canned_fast_path(self):
        stats = LatencyStats.from_values([1, 2, 3, 4])
        assert stats.percentile(50) == stats.p50_ns
        assert stats.percentile(90.0) == stats.p90_ns
        assert stats.percentile(95) == stats.p95_ns
        assert stats.percentile(99) == stats.p99_ns

    def test_live_and_record_rebuilt_stats_agree(self):
        # A record keeps only the summary fields, so percentile() must
        # answer every q the same from a run's live stats and from the
        # stats its serialized record rebuilds.
        from repro.cluster.simulation import Cluster, ExperimentConfig
        from repro.harness.hashing import config_hash
        from repro.harness.record import ResultRecord
        from repro.sim.units import MS

        config = ExperimentConfig(
            app="apache", policy="perf", target_rps=24_000.0,
            warmup_ns=5 * MS, measure_ns=20 * MS, drain_ns=20 * MS, seed=1,
        )
        result = Cluster(config).run()
        record = ResultRecord.from_json_dict(
            ResultRecord.from_result(
                result, config_hash(config), config.seed
            ).to_json_dict()
        )
        live, rebuilt = result.latency, record.latency
        assert live.count > 0
        assert rebuilt == live
        for q in (10, 50, 75, 92.5, 97, 99.9, 100):
            assert rebuilt.percentile(q) == live.percentile(q)

    def test_percentile_interpolates_without_sketch(self):
        # Records rebuilt from JSON carry no sketch: arbitrary quantiles
        # come from monotone interpolation over the canned anchors.
        stats = LatencyStats(
            count=100, mean_ns=50.0, p50_ns=50.0, p90_ns=90.0,
            p95_ns=95.0, p99_ns=99.0, max_ns=100.0,
        )
        assert stats.percentile(92.5) == pytest.approx(92.5)
        assert stats.percentile(99.5) == pytest.approx(99.5)
        assert stats.percentile(97.0) == pytest.approx(97.0)
        # Below the median everything clamps to p50 (the lower half of
        # the distribution is not retained in records).
        assert stats.percentile(10) == 50.0

    def test_percentile_rejects_out_of_range(self):
        stats = LatencyStats.from_values([1, 2, 3])
        with pytest.raises(ValueError):
            stats.percentile(101)
        with pytest.raises(ValueError):
            stats.percentile(-1)

    def test_percentile_empty_is_nan(self):
        stats = LatencyStats.from_values([])
        assert math.isnan(stats.percentile(75))

    def test_sketch_excluded_from_equality(self):
        a = LatencyStats.from_values([1, 2, 3])
        b = LatencyStats(
            count=a.count, mean_ns=a.mean_ns, p50_ns=a.p50_ns,
            p90_ns=a.p90_ns, p95_ns=a.p95_ns, p99_ns=a.p99_ns,
            max_ns=a.max_ns,
        )
        assert a == b

    def test_empty_input_yields_nans(self):
        stats = LatencyStats.from_values([])
        assert stats.count == 0
        assert math.isnan(stats.p95_ns)
        assert not stats.meets_sla(10**9)

    def test_single_value(self):
        stats = LatencyStats.from_values([7_000_000])
        assert stats.p50_ns == stats.p99_ns == 7_000_000

    def test_normalized_to_sla(self):
        stats = LatencyStats.from_values([10_000_000] * 10)
        norm = stats.normalized_to(20_000_000)
        assert norm == {"p50": 0.5, "p90": 0.5, "p95": 0.5, "p99": 0.5}

    def test_normalized_rejects_bad_sla(self):
        stats = LatencyStats.from_values([1])
        with pytest.raises(ValueError):
            stats.normalized_to(0)

    def test_meets_sla_on_p95(self):
        # 95 values at 1 ms, 5 at 100 ms: p95 sits at the boundary.
        values = [1_000_000] * 95 + [100_000_000] * 5
        stats = LatencyStats.from_values(values)
        assert stats.meets_sla(50_000_000)
        assert not stats.meets_sla(1_000_000)

    def test_order_insensitive(self):
        import random

        values = list(range(1000))
        random.Random(0).shuffle(values)
        a = LatencyStats.from_values(values)
        b = LatencyStats.from_values(sorted(values))
        assert a.p95_ns == b.p95_ns


def build_slack_controller():
    from repro.cpu import ProcessorConfig
    from repro.ext.slack import SlackController
    from repro.oskernel import CpufreqDriver, IRQController
    from repro.sim import Simulator
    from repro.sim.units import MS

    sim = Simulator()
    package = ProcessorConfig(n_cores=1).build_package(sim)
    return SlackController(
        sim, CpufreqDriver(sim, package), IRQController(sim, package),
        sla_ns=10 * MS, min_samples=1,
    )


class TestMatchesNumpy:
    """numpy's ``percentile``, ``mean`` and ``max`` stay the reference:
    the standard-library summaries must equal them bit for bit."""

    @given(values=st.lists(
        st.integers(min_value=0, max_value=10**12), min_size=1, max_size=2_000
    ))
    @example(values=[7])
    @example(values=[3, 10**12])
    @settings(max_examples=200, deadline=None)
    def test_every_field_equals_numpy(self, values):
        arr = np.asarray(values, dtype=np.float64)
        stats = LatencyStats.from_values(values)
        p50, p90, p95, p99 = np.percentile(arr, [50, 90, 95, 99])
        assert stats.count == arr.size
        assert stats.p50_ns == p50
        assert stats.p90_ns == p90
        assert stats.p95_ns == p95
        assert stats.p99_ns == p99
        assert stats.mean_ns == arr.mean()
        assert stats.max_ns == arr.max()

        controller = build_slack_controller()
        for value in values:
            controller.observe(value)
        controller._adjust()
        assert controller.last_p95_ns == np.percentile(arr, 95)
