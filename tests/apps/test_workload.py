"""Tests for load-level presets."""

import pytest

from repro.apps.workload import (
    APACHE_SLA_NS,
    LOAD_LEVELS,
    MEMCACHED_SLA_NS,
    PAPER_APACHE_SLA_NS,
    PAPER_MEMCACHED_SLA_NS,
    burst_arrival_times,
    burst_period_ns,
    default_burst_size,
    load_level,
    sla_for,
)
from repro.sim.units import MS


class TestPresets:
    def test_paper_load_levels(self):
        assert load_level("apache", "low").target_rps == 24_000
        assert load_level("apache", "medium").target_rps == 45_000
        assert load_level("apache", "high").target_rps == 66_000
        assert load_level("memcached", "low").target_rps == 35_000
        assert load_level("memcached", "medium").target_rps == 127_000
        assert load_level("memcached", "high").target_rps == 138_000

    def test_paper_slas_recorded(self):
        assert PAPER_APACHE_SLA_NS == 41 * MS
        assert PAPER_MEMCACHED_SLA_NS == 3 * MS

    def test_repro_memcached_sla_matches_paper(self):
        assert MEMCACHED_SLA_NS == PAPER_MEMCACHED_SLA_NS

    def test_sla_for(self):
        assert sla_for("apache") == APACHE_SLA_NS
        assert sla_for("memcached") == MEMCACHED_SLA_NS
        with pytest.raises(KeyError):
            sla_for("redis")

    def test_unknown_level(self):
        with pytest.raises(KeyError):
            load_level("apache", "extreme")
        with pytest.raises(KeyError):
            load_level("nginx", "low")

    def test_all_levels_carry_their_sla(self):
        for app, levels in LOAD_LEVELS.items():
            for level in levels.values():
                assert level.sla_ns == sla_for(app)


class TestBurstMath:
    def test_period_formula(self):
        # 3 clients x 100 per burst at 30K RPS -> one burst per 10 ms each.
        assert burst_period_ns(30_000, 3, 100) == 10 * MS

    def test_aggregate_rate_preserved(self):
        for rps in (24_000, 45_000, 138_000):
            period = burst_period_ns(rps, 3, 200)
            achieved = 3 * 200 / (period / 1e9)
            assert achieved == pytest.approx(rps, rel=0.001)

    def test_default_burst_sizes(self):
        assert default_burst_size("apache") == 200
        assert default_burst_size("memcached") == 75
        with pytest.raises(KeyError):
            default_burst_size("nginx")

    def test_validation(self):
        with pytest.raises(ValueError):
            burst_period_ns(0, 3, 100)
        with pytest.raises(ValueError):
            burst_period_ns(1000, 0, 100)


class TestBurstArrivalTimes:
    def test_small_burst_arithmetic(self):
        assert burst_arrival_times(100, 3, 7) == [100, 107, 114]

    def test_single_request(self):
        assert burst_arrival_times(42, 1, 1_000) == [42]

    def test_zero_gap_collapses_to_now(self):
        assert burst_arrival_times(10, 4, 0) == [10, 10, 10, 10]

    def test_vectorized_matches_scalar_fallback(self):
        # Every size, small or as large as real bursts, follows the
        # formula exactly and yields plain Python ints.
        for size in (1, 31, 32, 200, 1_000):
            times = burst_arrival_times(123_456_789, size, 5_000)
            assert times == [123_456_789 + i * 5_000 for i in range(size)]
            assert all(type(t) is int for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            burst_arrival_times(0, 0, 1_000)


class TestGenerateLoadShares:
    def test_uniform_is_equal_and_normalized(self):
        from repro.apps.workload import generate_load_shares

        shares = generate_load_shares("uniform", 8)
        assert len(shares) == 8
        assert all(s == shares[0] for s in shares)
        assert abs(sum(shares) - 1.0) < 1e-12

    def test_uniform_scales_to_a_thousand_servers(self):
        from repro.apps.workload import generate_load_shares

        shares = generate_load_shares("uniform", 1000)
        assert len(shares) == 1000
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_zipf_is_decreasing_and_normalized(self):
        from repro.apps.workload import generate_load_shares

        shares = generate_load_shares("zipf:1.2", 100)
        assert len(shares) == 100
        assert all(a > b for a, b in zip(shares, shares[1:]))
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_zipf_exponent_controls_skew(self):
        from repro.apps.workload import generate_load_shares

        mild = generate_load_shares("zipf:0.5", 50)
        steep = generate_load_shares("zipf:2.0", 50)
        assert steep[0] > mild[0]

    def test_bad_specs_rejected(self):
        from repro.apps.workload import generate_load_shares

        for spec in ("pareto", "zipf", "zipf:", "zipf:abc", "zipf:0", "zipf:-1"):
            with pytest.raises(ValueError):
                generate_load_shares(spec, 4)
        with pytest.raises(ValueError):
            generate_load_shares("uniform", 0)
