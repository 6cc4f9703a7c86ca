"""Tests for time-varying load patterns."""

import pytest

from repro.apps.client import http_request_factory
from repro.apps.patterns import (
    ConstantPattern,
    DiurnalPattern,
    SpikePattern,
    StepPattern,
    VariableRateClient,
)
from repro.sim import Simulator
from repro.sim.units import MS, SEC


class CapturePort:
    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)


class TestPatterns:
    def test_constant(self):
        pattern = ConstantPattern(5_000)
        assert pattern.rps_at(0) == pattern.rps_at(SEC) == 5_000

    def test_step(self):
        pattern = StepPattern(1_000, 9_000, step_at_ns=100 * MS)
        assert pattern.rps_at(99 * MS) == 1_000
        assert pattern.rps_at(100 * MS) == 9_000

    def test_diurnal_range_and_period(self):
        pattern = DiurnalPattern(1_000, 9_000, period_ns=SEC)
        samples = [pattern.rps_at(t) for t in range(0, SEC, SEC // 100)]
        assert min(samples) == pytest.approx(1_000, rel=0.01)
        assert max(samples) == pytest.approx(9_000, rel=0.01)
        assert pattern.rps_at(0) == pytest.approx(pattern.rps_at(SEC), rel=0.01)

    def test_diurnal_phase_starts_at_valley(self):
        pattern = DiurnalPattern(1_000, 9_000, period_ns=SEC, phase=-1.5707963)
        assert pattern.rps_at(0) == pytest.approx(1_000, rel=0.01)

    def test_spike(self):
        pattern = SpikePattern(1_000, 8_000, spike_start_ns=10 * MS, spike_len_ns=5 * MS)
        assert pattern.rps_at(9 * MS) == 1_000
        assert pattern.rps_at(12 * MS) == 8_000
        assert pattern.rps_at(15 * MS) == 1_000


class TestVariableRateClient:
    def make_client(self, pattern, burst_size=10):
        sim = Simulator()
        client = VariableRateClient(
            sim, "c0", http_request_factory("c0", "server"),
            burst_size=burst_size, burst_period_ns=MS,
            pattern=pattern, share=1.0,
        )
        port = CapturePort()
        client.attach_port(port)
        return sim, client, port

    def test_rate_follows_step(self):
        pattern = StepPattern(5_000, 20_000, step_at_ns=100 * MS)
        sim, client, port = self.make_client(pattern)
        client.start()
        sim.run(until=200 * MS)
        before = sum(1 for f in port.sent if f.created_ns < 100 * MS)
        after = sum(1 for f in port.sent if f.created_ns >= 100 * MS)
        # Same wall time each side: the second half must carry ~4x more.
        assert after > 3 * before

    def test_aggregate_rate_approximates_pattern(self):
        pattern = ConstantPattern(10_000)
        sim, client, port = self.make_client(pattern)
        client.start()
        sim.run(until=500 * MS)
        achieved = len(port.sent) / 0.5
        assert achieved == pytest.approx(10_000, rel=0.1)

    def test_share_scales_rate(self):
        pattern = ConstantPattern(10_000)
        sim = Simulator()
        client = VariableRateClient(
            sim, "c0", http_request_factory("c0", "server"),
            burst_size=10, burst_period_ns=MS, pattern=pattern, share=0.5,
        )
        port = CapturePort()
        client.attach_port(port)
        client.start()
        sim.run(until=500 * MS)
        achieved = len(port.sent) / 0.5
        assert achieved == pytest.approx(5_000, rel=0.1)

    def test_invalid_share(self):
        with pytest.raises(ValueError):
            VariableRateClient(
                Simulator(), "c", lambda t: None, pattern=ConstantPattern(1), share=0,
            )

    def test_rate_floor_prevents_stall(self):
        # A pattern that returns ~0 must not freeze the client forever.
        pattern = ConstantPattern(0.0001)
        sim, client, port = self.make_client(pattern, burst_size=1)
        client.start()
        sim.run(until=3 * SEC)
        assert client.requests_sent >= 2
