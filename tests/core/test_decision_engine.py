"""Tests for DecisionEngine threshold logic (paper Section 4.3)."""

import pytest

from repro.core import NCAPConfig
from repro.core.decision_engine import DecisionEngine
from repro.net.interrupts import ICR
from repro.sim import Simulator
from repro.sim.units import MS, US
from repro.telemetry import Telemetry
from tests.probe_log import ProbeLog


class Harness:
    """Drives a DecisionEngine with scripted counters."""

    def __init__(self, config=None, enable_cit=True, cpu_at_max=False, telemetry=None):
        self.sim = Simulator()
        self.req = 0
        self.tx = 0
        self.posts = []
        self.last_interrupt = -(10**18)
        self.cpu_at_max = cpu_at_max
        self.config = config or NCAPConfig()
        self.engine = DecisionEngine(
            self.sim,
            self.config,
            req_count=lambda: self.req,
            tx_bytes=lambda: self.tx,
            post=lambda bits: self.posts.append((self.sim.now, bits)),
            last_interrupt_ns=lambda: self.last_interrupt,
            cpu_at_max=lambda: self.cpu_at_max,
            enable_cit=enable_cit,
            telemetry=telemetry,
        )
        self.engine.start()

    def advance(self, ns):
        self.sim.schedule(ns, lambda: None)
        self.sim.run()

    def tick_after(self, ns, new_requests=0, new_tx_bytes=0):
        self.advance(ns)
        self.req += new_requests
        self.tx += new_tx_bytes
        self.engine.tick()


class TestHighPath:
    def test_burst_above_rht_posts_it_high(self):
        h = Harness()
        # 10 requests in 100 us = 100 K RPS > RHT (35 K RPS).
        h.tick_after(100 * US, new_requests=10)
        assert h.posts and h.posts[0][1] == ICR.IT_HIGH | ICR.IT_RX
        assert h.engine.it_high_posts == 1
        assert h.engine.boost_active

    def test_rate_below_rht_no_post(self):
        h = Harness()
        # 2 requests in 100 us = 20 K RPS < RHT.
        h.tick_after(100 * US, new_requests=2)
        assert h.posts == []

    def test_no_it_high_when_cpu_already_max(self):
        h = Harness(cpu_at_max=True)
        h.tick_after(100 * US, new_requests=10)
        assert h.posts == []
        assert h.engine.boost_active  # still tracks the burst

    def test_repeated_high_windows_repost(self):
        h = Harness()
        h.tick_after(100 * US, new_requests=10)
        h.tick_after(100 * US, new_requests=10)
        assert h.engine.it_high_posts == 2

    def test_rate_computed_per_window(self):
        h = Harness()
        h.tick_after(100 * US, new_requests=10)
        assert h.engine.last_req_rate_rps == pytest.approx(100_000, rel=0.01)


class TestLowPath:
    def low_config(self):
        return NCAPConfig(fcons=3)

    def test_sustained_low_posts_it_low(self):
        h = Harness(self.low_config())
        h.tick_after(100 * US, new_requests=10)    # boost
        # Now quiet: low window must persist 1 ms before IT_LOW.
        for _ in range(12):
            h.tick_after(100 * US)
        lows = [p for p in h.posts if p[1] & ICR.IT_LOW]
        assert len(lows) >= 1
        first_low_t = lows[0][0]
        assert first_low_t >= 100 * US + 1 * MS

    def test_it_lows_stop_after_fcons(self):
        h = Harness(self.low_config())
        h.tick_after(100 * US, new_requests=10)
        for _ in range(100):
            h.tick_after(100 * US)
        lows = [p for p in h.posts if p[1] & ICR.IT_LOW]
        assert len(lows) == 3  # fcons
        assert not h.engine.boost_active

    def test_back_to_back_lows_paced_by_window(self):
        h = Harness(self.low_config())
        h.tick_after(100 * US, new_requests=10)
        for _ in range(40):
            h.tick_after(100 * US)
        lows = [t for t, bits in h.posts if bits & ICR.IT_LOW]
        gaps = [b - a for a, b in zip(lows, lows[1:])]
        assert all(g >= h.config.low_window_ns for g in gaps)

    def test_no_it_low_without_prior_burst(self):
        h = Harness()
        for _ in range(30):
            h.tick_after(100 * US)
        assert [p for p in h.posts if p[1] & ICR.IT_LOW] == []

    def test_tx_traffic_blocks_it_low(self):
        # Responses still streaming out: TxRate above TLT keeps F up.
        h = Harness(self.low_config())
        h.tick_after(100 * US, new_requests=10)
        for _ in range(30):
            # 5 Mb/s threshold; send ~80 Mb/s worth: 1000 bytes per 100 us.
            h.tick_after(100 * US, new_tx_bytes=1000)
        assert [p for p in h.posts if p[1] & ICR.IT_LOW] == []

    def test_moderate_rate_resets_low_window(self):
        h = Harness(self.low_config())
        h.tick_after(100 * US, new_requests=10)
        # Alternate quiet and moderate (between RLT and RHT) windows: the
        # sustained-low window never completes.
        for i in range(30):
            h.tick_after(100 * US, new_requests=2 if i % 2 else 0)
        assert [p for p in h.posts if p[1] & ICR.IT_LOW] == []


class TestCITPath:
    def test_request_after_long_idle_posts_immediate_rx(self):
        h = Harness()
        h.advance(5 * MS)  # long silence; last interrupt far in the past
        h.engine.on_req_count_change()
        assert h.posts == [(5 * MS, ICR.IT_RX)]
        assert h.engine.immediate_rx_posts == 1

    def test_recent_interrupt_suppresses_immediate_rx(self):
        h = Harness()
        h.advance(5 * MS)
        h.last_interrupt = h.sim.now - 100 * US  # < CIT (500 us)
        h.engine.on_req_count_change()
        assert h.posts == []

    def test_cit_disabled_for_software_variant(self):
        h = Harness(enable_cit=False)
        h.advance(5 * MS)
        h.engine.on_req_count_change()
        assert h.posts == []


class TestBookkeeping:
    def test_zero_period_tick_ignored(self):
        h = Harness()
        h.engine.tick()
        h.engine.tick()
        assert h.engine.ticks == 0

    def test_wake_times_recorded_in_trace(self):
        telemetry = Telemetry()
        log = telemetry.add_sink(ProbeLog())
        h = Harness(telemetry=telemetry)
        h.tick_after(100 * US, new_requests=10)
        assert h.engine.wake_interrupt_times() == [100 * US]
        assert [(e.t_ns, e.engine, e.cause) for e in log.events["ncap.wake"]] == [
            (100 * US, "ncap", "it_high")
        ]

    def test_tick_before_start_self_initializes(self):
        sim = Simulator()
        engine = DecisionEngine(
            sim, NCAPConfig(), lambda: 0, lambda: 0,
            post=lambda b: None, last_interrupt_ns=lambda: 0,
            cpu_at_max=lambda: False,
        )
        engine.tick()  # must not crash nor divide by zero
        assert engine.ticks == 0
