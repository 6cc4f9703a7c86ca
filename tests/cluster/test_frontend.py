"""Tests for the frontend load-balancer tier: spray policies, the
coordinator-side planner, and the per-server frontend port."""

import random
from array import array

import pytest

from repro.cluster.frontend import (
    ConsistentHashSpray,
    FrontendConfig,
    FrontendPlanner,
    FrontendPort,
    LeastLoadedSpray,
    PowerOfTwoSpray,
    SPRAY_POLICIES,
    make_spray,
)
from repro.sim.units import MS


class TestFrontendConfig:
    def test_defaults_valid(self):
        config = FrontendConfig()
        assert config.spray in SPRAY_POLICIES

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(spray="round-robin"),
            dict(n_users=0),
            dict(burst_size=0),
            dict(intra_burst_gap_ns=-1),
            dict(dispatch_latency_ns=0),
            dict(hash_replicas=0),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FrontendConfig(**kwargs)


class TestSprayPolicies:
    def test_registry_covers_all_names(self):
        for name in SPRAY_POLICIES:
            spray = make_spray(name, 4, random.Random(1), 64)
            assert 0 <= spray.choose(42, [0, 0, 0, 0]) < 4

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_spray("bogus", 4, random.Random(1), 64)

    def test_consistent_hash_is_deterministic_and_sticky(self):
        a = ConsistentHashSpray(8, random.Random(1), 64)
        b = ConsistentHashSpray(8, random.Random(99), 64)
        for user in range(200):
            # Same ring regardless of RNG; same user -> same server.
            assert a.choose(user, [0] * 8) == b.choose(user, [0] * 8)
            assert a.choose(user, [5] * 8) == a.choose(user, [0] * 8)

    def test_consistent_hash_spreads_users(self):
        spray = ConsistentHashSpray(8, random.Random(1), 64)
        servers = {spray.choose(u, [0] * 8) for u in range(500)}
        assert len(servers) == 8

    def test_least_loaded_picks_minimum(self):
        spray = LeastLoadedSpray(4, random.Random(1), 64)
        assert spray.choose(0, [3, 1, 2, 5]) == 1

    def test_least_loaded_breaks_ties_by_index(self):
        spray = LeastLoadedSpray(4, random.Random(1), 64)
        assert spray.choose(0, [2, 1, 1, 1]) == 1

    def test_po2_picks_less_loaded_of_two(self):
        spray = PowerOfTwoSpray(4, random.Random(7), 64)
        est = [100, 100, 100, 0]
        # Over many draws the empty server must win every time it is
        # sampled; it is sampled with probability 1/2 per draw.
        wins = sum(spray.choose(u, est) == 3 for u in range(100))
        assert wins >= 30

    def test_po2_single_server(self):
        spray = PowerOfTwoSpray(1, random.Random(7), 64)
        assert spray.choose(0, [9]) == 0


def plan_key(dispatches):
    """Semantic identity of a plan — everything but the process-global
    ``frame_id`` (allocated per Frame(), never read by the simulation)."""
    return [
        (d.send_ns, d.server_index, d.frame.src, d.frame.dst,
         d.frame.req_id, d.frame.payload_bytes, d.frame.payload_prefix,
         d.frame.created_ns)
        for d in dispatches
    ]


def make_planner(**overrides):
    frontend = FrontendConfig(
        n_users=1_000, spray="po2", burst_size=50,
        intra_burst_gap_ns=1_000, dispatch_latency_ns=1 * MS,
    )
    params = dict(
        n_servers=4, total_rps=50_000.0, app="memcached",
        warmup_ns=5 * MS, measure_ns=20 * MS, seed=3,
    )
    params.update(overrides)
    return FrontendPlanner(frontend, **params)


class TestFrontendPlanner:
    def test_plan_is_a_pure_function_of_the_seed(self):
        a, b = make_planner(), make_planner()
        da = plan_key(a.plan_until(10 * MS))
        db = plan_key(b.plan_until(10 * MS))
        assert da == db
        assert plan_key(make_planner(seed=4).plan_until(10 * MS)) != da

    def test_plan_independent_of_window_slicing(self):
        whole = make_planner().plan_until(10 * MS)
        sliced_planner = make_planner()
        sliced = []
        for boundary in range(1, 11):
            sliced.extend(sliced_planner.plan_until(boundary * MS))
        assert plan_key(sliced) == plan_key(whole)

    def test_sends_respect_lookahead(self):
        planner = make_planner()
        for d in planner.plan_until(10 * MS):
            assert d.send_ns >= 1 * MS  # decision + dispatch latency

    def test_no_sends_after_traffic_end(self):
        planner = make_planner()
        dispatches = planner.plan_until(60 * MS)
        end = 5 * MS + 20 * MS
        assert dispatches
        assert all(d.send_ns < end for d in dispatches)
        assert planner.done

    def test_send_times_non_decreasing(self):
        sends = [d.send_ns for d in make_planner().plan_until(20 * MS)]
        assert sends == sorted(sends)

    def test_dispatch_accounting(self):
        planner = make_planner()
        dispatches = planner.plan_until(30 * MS)
        assert sum(planner.dispatched) == len(dispatches)
        in_measure = sum(
            1 for d in dispatches if 5 * MS <= d.send_ns < 25 * MS
        )
        assert sum(planner.dispatched_in_measure) == in_measure

    def test_observe_drops_visible_buckets(self):
        planner = make_planner()
        planner.plan_until(5 * MS)
        est_before = list(planner._est)
        assert sum(est_before) > 0  # unseen dispatches inflate the estimate
        # After observing a boundary beyond every planned send, the
        # estimate collapses to exactly the installed view.
        planner.observe(30 * MS, [7, 0, 0, 0])
        assert planner._est == [7, 0, 0, 0]

    def test_memcached_frames_carry_keys(self):
        d = make_planner().plan_until(1 * MS)[0]
        assert d.frame.dst == f"server{d.server_index}"
        assert d.frame.req_id is not None

    def test_least_loaded_balances_uniform_servers(self):
        planner = make_planner(n_servers=4)
        planner._spray = LeastLoadedSpray(4, random.Random(1), 64)
        planner.plan_until(20 * MS)
        low, high = min(planner.dispatched), max(planner.dispatched)
        assert high - low <= 1  # perfect rotation under equal estimates


class TestFrontendPort:
    def test_inject_books_sends_and_measures_rtts(self):
        from repro.net import Frame, Link, Switch
        from repro.net.packet import make_response
        from repro.sim.kernel import Simulator
        from repro.sim.units import US, gbps

        sim = Simulator()
        switch = Switch(sim, forward_latency_ns=1 * US)
        port = FrontendPort(sim, "frontend0")

        class Echo:  # bounce a response back 1 us after each request
            name = "server0"

            def __init__(self):
                self.link_port = None
                self.arrivals = []

            def receive_frame(self, frame):
                self.arrivals.append(sim.now)
                response = make_response(
                    "server0", "frontend0", 1250 - 66, req_id=frame.req_id
                )
                sim.schedule(1 * US, self.link_port.send, response)

        echo = Echo()
        for device in (port, echo):
            link = Link(sim, gbps(10), 1 * US)
            link.attach(device, switch)
            switch.attach_link(link, device.name)
            device_port = link.endpoint_port(device)
            if device is port:
                port.attach_port(device_port)
            else:
                echo.link_port = device_port
        frames = [
            Frame("frontend0", "server0", 1250 - 66, kind="request", req_id=i)
            for i in (1, 2, 3)
        ]
        port.inject(list(zip([10 * US, 10 * US, 40 * US], frames)))
        # Sends are booked when injected, at their planned times.
        assert port.sent == {1: 10 * US, 2: 10 * US, 3: 40 * US}
        assert port.requests_sent == 3
        sim.run()

        # Every 1250-wire-byte frame is 1 us on a 10 Gb/s wire.  Request 1:
        # wire 10-11, propagation to 12, forward to 13, wire 13-14,
        # propagation to 15.  Request 2 queues behind it on both wires.
        assert echo.arrivals == [15 * US, 16 * US, 45 * US]
        # Responses leave 1 us after arrival and take the same 5 us back.
        assert port.rtts == [(10 * US, 11 * US), (10 * US, 12 * US), (40 * US, 11 * US)]
        assert port.responses_received == 3
        assert port.outstanding == 0
        assert port.sent_in_window(0, 100 * US) == 3
        assert port.rtts_in_window(35 * US, 45 * US) == array("q", [11 * US])
