"""Tests for the Adrenaline-style baseline extension."""

import pytest

from repro.ext.adrenaline import AdrenalineConfig, AdrenalineServerNode
from repro.net import make_http_request, make_memcached_request
from repro.sim import RngRegistry, Simulator
from repro.sim.units import MS, US


class SinkPort:
    def send(self, frame):
        pass


def make_node(app="memcached", config=None):
    sim = Simulator()
    node = AdrenalineServerNode(
        sim, "server", app, RngRegistry(5), config=config or AdrenalineConfig()
    )
    node.attach_port(SinkPort())
    node.start()
    return sim, node


class TestBoosting:
    def test_query_boosts_target_core(self):
        sim, node = make_node()
        frame = make_memcached_request("client0", "server", req_id=1)
        target = node.nic.queues.index(node.nic.queue_for(frame))
        node.nic.receive_frame(frame)
        sim.run(until=MS)
        # Boosted on query start; by now the query completed and unboosted.
        assert node.boosts == 1
        assert node.unboosts == 1
        assert (
            node.processor.domains[target].pstate_index
            == node.config.idle_pstate
        )

    def test_boost_only_while_queries_outstanding(self):
        sim, node = make_node()
        frame = make_memcached_request("client0", "server", req_id=7)
        target = node.nic.queues.index(node.nic.queue_for(frame))
        node.nic.receive_frame(frame)
        # Shortly after softirq delivery the domain heads to P0.
        sim.run(until=80 * US)
        assert node.processor.domains[target].effective_target_index == 0

    def test_non_critical_requests_not_boosted(self):
        sim, node = make_node()
        node.nic.receive_frame(
            make_memcached_request("client0", "server", command="set", req_id=2)
        )
        sim.run(until=MS)
        assert node.boosts == 0

    def test_overlapping_queries_single_boost_cycle(self):
        sim, node = make_node()
        for i in range(10):
            sim.schedule_at(
                i * 1_000,
                node.nic.receive_frame,
                make_memcached_request("client0", "server", req_id=100 + i),
            )
        sim.run(until=3 * MS)
        # All ten on one flow/core; boost once, unboost once at the end.
        assert node.boosts == 1
        assert node.unboosts == 1
        assert node.app.responses_sent == 10

    def test_vr_switching_is_fast(self):
        # The on-chip VR model: a full-range transition takes ~the
        # configured switch time, not the 93 us of the shared regulator.
        sim, node = make_node()
        domain = node.processor.domains[0]
        timing = domain.dvfs_timing
        total = timing.total_latency_ns(domain.pstates.deepest, domain.pstates.p0)
        assert total <= 2 * node.config.vr_switch_ns

    def test_apache_variant_works(self):
        sim, node = make_node(app="apache")
        node.nic.receive_frame(make_http_request("client0", "server", req_id=1))
        sim.run(until=10 * MS)
        assert node.app.responses_sent == 1

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            AdrenalineServerNode(Simulator(), "s", "nginx", RngRegistry(1))

    def test_inspection_cost_charged(self):
        config = AdrenalineConfig(inspect_cycles_per_packet=50_000)
        sim, node = make_node(config=config)
        for driver in node.drivers:
            assert driver.extra_rx_cycles_per_packet == 50_000

    def test_node_components_share_one_telemetry(self):
        # One registry covers the whole node: CPU, cpuidle, every queue
        # and its driver, and the app.
        sim, node = make_node()
        node.nic.receive_frame(
            make_memcached_request("client0", "server", req_id=3)
        )
        sim.run(until=MS)
        telemetry = node.telemetry
        assert node.processor.telemetry is telemetry
        assert node.cpuidle.telemetry is telemetry
        assert node.app.telemetry is telemetry
        assert all(q.telemetry is telemetry for q in node.nic.queues)
        stats = telemetry.stats
        assert stats.value("app.requests") == 1
        assert sum(
            stats.value(f"driver.q{i}.frames_delivered")
            for i in range(len(node.drivers))
        ) == 1
