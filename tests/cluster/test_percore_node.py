"""Tests for the per-core DVFS / multi-queue extension (Section 7)."""

import pytest

from repro.cluster.percore_node import PerCoreServerNode
from repro.cpu.multidomain import MultiDomainProcessor
from repro.cpu.config import ProcessorConfig
from repro.net import make_http_request, make_memcached_request
from repro.net.multiqueue import MultiQueueNIC
from repro.sim import RngRegistry, Simulator
from repro.sim.units import MS
from repro.telemetry import Telemetry


class SinkPort:
    def send(self, frame):
        pass


class TestMultiDomainProcessor:
    def test_unique_core_ids(self):
        sim = Simulator()
        proc = MultiDomainProcessor(sim, ProcessorConfig(n_cores=4))
        assert [c.core_id for c in proc.cores] == [0, 1, 2, 3]

    def test_domains_retune_independently(self):
        sim = Simulator()
        proc = MultiDomainProcessor(sim, ProcessorConfig(n_cores=2))
        proc.domain_of(0).set_pstate(14)
        sim.run()
        assert proc.domain_of(0).pstate_index == 14
        assert proc.domain_of(1).pstate_index == 0

    def test_broadcast_set_pstate(self):
        sim = Simulator()
        proc = MultiDomainProcessor(sim, ProcessorConfig(n_cores=3))
        proc.set_pstate(7)
        sim.run()
        assert all(d.pstate_index == 7 for d in proc.domains)

    def test_at_max_requires_all_domains(self):
        sim = Simulator()
        proc = MultiDomainProcessor(sim, ProcessorConfig(n_cores=2))
        assert proc.at_max_performance
        proc.domain_of(1).set_pstate(5)
        assert not proc.at_max_performance

    def test_energy_report_merges_domains(self):
        sim = Simulator()
        proc = MultiDomainProcessor(sim, ProcessorConfig(n_cores=4))
        sim.schedule(MS, lambda: None)
        sim.run()
        report = proc.energy_report()
        assert report.residency_ns["idle"] == 4 * MS


class TestMultiQueueNIC:
    def test_flow_affinity_stable(self):
        sim = Simulator()
        nic = MultiQueueNIC(sim, n_queues=4)
        a = nic.queue_for(make_http_request("client0", "server"))
        b = nic.queue_for(make_http_request("client0", "server"))
        assert a is b

    def test_different_flows_can_spread(self):
        sim = Simulator()
        nic = MultiQueueNIC(sim, n_queues=4)
        queues = {
            nic.queues.index(
                nic.queue_for(make_http_request(f"client{i}", "server"))
            )
            for i in range(16)
        }
        assert len(queues) > 1

    def test_rx_lands_on_one_queue(self):
        sim = Simulator()
        nic = MultiQueueNIC(sim, n_queues=4)
        nic.receive_frame(make_http_request("client0", "server"))
        sim.run()
        pending = [q.rx_pending for q in nic.queues]
        assert sum(pending) == 1

    def test_queue_taps_see_only_their_flow(self):
        sim = Simulator()
        nic = MultiQueueNIC(sim, n_queues=4)
        seen = {i: [] for i in range(4)}
        for qid, q in enumerate(nic.queues):
            q.rx_hw_taps.append(lambda f, qid=qid: seen[qid].append(f))
        frame = make_http_request("clientX", "server")
        target = nic.queues.index(nic.queue_for(frame))
        nic.receive_frame(frame)
        sim.run()
        assert len(seen[target]) == 1
        assert all(not v for k, v in seen.items() if k != target)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiQueueNIC(Simulator(), n_queues=0)


class TestPerCoreServerNode:
    def make_node(self, app="memcached"):
        sim = Simulator()
        node = PerCoreServerNode(sim, "server", app, RngRegistry(2))
        node.attach_port(SinkPort())
        node.start()
        return sim, node

    def test_one_queue_and_domain_per_core(self):
        sim, node = self.make_node()
        n = len(node.processor.cores)
        assert len(node.nic.queues) == n
        assert len(node.ncap_hw) == n
        assert len(node.ondemand) == n

    def test_burst_boosts_only_target_domain(self):
        sim, node = self.make_node()
        for domain in node.processor.domains:
            domain.set_pstate(14)
        # Bounded run: the node's periodic governors/ticks never drain the
        # event heap, so an unbounded run() would spin forever.
        sim.run(until=int(0.1 * MS))
        # One flow -> one queue -> one domain boosted.
        frame = make_http_request("client0", "server", req_id=1)
        target = node.nic.queues.index(node.nic.queue_for(frame))
        base = int(0.2 * MS)
        for i in range(80):
            sim.schedule_at(
                base + i * 1_000, node.nic.receive_frame,
                make_http_request("client0", "server", req_id=i),
            )
        sim.run(until=int(0.8 * MS))
        assert node.processor.domains[target].effective_target_index == 0
        others = [
            d.effective_target_index
            for i, d in enumerate(node.processor.domains) if i != target
        ]
        assert all(idx == 14 for idx in others)

    def test_requests_complete_end_to_end(self):
        sim, node = self.make_node()
        for i in range(50):
            sim.schedule_at(
                i * 10_000, node.nic.receive_frame,
                make_http_request("client0", "server", req_id=i),
            )
        sim.run(until=20 * MS)
        assert node.app.responses_sent == 50

    def test_affinity_hint_reset_after_delivery(self):
        sim, node = self.make_node()
        node.nic.receive_frame(make_http_request("client0", "server", req_id=1))
        sim.run(until=5 * MS)
        assert node.app.affinity_hint is None

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            PerCoreServerNode(Simulator(), "s", "nginx", RngRegistry(1))

    def test_app_reports_to_the_node_telemetry(self):
        # A sink on the Telemetry the node was built with sees the app's
        # per-request accounting, and the app's counters join its registry.
        sim = Simulator()
        telemetry = Telemetry()
        node = PerCoreServerNode(
            sim, "server", "memcached", RngRegistry(2), telemetry=telemetry
        )
        node.attach_port(SinkPort())
        node.start()
        accounted = []
        telemetry.probes.subscribe("request.account", accounted.append)
        for i in range(40):
            sim.schedule_at(
                i * 10_000, node.nic.receive_frame,
                make_memcached_request(f"client{i % 8}", "server", req_id=i),
            )
        sim.run(until=10 * MS)
        assert node.app.responses_sent == 40
        assert sorted(event.req_id for event in accounted) == list(range(40))
        assert "app.requests" in telemetry.stats
