"""Tests for server-node wiring."""

import pytest

from repro.apps.apache import ApacheApp
from repro.apps.memcached import MemcachedApp
from repro.cluster.node import ServerNode
from repro.oskernel.cpufreq import OndemandGovernor, PerformanceGovernor
from repro.sim import RngRegistry, Simulator
from repro.telemetry import Telemetry
from tests.probe_log import ProbeLog


def make_node(policy="perf", app="apache", telemetry=None):
    sim = Simulator()
    node = ServerNode(
        sim, "server", policy, app, RngRegistry(1), telemetry=telemetry
    )
    return sim, node


class TestWiring:
    def test_perf_has_no_cpuidle_or_ncap(self):
        sim, node = make_node("perf")
        assert isinstance(node.governor, PerformanceGovernor)
        assert node.cpuidle is None
        assert node.ncap_hw is None and node.ncap_sw is None
        assert node.engine is None

    def test_ond_idle_has_both_governors(self):
        sim, node = make_node("ond.idle")
        assert isinstance(node.governor, OndemandGovernor)
        assert node.cpuidle is not None
        assert node.scheduler.idle_hook is not None

    def test_ncap_hw_wiring(self):
        sim, node = make_node("ncap.cons")
        assert node.ncap_hw is not None
        assert node.ncap_sw is None
        assert node.ncap_ext is not None
        assert node.ncap_ext.on_icr in node.driver.icr_hooks
        assert node.engine is node.ncap_hw.engine
        # ReqMonitor is tapped into the NIC hardware rx path.
        assert node.ncap_hw.req_monitor.inspect in node.nic.rx_hw_taps

    def test_ncap_sw_wiring(self):
        sim, node = make_node("ncap.sw")
        assert node.ncap_sw is not None
        assert node.ncap_hw is None
        assert node.driver.extra_rx_cycles_per_packet > 0
        assert node.engine is node.ncap_sw.engine

    def test_apps_selected_by_name(self):
        assert isinstance(make_node(app="apache")[1].app, ApacheApp)
        assert isinstance(make_node(app="memcached")[1].app, MemcachedApp)
        with pytest.raises(ValueError):
            make_node(app="nginx")

    def test_packet_sink_is_the_app(self):
        sim, node = make_node()
        assert node.driver.packet_sink == node.app.on_packet

    def test_sysfs_exposes_ncap_for_hw_policy(self):
        sim, node = make_node("ncap.cons")
        assert node.sysfs.exists("/sys/class/net/server/ncap/templates")

    def test_trace_wires_cstate_channels(self):
        # A sink on a shared Telemetry sees the node's probe points: the
        # package announces its starting P-state at build time, and every
        # core's C-state transitions arrive on the same bus.
        telemetry = Telemetry()
        log = telemetry.add_sink(ProbeLog())
        sim, node = make_node("ond.idle", telemetry=telemetry)
        assert node.telemetry is telemetry
        assert [e.domain for e in log.events["cpu.pstate"]] == ["server.cpu"]
        node.start()
        sim.run(until=20_000_000)
        cores = {e.core_id for e in log.events["cpu.cstate"]}
        assert cores == {core.core_id for core in node.package.cores}

    def test_start_pins_performance_at_p0(self):
        sim, node = make_node("perf")
        node.package.set_pstate(14)
        sim.run()
        node.start()
        sim.run()
        assert node.package.pstate_index == 0

    def test_stop_halts_ncap(self):
        sim, node = make_node("ncap.cons")
        node.start()
        sim.run(until=1_000_000)
        ticks = node.engine.ticks
        node.stop()
        sim.run(until=3_000_000)
        assert node.engine.ticks == ticks

    def test_nic_dma_override(self):
        sim = Simulator()
        node = ServerNode(
            sim, "server", "perf", "apache", RngRegistry(1),
            nic_dma_latency_ns=50_000,
        )
        assert node.nic.dma_latency_ns == 50_000
