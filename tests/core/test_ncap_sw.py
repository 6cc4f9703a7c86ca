"""Tests for the software NCAP variant (ncap.sw)."""

from repro.core import NCAPConfig, NCAPDriverExtension, NCAPSoftware
from repro.cpu import ProcessorConfig
from repro.net import NIC, NICDriver, make_http_request
from repro.oskernel import (
    CpufreqDriver,
    CpuidleDriver,
    IRQController,
    MenuGovernor,
    NetStackCosts,
    Scheduler,
)
from repro.sim import Simulator
from repro.sim.units import MS


class Rig:
    def __init__(self, config=None, initial_pstate=14):
        self.sim = Simulator()
        self.package = ProcessorConfig(
            n_cores=4, initial_pstate=initial_pstate
        ).build_package(self.sim)
        self.scheduler = Scheduler(self.sim, self.package)
        self.cpufreq = CpufreqDriver(self.sim, self.package)
        self.irq = IRQController(self.sim, self.package)
        self.cpuidle = CpuidleDriver(MenuGovernor(self.package.cstates))
        self.scheduler.idle_hook = self.cpuidle.on_core_idle
        self.nic = NIC(self.sim)
        self.driver = NICDriver(self.sim, self.nic, self.irq, NetStackCosts())
        self.driver.packet_sink = lambda f: None
        self.config = config or NCAPConfig(fcons=1)
        self.ext = NCAPDriverExtension(
            self.config, self.cpufreq, self.scheduler, cpuidle=self.cpuidle
        )
        self.sw = NCAPSoftware(
            self.sim, self.driver, self.irq, self.config, self.ext
        )
        self.sw.start()

    def send_burst(self, n, start_ns=0, gap_ns=1_000):
        for i in range(n):
            self.sim.schedule_at(
                start_ns + i * gap_ns,
                self.nic.receive_frame,
                make_http_request("client", "server", req_id=i),
            )


class TestSoftwareVariant:
    def test_burst_detected_and_boosted(self):
        rig = Rig(initial_pstate=14)
        rig.send_burst(60)
        # Check at 2.5 ms: the 1 ms timer has seen the burst and boosted;
        # the post-burst IT_LOW has not completed its window yet.
        rig.sim.run(until=int(2.5 * MS))
        assert rig.sw.engine.it_high_posts >= 1
        assert rig.package.pstate_index == 0

    def test_reaction_slower_than_hardware_tick(self):
        # Decisions only at the 1 ms timer: the boost cannot land before
        # the first timer expiry.
        rig = Rig(initial_pstate=14)
        rig.send_burst(60)
        rig.sim.run(until=5 * MS)
        wakes = rig.sw.engine.wake_interrupt_times()
        assert wakes and wakes[0] >= 1 * MS

    def test_per_packet_inspection_overhead_charged(self):
        config = NCAPConfig(fcons=1, sw_inspect_cycles_per_packet=50_000)
        rig = Rig(config)
        rig.send_burst(100)
        rig.sim.run(until=5 * MS)
        # 100 packets x 50 K cycles ~= 6.2 ms of core-0 time at 0.8 GHz:
        # the inspection overhead is visible as busy time.
        assert rig.package.cores[0].busy_ns_total() > 2 * MS

    def test_no_cit_immediate_wake(self):
        rig = Rig()
        rig.sim.schedule_at(
            5 * MS, rig.nic.receive_frame, make_http_request("c", "s")
        )
        rig.sim.run(until=7 * MS)
        assert rig.sw.engine.immediate_rx_posts == 0

    def test_timer_keeps_expiring(self):
        rig = Rig()
        rig.sim.run(until=5 * MS + MS // 2)
        assert rig.sw.timer_expirations == 5

    def test_stop_halts_timer(self):
        rig = Rig()
        rig.sim.run(until=2 * MS)
        rig.sw.stop()
        rig.sim.run(until=6 * MS)
        assert rig.sw.timer_expirations == 2

    def test_set_requests_not_counted(self):
        from repro.net import make_memcached_request

        rig = Rig()
        for i in range(10):
            rig.sim.schedule_at(
                i * 1000,
                rig.nic.receive_frame,
                make_memcached_request("c", "s", command="set"),
            )
        rig.sim.run(until=3 * MS)
        assert rig.sw.req_monitor.req_cnt == 0
