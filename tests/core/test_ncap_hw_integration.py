"""Integration tests: enhanced NIC + enhanced driver on a live rx path.

These exercise the paper's headline mechanism end to end: a burst of GET
packets arriving at the NIC boosts the package to P0 and wakes sleeping
cores *before* the packets finish their DMA + SoftIRQ journey.
"""

import pytest

from repro.core import NCAPConfig, NCAPDriverExtension, NCAPHardware
from repro.cpu import ProcessorConfig
from repro.net import NIC, NICDriver, make_http_request
from repro.oskernel import (
    CpufreqDriver,
    CpuidleDriver,
    IRQController,
    MenuGovernor,
    NetStackCosts,
    Scheduler,
    SysFS,
    SysfsError,
)
from repro.sim import Simulator
from repro.sim.units import MS, US


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
        self.config = config or NCAPConfig()
        self.hw = NCAPHardware(
            self.sim, self.nic, self.config,
            cpu_at_max=lambda: self.package.at_max_performance,
        )
        self.ext = NCAPDriverExtension(
            self.config, self.cpufreq, self.scheduler, cpuidle=self.cpuidle
        )
        self.driver.icr_hooks.append(self.ext.on_icr)
        self.delivered = []
        self.driver.packet_sink = lambda f: self.delivered.append((self.sim.now, f))
        self.hw.start()

    def send_burst(self, n, start_ns=0, gap_ns=1_000):
        for i in range(n):
            self.sim.schedule_at(
                start_ns + i * gap_ns,
                self.nic.receive_frame,
                make_http_request("client", "server", req_id=i),
            )


class TestProactiveBoost:
    def test_burst_boosts_before_delivery_completes(self):
        rig = Rig(initial_pstate=14)
        rig.send_burst(30)
        # Check at 500 us: the burst has been detected and the up-transition
        # (ramp + PLL, ~93 us) has completed; the post-burst IT_LOW step-down
        # happens later (after the 1 ms sustained-low window).
        rig.sim.run(until=500 * US)
        assert rig.package.pstate_index == 0
        assert rig.hw.engine.it_high_posts >= 1

    def test_boost_overlaps_delivery_latency(self):
        # The IT_HIGH (or immediate IT_RX) fires before the first packet's
        # SoftIRQ delivery: wake/boost overlaps DMA + moderation.
        rig = Rig(initial_pstate=14)
        rig.send_burst(30)
        rig.sim.run(until=2 * MS)
        wake_times = rig.hw.engine.wake_interrupt_times()
        first_delivery = rig.delivered[0][0]
        assert wake_times and wake_times[0] < first_delivery

    def test_lone_request_after_idle_triggers_cit_wake(self):
        rig = Rig()
        # Sleep all cores, then one request arrives after a long silence.
        for core in rig.package.cores:
            core.enter_sleep(rig.package.cstates.by_name("C6"))
        rig.sim.schedule_at(
            5 * MS, rig.nic.receive_frame, make_http_request("c", "s", req_id=1)
        )
        rig.sim.run(until=6 * MS)
        assert rig.hw.engine.immediate_rx_posts == 1
        # The wake interrupt preceded the packet's own moderated interrupt.
        assert rig.delivered
        assert rig.hw.engine.wake_interrupt_times()[0] == 5 * MS

    def test_non_critical_traffic_does_not_boost(self):
        rig = Rig(initial_pstate=14)
        # Heavy PUT traffic: high packet rate, zero template matches.
        for i in range(50):
            rig.sim.schedule_at(
                i * 1_000,
                rig.nic.receive_frame,
                make_http_request("c", "s", method="PUT", req_id=i),
            )
        rig.sim.run(until=2 * MS)
        assert rig.hw.engine.it_high_posts == 0
        assert rig.package.pstate_index == 14

    def test_it_low_lowers_after_quiet_period(self):
        rig = Rig(NCAPConfig(fcons=1), initial_pstate=14)
        rig.send_burst(30)
        rig.sim.run(until=10 * MS)  # burst, then >1 ms of silence
        assert rig.hw.engine.it_low_posts >= 1
        assert rig.package.pstate_index == rig.package.pstates.max_index

    def test_menu_disabled_during_burst_reenabled_after(self):
        rig = Rig(NCAPConfig(fcons=1), initial_pstate=14)
        rig.send_burst(30)
        rig.sim.run(until=500 * US)
        assert not rig.cpuidle.enabled
        rig.sim.run(until=10 * MS)
        assert rig.cpuidle.enabled


class TestSysfs:
    def test_registers_exposed_and_programmable(self):
        rig = Rig()
        fs = SysFS()
        rig.hw.register_sysfs(fs)
        assert fs.read("/sys/class/net/eth0/ncap/templates") == "GET,get"
        fs.write("/sys/class/net/eth0/ncap/templates", "HEAD,GET")
        assert rig.hw.req_monitor.matches(b"HEAD /x ")

    def test_counters_readable(self):
        rig = Rig()
        fs = SysFS()
        rig.hw.register_sysfs(fs)
        rig.send_burst(3)
        rig.sim.run(until=MS)
        assert int(fs.read("/sys/class/net/eth0/ncap/reqcnt")) == 3

    def test_thresholds_and_counters_are_read_only(self):
        rig = Rig(NCAPConfig(rht_rps=40_000.0, cit_ns=300 * US, fcons=2))
        fs = SysFS()
        rig.hw.register_sysfs(fs)
        prefix = "/sys/class/net/eth0/ncap"
        assert fs.ls(prefix) == [
            f"{prefix}/{name}"
            for name in ("cit_us", "fcons", "reqcnt", "rht_rps", "rlt_rps",
                         "templates", "tlt_bps", "txcnt")
        ]
        shown = {
            name: fs.read(f"{prefix}/{name}")
            for name in ("rht_rps", "rlt_rps", "tlt_bps", "cit_us", "fcons")
        }
        assert shown == {
            "rht_rps": "40000.0", "rlt_rps": "5000.0", "tlt_bps": "5000000.0",
            "cit_us": "300", "fcons": "2",
        }
        for name in (*shown, "reqcnt", "txcnt"):
            with pytest.raises(SysfsError, match=f"{name} is read-only"):
                fs.write(f"{prefix}/{name}", "1")
        assert fs.read(f"{prefix}/rht_rps") == "40000.0"
        assert rig.hw.engine.config.rht_rps == 40_000.0

    def test_servers_share_one_attribute_table(self):
        rigs = [Rig(), Rig()]
        fs = SysFS()
        for i, rig in enumerate(rigs):
            rig.hw.register_sysfs(fs, prefix=f"/sys/class/net/server{i}/ncap")
        rigs[1].send_burst(2)
        rigs[1].sim.run(until=MS)
        assert fs.read("/sys/class/net/server0/ncap/reqcnt") == "0"
        assert fs.read("/sys/class/net/server1/ncap/reqcnt") == "2"
        assert len(fs.ls()) == 16


class TestLifecycle:
    def test_stop_halts_ticks(self):
        rig = Rig()
        rig.sim.run(until=MS)
        ticks = rig.hw.engine.ticks
        rig.hw.stop()
        rig.sim.run(until=3 * MS)
        assert rig.hw.engine.ticks == ticks

    def test_start_idempotent(self):
        rig = Rig()
        rig.hw.start()
        rig.sim.run(until=MS)
        # One tick per MITT period, not two.
        assert rig.hw.engine.ticks == pytest.approx(
            MS // rig.config.mitt_period_ns, abs=1
        )
