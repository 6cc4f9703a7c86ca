"""Per-core NCAP server (the Section 7 multi-queue extension).

A server where every core owns its own V/F domain and its own NIC rx
queue:

- RSS steers each client flow to a fixed queue/core, and RFS-style
  affinity keeps that flow's request processing on the same core;
- every queue carries its own NCAP hardware (ReqMonitor + DecisionEngine),
  driving *only its* core's cpufreq/cpuidle — per-core instead of
  chip-wide P/C-state changes;
- each domain runs its own ondemand instance, and the menu governor is
  disabled/enabled per core.

Compare against the chip-wide :class:`ServerNode` under ``ncap.cons`` with
``benchmarks/bench_percore_ncap.py``.
"""

from __future__ import annotations

import functools
from typing import List, Optional

from repro.apps import make_app
from repro.core.config import NCAPConfig
from repro.core.ncap_driver import NCAPDriverExtension
from repro.core.ncap_nic import NCAPHardware
from repro.cpu.config import ProcessorConfig
from repro.cpu.core import Core
from repro.cpu.multidomain import MultiDomainProcessor
from repro.net.driver import NICDriver
from repro.net.link import LinkPort
from repro.net.multiqueue import MultiQueueNIC
from repro.net.packet import Frame
from repro.oskernel.cpufreq import CpufreqDriver, OndemandGovernor
from repro.oskernel.cpuidle import CpuidleDriver, MenuGovernor
from repro.oskernel.irq import IRQController
from repro.oskernel.netstack import NetStackCosts
from repro.oskernel.scheduler import Scheduler
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS
from repro.telemetry import Telemetry, ensure_telemetry


class PerCoreCpuidle:
    """Routes idle notifications to one CpuidleDriver per core, so NCAP can
    disable the menu governor on a single core."""

    def __init__(
        self,
        processor: MultiDomainProcessor,
        telemetry: Optional[Telemetry] = None,
    ):
        telemetry = ensure_telemetry(telemetry)
        governor = MenuGovernor(processor.cstates, telemetry=telemetry)
        self.drivers: List[CpuidleDriver] = [
            CpuidleDriver(
                governor,
                telemetry=telemetry,
                stats_prefix=f"cpuidle.core{core.core_id}",
            )
            for core in processor.cores
        ]

    def on_core_idle(self, core: Core) -> None:
        self.drivers[core.core_id].on_core_idle(core)

    def driver_for(self, core_id: int) -> CpuidleDriver:
        return self.drivers[core_id]


class PerCoreServerNode:
    """An OLDI server with per-core DVFS and per-queue NCAP."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        app: str,
        rng: RngRegistry,
        telemetry: Optional[Telemetry] = None,
        processor: ProcessorConfig = ProcessorConfig(),
        ondemand_period_ns: int = 10 * MS,
        ncap_config: Optional[NCAPConfig] = None,
        fcons: int = 5,
    ):
        self.sim = sim
        self.name = name
        self.app_name = app
        # One Telemetry instance spans all domains/queues and the app;
        # per-instance stats prefixes (cpuidle.core<N>, nic.q<N>,
        # driver.q<N>, ncap.q<N>) keep each replica's counters separate
        # within the shared registry.
        self.telemetry = ensure_telemetry(telemetry)
        self.processor = MultiDomainProcessor(
            sim, processor, name=f"{name}.cpu", telemetry=self.telemetry
        )
        self.scheduler = Scheduler(sim, self.processor)  # facade: .cores
        self.irq = IRQController(sim, self.processor)
        self.cpuidle = PerCoreCpuidle(self.processor, telemetry=self.telemetry)
        self.scheduler.idle_hook = self.cpuidle.on_core_idle

        # Per-domain cpufreq + ondemand (each samples and runs on its core).
        self.cpufreq: List[CpufreqDriver] = []
        self.ondemand: List[OndemandGovernor] = []
        for i, domain in enumerate(self.processor.domains):
            driver = CpufreqDriver(sim, domain)
            governor = OndemandGovernor(
                sim, driver, self.irq, period_ns=ondemand_period_ns, core_id=i
            )
            self.cpufreq.append(driver)
            self.ondemand.append(governor)

        # NIC: one queue per core, one driver per queue.
        self.nic = MultiQueueNIC(
            sim, name=name, n_queues=processor.n_cores, telemetry=self.telemetry
        )
        netstack = NetStackCosts()
        self.drivers: List[NICDriver] = [
            NICDriver(
                sim, queue, self.irq, netstack, core_id=i,
                stats_prefix=f"driver.q{i}",
            )
            for i, queue in enumerate(self.nic.queues)
        ]
        # The app transmits through the shared tx path via the first
        # driver; affinity hints keep each flow on its RSS core.
        self.app = make_app(
            app, sim, self.scheduler, self.drivers[0], netstack,
            rng.stream(f"{name}.{app}"), name,
        )

        config = ncap_config or NCAPConfig(fcons=fcons)
        self.ncap_hw: List[NCAPHardware] = []
        self.ncap_ext: List[NCAPDriverExtension] = []
        for i, (queue, driver) in enumerate(zip(self.nic.queues, self.drivers)):
            driver.packet_sink = functools.partial(self.app.on_packet_pinned, i)
            domain = self.processor.domains[i]
            hardware = NCAPHardware(
                sim, queue, config,
                cpu_at_max=lambda d=domain: d.at_max_performance,
                stats_prefix=f"ncap.q{i}",
            )
            extension = NCAPDriverExtension(
                config,
                self.cpufreq[i],
                self.scheduler,
                cpuidle=self.cpuidle.driver_for(i),
                ondemand=self.ondemand[i],
                wake_core=self.processor.cores[i],
            )
            driver.icr_hooks.append(extension.on_icr)
            self.ncap_hw.append(hardware)
            self.ncap_ext.append(extension)

    # -- link endpoint ------------------------------------------------------

    def receive_frame(self, frame: Frame) -> None:
        self.nic.receive_frame(frame)

    def attach_port(self, port: LinkPort) -> None:
        self.nic.attach_port(port)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        for governor in self.ondemand:
            governor.start()
        for hardware in self.ncap_hw:
            hardware.start()

    def stop(self) -> None:
        for governor in self.ondemand:
            governor.stop()
        for hardware in self.ncap_hw:
            hardware.stop()

    # -- accounting ----------------------------------------------------------------

    def energy_report(self):
        return self.processor.energy_report()

    def total_it_high_posts(self) -> int:
        return sum(h.engine.it_high_posts for h in self.ncap_hw)

    def total_immediate_rx_posts(self) -> int:
        return sum(h.engine.immediate_rx_posts for h in self.ncap_hw)
