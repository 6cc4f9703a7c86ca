"""Node wiring: a full server (CPU + OS + NIC + app) and clients.

A :class:`ServerNode` assembles the whole stack for one policy:

- processor package (Table 1), scheduler, IRQ controller;
- cpufreq driver + the policy's P-state governor;
- cpuidle driver + menu governor (when the policy enables C-states);
- NIC + driver + the application (Apache or Memcached);
- NCAP hardware or software, when the policy asks for it.

The node itself is the link endpoint (frames for ``node.name`` terminate
at its NIC).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.apps import make_app
from repro.core.config import NCAPConfig
from repro.core.ncap_driver import NCAPDriverExtension
from repro.core.ncap_nic import NCAPHardware
from repro.core.ncap_sw import NCAPSoftware
from repro.cluster.policies import PolicyConfig, get_policy
from repro.cpu.config import ProcessorConfig
from repro.net.driver import NICDriver
from repro.net.link import LinkPort
from repro.net.nic import NIC
from repro.net.packet import Frame
from repro.oskernel.cpufreq import (
    CpufreqDriver,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.oskernel.cpuidle import CpuidleDriver, LadderGovernor, MenuGovernor
from repro.oskernel.irq import IRQController
from repro.oskernel.netstack import NetStackCosts
from repro.oskernel.scheduler import Scheduler
from repro.oskernel.sysfs import SysFS
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS
from repro.telemetry import Telemetry, ensure_telemetry


class ServerNode:
    """One OLDI server under a given power-management policy."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        policy: Union[str, PolicyConfig],
        app: str,
        rng: RngRegistry,
        telemetry: Optional[Telemetry] = None,
        processor: ProcessorConfig = ProcessorConfig(),
        ondemand_period_ns: int = 10 * MS,
        nic_dma_latency_ns: Optional[int] = None,
        ncap_base_config: Optional[NCAPConfig] = None,
    ):
        self.sim = sim
        self.name = name
        self.policy = get_policy(policy)
        self.app_name = app

        # One Telemetry instance is shared by every component of the node,
        # so the stats registry namespaces (nic.*, cpuidle.*, governor.*,
        # ncap.*, app.*) all live together and a single snapshot covers the
        # whole server.
        self.telemetry = ensure_telemetry(telemetry)

        self.package = processor.build_package(
            sim, name=f"{name}.cpu", telemetry=self.telemetry
        )
        self.scheduler = Scheduler(sim, self.package)
        self.irq = IRQController(sim, self.package)
        self.cpufreq = CpufreqDriver(sim, self.package)
        self.sysfs = SysFS()

        # -- P-state governor --
        self.ondemand: Optional[OndemandGovernor] = None
        if self.policy.governor == "ondemand":
            self.ondemand = OndemandGovernor(
                sim, self.cpufreq, self.irq, period_ns=ondemand_period_ns
            )
            self.governor = self.ondemand
        elif self.policy.governor == "powersave":
            self.governor = PowersaveGovernor(self.cpufreq)
        else:
            self.governor = PerformanceGovernor(self.cpufreq)

        # -- C-state governor --
        self.cpuidle: Optional[CpuidleDriver] = None
        if self.policy.cstates:
            if self.policy.cpuidle_governor == "ladder":
                idle_governor = LadderGovernor(
                    self.package.cstates, telemetry=self.telemetry
                )
            else:
                idle_governor = MenuGovernor(
                    self.package.cstates, telemetry=self.telemetry
                )
            self.cpuidle = CpuidleDriver(idle_governor, telemetry=self.telemetry)
            self.scheduler.idle_hook = self.cpuidle.on_core_idle

        # -- NIC + driver --
        nic_kwargs = {}
        if nic_dma_latency_ns is not None:
            nic_kwargs["dma_latency_ns"] = nic_dma_latency_ns
        self.nic = NIC(sim, name=name, telemetry=self.telemetry, **nic_kwargs)
        netstack = NetStackCosts()
        self.driver = NICDriver(sim, self.nic, self.irq, netstack)

        # -- application --
        self.app = make_app(
            app, sim, self.scheduler, self.driver, netstack,
            rng.stream(f"{name}.{app}"), name,
        )
        self.driver.packet_sink = self.app.on_packet

        # -- NCAP --
        self.ncap_hw: Optional[NCAPHardware] = None
        self.ncap_sw: Optional[NCAPSoftware] = None
        self.ncap_ext: Optional[NCAPDriverExtension] = None
        ncap_config = self.policy.ncap_config(ncap_base_config)
        if ncap_config is not None:
            self.ncap_ext = NCAPDriverExtension(
                ncap_config,
                self.cpufreq,
                self.scheduler,
                cpuidle=self.cpuidle,
                ondemand=self.ondemand,
            )
            if self.policy.ncap == "hw":
                self.ncap_hw = NCAPHardware(
                    sim,
                    self.nic,
                    ncap_config,
                    cpu_at_max=lambda: self.package.at_max_performance,
                )
                self.driver.icr_hooks.append(self.ncap_ext.on_icr)
                self.ncap_hw.register_sysfs(
                    self.sysfs, prefix=f"/sys/class/net/{name}/ncap"
                )
            else:
                self.ncap_sw = NCAPSoftware(
                    sim, self.driver, self.irq, ncap_config, self.ncap_ext,
                )

    # -- link endpoint (NetDevice) ------------------------------------------

    def receive_frame(self, frame: Frame) -> None:
        self.nic.receive_frame(frame)

    def attach_port(self, port: LinkPort) -> None:
        self.nic.attach_port(port)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        self.governor.start()
        if self.ncap_hw is not None:
            self.ncap_hw.start()
        if self.ncap_sw is not None:
            self.ncap_sw.start()

    def stop(self) -> None:
        self.governor.stop()
        if self.ncap_hw is not None:
            self.ncap_hw.stop()
        if self.ncap_sw is not None:
            self.ncap_sw.stop()

    # -- introspection ----------------------------------------------------------------

    def energy_report(self):
        return self.package.energy_report()

    @property
    def engine(self):
        """The active DecisionEngine, if any (hw or sw)."""
        if self.ncap_hw is not None:
            return self.ncap_hw.engine
        if self.ncap_sw is not None:
            return self.ncap_sw.engine
        return None
