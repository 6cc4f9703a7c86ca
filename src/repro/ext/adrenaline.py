"""An Adrenaline-style baseline (Hsu et al., HPCA 2015 — the paper's [32]).

Section 8 of the NCAP paper contrasts itself with Adrenaline, which

- identifies latency-critical requests **in a network-stack software
  layer** (so detection happens after DMA + interrupt + SoftIRQ, not at
  wire arrival), and
- boosts V/F **per query** using special on-chip voltage regulators and
  clock-delivery circuits that can switch in tens of nanoseconds,
  unboosting when the query completes.

This module implements that design on our substrate so the comparison can
be measured instead of argued: per-core V/F domains with a near-instant
DVFS timing model (the on-chip VR), SoftIRQ-context query detection (with
its per-packet cycle cost, like ncap.sw), per-core boost on query start,
and unboost when a core's last outstanding latency-critical query
finishes.  No NIC changes at all — that is the point of the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.apps import make_app
from repro.core.req_monitor import ReqMonitor
from repro.cpu.config import ProcessorConfig
from repro.cpu.multidomain import MultiDomainProcessor
from repro.net.driver import NICDriver
from repro.net.link import LinkPort
from repro.net.multiqueue import MultiQueueNIC
from repro.net.packet import Frame
from repro.oskernel.cpufreq import CpufreqDriver
from repro.oskernel.cpuidle import CpuidleDriver, MenuGovernor
from repro.oskernel.irq import IRQController
from repro.oskernel.netstack import NetStackCosts
from repro.oskernel.scheduler import Scheduler
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class AdrenalineConfig:
    """Tunables of the Adrenaline-style baseline."""

    #: On-chip VR switching time (tens of ns in the Adrenaline paper).
    vr_switch_ns: int = 100
    #: SoftIRQ cycles per packet for software query classification.
    inspect_cycles_per_packet: float = 1_500.0
    #: P-state used when a core has no outstanding boosted queries.
    idle_pstate: int = 14
    templates: tuple = (b"GET", b"get")


class AdrenalineServerNode:
    """Per-query V/F boosting with software detection (no NIC changes)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        app: str,
        rng: RngRegistry,
        processor: ProcessorConfig = ProcessorConfig(),
        config: AdrenalineConfig = AdrenalineConfig(),
    ):
        self.sim = sim
        self.name = name
        self.config = config
        # Fast per-core VRs: near-instant transitions, no shared V ramp.
        fast_processor = replace(
            processor,
            v_ramp_rate_mv_per_us=1e9,  # the on-chip VR swings V instantly
            pll_relock_us=config.vr_switch_ns / 1000,
            initial_pstate=config.idle_pstate,
        )
        # One registry and probe bus for the whole node, as ServerNode.
        self.telemetry = Telemetry()
        self.processor = MultiDomainProcessor(
            sim, fast_processor, name=f"{name}.cpu", telemetry=self.telemetry
        )
        self.scheduler = Scheduler(sim, self.processor)
        self.irq = IRQController(sim, self.processor)
        self.cpuidle = CpuidleDriver(
            MenuGovernor(self.processor.cstates, telemetry=self.telemetry),
            telemetry=self.telemetry,
        )
        self.scheduler.idle_hook = self.cpuidle.on_core_idle
        self.cpufreq: List[CpufreqDriver] = [
            CpufreqDriver(sim, domain) for domain in self.processor.domains
        ]

        n_queues = processor.n_cores
        self.nic = MultiQueueNIC(
            sim, name=name, n_queues=n_queues, telemetry=self.telemetry
        )
        self.monitor = ReqMonitor(
            config.templates, telemetry=self.telemetry, stats_prefix="adrenaline"
        )

        self._outstanding: Dict[int, int] = {i: 0 for i in range(n_queues)}
        self._req_core: Dict[int, int] = {}
        self.boosts = 0
        self.unboosts = 0
        self.drivers: List[NICDriver] = []
        netstack = NetStackCosts()
        for i, queue in enumerate(self.nic.queues):
            driver = NICDriver(
                sim, queue, self.irq, netstack, core_id=i,
                stats_prefix=f"driver.q{i}",
            )
            # Software classification in SoftIRQ context, with its cost.
            driver.extra_rx_cycles_per_packet += config.inspect_cycles_per_packet
            driver.packet_sink = self._make_sink(i)
            self.drivers.append(driver)
        self.app = make_app(
            app, sim, self.scheduler, self.drivers[0], netstack,
            rng.stream(f"{name}.{app}"), name,
        )

    # -- per-query boosting --------------------------------------------------

    def _make_sink(self, core_id: int):
        def sink(frame: Frame) -> None:
            boosted = False
            if frame.kind == "request" and self.monitor.inspect(frame):
                boosted = True
                self._query_started(core_id, frame)
            self.app.on_packet_pinned(core_id, frame)
            if boosted and frame.req_id is not None:
                self._req_core[frame.req_id] = core_id

        return sink

    def _query_started(self, core_id: int, frame: Frame) -> None:
        self._outstanding[core_id] += 1
        if self._outstanding[core_id] == 1:
            self.boosts += 1
            self.cpufreq[core_id].set_pstate(0)

    def _query_finished(self, req_id: int) -> None:
        core_id = self._req_core.pop(req_id, None)
        if core_id is None:
            return
        self._outstanding[core_id] -= 1
        if self._outstanding[core_id] <= 0:
            self._outstanding[core_id] = 0
            self.unboosts += 1
            self.cpufreq[core_id].set_pstate(self.config.idle_pstate)

    # -- link endpoint ------------------------------------------------------

    def receive_frame(self, frame: Frame) -> None:
        self.nic.receive_frame(frame)

    def attach_port(self, port: LinkPort) -> None:
        self.nic.attach_port(port)

    def start(self) -> None:
        # Hook query completion: a response leaving the app ends its query.
        original = self.app._send_response

        def send_and_unboost(frame: Frame, size: int, track=None) -> None:
            original(frame, size, track)
            if frame.req_id is not None:
                self._query_finished(frame.req_id)

        self.app._send_response = send_and_unboost  # type: ignore[method-assign]

    def stop(self) -> None:
        pass

    def energy_report(self):
        return self.processor.energy_report()
