"""``ncap.sw`` — the software implementation of NCAP (Section 5).

ReqMonitor runs as a function in the receive SoftIRQ for *every* packet
(cycles charged per packet), TxCnt is read from NIC statistics, and a 1 ms
high-resolution kernel timer evaluates the DecisionEngine logic (cycles
charged per expiry).  Detection happens only after a packet has traversed
DMA + interrupt + SoftIRQ, so — unlike the hardware variant — nothing
overlaps the delivery latency, and the per-packet inspection overhead
steals CPU from packet/request processing at high load.  Both effects are
what the paper measures: ncap.sw trails the hardware NCAP in latency and
collapses at high load.

The CIT immediate-wake path does not exist here: by the time software sees
the request, the core handling it is already awake.
"""

from __future__ import annotations

from repro.core.config import NCAPConfig
from repro.core.decision_engine import DecisionEngine
from repro.core.ncap_driver import NCAPDriverExtension
from repro.core.req_monitor import ReqMonitor
from repro.core.tx_counter import TxBytesCounter
from repro.net.driver import NICDriver
from repro.net.packet import Frame
from repro.oskernel.irq import IRQController
from repro.oskernel.timers import PeriodicKernelTask
from repro.sim.kernel import Simulator


class NCAPSoftware:
    """Kernel-only NCAP: SoftIRQ inspection + hrtimer decisions."""

    def __init__(
        self,
        sim: Simulator,
        driver: NICDriver,
        irq: IRQController,
        config: NCAPConfig,
        extension: NCAPDriverExtension,
    ):
        self._sim = sim
        self._driver = driver
        self.config = config
        self.extension = extension
        self.telemetry = telemetry = driver.telemetry
        self.req_monitor = ReqMonitor(config.templates, telemetry=telemetry)
        self.tx_counter = TxBytesCounter(telemetry=telemetry)

        driver.rx_sw_taps.append(self._inspect_packet)
        driver.extra_rx_cycles_per_packet += config.sw_inspect_cycles_per_packet
        driver.nic.tx_hw_taps.append(self.tx_counter.observe)

        self.engine = DecisionEngine(
            sim,
            config,
            req_count=lambda: self.req_monitor.req_cnt,
            tx_bytes=lambda: self.tx_counter.tx_bytes,
            post=extension.on_icr,  # already in kernel context: call directly
            last_interrupt_ns=lambda: driver.nic.moderator.last_fire_ns,
            cpu_at_max=lambda: False,  # resolved by the extension's own checks
            enable_cit=False,
            name=f"{driver.nic.name}.ncap_sw",
            telemetry=telemetry,
        )
        self._timer = PeriodicKernelTask(
            sim,
            irq,
            config.sw_timer_period_ns,
            config.sw_decision_cycles,
            self.engine.tick,
            core_id=driver.core_id,
            name="ncap-sw-timer",
        )

    def _inspect_packet(self, frame: Frame) -> None:
        # SoftIRQ-context inspection (cycles charged via the driver's
        # extra_rx_cycles_per_packet).
        self.req_monitor.inspect(frame)

    def start(self) -> None:
        self.engine.start()
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    @property
    def timer_expirations(self) -> int:
        return self._timer.expirations
