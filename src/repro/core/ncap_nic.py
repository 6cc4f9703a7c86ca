"""The enhanced NIC: wiring ReqMonitor, TxBytesCounter and DecisionEngine
into a baseline NIC (Figure 5(a)–(c) of the paper).

Everything in this module is *hardware*: packet inspection happens at wire
arrival (before DMA), the MITT evaluation tick costs no CPU cycles, and
decisions are delivered to the processor as NIC interrupts with the new
``IT_HIGH``/``IT_LOW`` ICR bits — which is exactly how NCAP hides the
P/C-state transition penalty behind the NIC→memory delivery latency.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.config import NCAPConfig
from repro.core.decision_engine import DecisionEngine
from repro.core.req_monitor import ReqMonitor
from repro.core.tx_counter import TxBytesCounter
from repro.net.nic import NIC
from repro.oskernel.sysfs import DirAttribute, SysFS
from repro.sim.kernel import Event, Simulator


class NCAPHardware:
    """ReqMonitor + TxBytesCounter + DecisionEngine bolted onto a NIC."""

    def __init__(
        self,
        sim: Simulator,
        nic: NIC,
        config: NCAPConfig,
        cpu_at_max: Callable[[], bool],
        stats_prefix: str = "ncap",
    ):
        self._sim = sim
        self.nic = nic
        self.config = config
        # The NIC's telemetry is the natural home: the monitor/counter/
        # engine are hardware blocks on that NIC.
        self.telemetry = telemetry = nic.telemetry
        self.req_monitor = ReqMonitor(
            config.templates, telemetry=telemetry, stats_prefix=stats_prefix
        )
        self.tx_counter = TxBytesCounter(
            telemetry=telemetry, stats_prefix=stats_prefix
        )
        self.engine = DecisionEngine(
            sim,
            config,
            req_count=lambda: self.req_monitor.req_cnt,
            tx_bytes=lambda: self.tx_counter.tx_bytes,
            post=nic.post_interrupt_now,
            last_interrupt_ns=lambda: nic.moderator.last_fire_ns,
            cpu_at_max=cpu_at_max,
            enable_cit=True,
            name=f"{nic.name}.ncap",
            telemetry=telemetry,
            stats_prefix=stats_prefix,
        )
        nic.rx_hw_taps.append(self.req_monitor.inspect)
        nic.tx_hw_taps.append(self.tx_counter.observe)
        self.req_monitor.count_listeners.append(self.engine.on_req_count_change)
        self._tick_event: Optional[Event] = None
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Arm the MITT evaluation tick."""
        if self._running:
            return
        self._running = True
        self.engine.start()
        self._tick_event = self._sim.schedule(
            self.config.mitt_period_ns, self._mitt_tick
        )

    def stop(self) -> None:
        self._running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _mitt_tick(self) -> None:
        if not self._running:
            return
        self.engine.tick()
        self._tick_event = self._sim.schedule(
            self.config.mitt_period_ns, self._mitt_tick
        )

    # -- administration -------------------------------------------------------

    def register_sysfs(self, sysfs: SysFS, prefix: str = "/sys/class/net/eth0/ncap") -> None:
        """Expose the paper's programmable registers through sysfs.

        The template registers are writable; the thresholds are read-only
        views of the engine's config, and ``reqcnt``/``txcnt`` of the
        live counters.
        """
        sysfs.register_dir(prefix, self, SYSFS_ATTRIBUTES)


def _read_templates(hw: NCAPHardware) -> str:
    return ",".join(t.decode("latin-1") for t in hw.req_monitor.templates)


def _write_templates(hw: NCAPHardware, value: str) -> None:
    hw.req_monitor.program_templates(
        [t.encode("latin-1") for t in value.split(",") if t]
    )


#: NCAP's sysfs directory, one table for every NIC: name -> (read, write).
SYSFS_ATTRIBUTES: Dict[str, DirAttribute] = {
    "templates": (_read_templates, _write_templates),
    "rht_rps": (lambda hw: str(hw.engine.config.rht_rps), None),
    "rlt_rps": (lambda hw: str(hw.engine.config.rlt_rps), None),
    "tlt_bps": (lambda hw: str(hw.engine.config.tlt_bps), None),
    "cit_us": (lambda hw: str(hw.engine.config.cit_ns // 1000), None),
    "fcons": (lambda hw: str(hw.engine.config.fcons), None),
    "reqcnt": (lambda hw: str(hw.req_monitor.req_cnt), None),
    "txcnt": (lambda hw: str(hw.tx_counter.tx_bytes), None),
}
