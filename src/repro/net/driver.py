"""NIC device driver: top half, NAPI-style SoftIRQ bottom half, transmit.

The receive flow matches Figure 3 of the paper: the posted interrupt
preempts (or wakes) the housekeeping core, the top half reads the ICR and
schedules a SoftIRQ; the SoftIRQ processes a batch of frames through the
network stack (per-packet kernel cycles) and hands each to the registered
packet sink (the server application's socket).

Hook points used by NCAP:

- ``icr_hooks`` — called from hardirq context with the ICR bits, before the
  NAPI poll is scheduled.  The enhanced NCAP handler (Figure 5(d)) is one
  of these.
- ``rx_sw_taps`` + ``extra_rx_cycles_per_packet`` — per-packet software
  inspection in SoftIRQ context, used by the ``ncap.sw`` variant, which
  also pays its inspection cost here.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.interrupts import ICR
from repro.net.nic import NIC
from repro.net.packet import Frame
from repro.oskernel.irq import IRQController
from repro.oskernel.netstack import NetStackCosts
from repro.sim.kernel import Simulator
from repro.telemetry import RequestPhase


class NICDriver:
    """Kernel driver bound to one NIC."""

    def __init__(
        self,
        sim: Simulator,
        nic: NIC,
        irq: IRQController,
        costs: NetStackCosts = NetStackCosts(),
        core_id: int = 0,
        napi_budget: int = 64,
        stats_prefix: str = "driver",
    ):
        self._sim = sim
        self.nic = nic
        self._irq = irq
        self.costs = costs
        self.core_id = core_id
        self.napi_budget = napi_budget

        nic.on_interrupt = self._post_hardirq

        #: Destination for received frames (the application's socket).
        self.packet_sink: Optional[Callable[[Frame], None]] = None
        #: NCAP enhanced-handler hooks, run in hardirq context with ICR bits.
        self.icr_hooks: List[Callable[[int], None]] = []
        #: Per-packet software taps in SoftIRQ context (ncap.sw ReqMonitor).
        self.rx_sw_taps: List[Callable[[Frame], None]] = []
        #: Extra SoftIRQ cycles charged per received packet (ncap.sw cost).
        self.extra_rx_cycles_per_packet: float = 0.0

        self.telemetry = nic.telemetry
        stats = self.telemetry.scope(stats_prefix)
        self._hardirqs = stats.counter("hardirqs")
        self._napi_polls = stats.counter("napi_polls")
        self._frames_delivered = stats.counter("frames_delivered")
        self._tx_reclaimed = stats.counter("tx_reclaimed")
        self._span_probe = self.telemetry.probe("request.span")

    @property
    def hardirqs(self) -> int:
        return int(self._hardirqs.value)

    @property
    def napi_polls(self) -> int:
        return int(self._napi_polls.value)

    @property
    def frames_delivered(self) -> int:
        return int(self._frames_delivered.value)

    @property
    def tx_reclaimed(self) -> int:
        return int(self._tx_reclaimed.value)

    # -- receive path ------------------------------------------------------

    def _post_hardirq(self) -> None:
        self._irq.raise_irq(
            self._hardirq_body, self.costs.hardirq_cycles, self.core_id, name="nic-irq"
        )

    def _hardirq_body(self) -> None:
        self._hardirqs.inc()
        bits = self.nic.read_icr()
        for hook in self.icr_hooks:
            hook(bits)
        if bits & ICR.IT_TX:
            completed = self.nic.take_tx_completions()
            if completed:
                self._tx_reclaimed.inc(completed)
                self._irq.raise_softirq(
                    lambda: None,
                    completed * self.costs.tx_reclaim_cycles,
                    self.core_id,
                    name="tx-reclaim",
                )
        if self.nic.rx_pending:
            self._schedule_napi()

    def _schedule_napi(self) -> None:
        batch = self.nic.take_rx(self.napi_budget)
        if not batch:
            return
        cycles = self.costs.rx_batch_cycles(len(batch))
        cycles += self.extra_rx_cycles_per_packet * len(batch)
        self._napi_polls.inc()
        self._irq.raise_softirq(
            lambda: self._napi_body(batch), cycles, self.core_id, name="napi"
        )

    def _napi_body(self, batch: List[Frame]) -> None:
        for frame in batch:
            for tap in self.rx_sw_taps:
                tap(frame)
            self._frames_delivered.inc()
            if self._span_probe.enabled and frame.kind == "request":
                self._span_probe.emit(
                    RequestPhase(
                        self._sim.now, frame.src, frame.req_id, "delivered",
                        self.core_id,
                    )
                )
            if self.packet_sink is not None:
                self.packet_sink(frame)
        # NAPI re-poll: drain anything that landed while we processed.
        if self.nic.rx_pending:
            self._schedule_napi()

    # -- transmit path -------------------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Hand a fully formed message to the NIC.

        The kernel-side transmit cycles (``costs.tx_message_cycles``) are
        charged in the *sender's* context: applications fold them into the
        job that produces the response, exactly as a ``sendmsg`` syscall
        burns cycles in the caller's context.
        """
        self.nic.transmit(frame)
