"""Baseline NIC model (Intel 82574-like, single queue, no TOE).

The receive path reproduces the sequence of Section 2.2 / Figure 3:

1. a frame arrives from the link (hardware taps — where NCAP's ReqMonitor
   sits — observe it here, *before* DMA);
2. the DMA engine copies it into a main-memory ``skb`` via the descriptor
   ring (``dma_latency_ns`` per frame, covering the PCIe transactions);
3. the frame is appended to the rx ring and the interrupt moderator is
   notified; when an interrupt is posted the ICR is set and the attached
   driver's top half runs.

Receive accounting distinguishes **wire-level** counters (``rx.frames`` /
``rx.bytes``, charged at link delivery, before the ring-full check) from
**delivered** counters (``rx.delivered_frames`` / ``rx.delivered_bytes``,
charged only when the frame lands in the rx ring); drops book both the
frame and its bytes under ``rx.dropped_*``.

Transmit-complete interrupts are coalesced into the driver's per-segment
kernel cost rather than modelled individually (their handler is trivial
and would only add events); transmitted frames/bytes are still observed by
the hardware tx taps at transmit time, which is what NCAP's TxBytesCounter
needs.  The constant transmit DMA latency is the egress delay of the
NIC's link port, so a transmitted frame costs no NIC event.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.net.interrupts import ICR, InterruptModerator, ModerationConfig
from repro.net.link import LinkPort
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.sim.units import US
from repro.telemetry import NicRx, NicTx, RequestPhase, Telemetry, ensure_telemetry


class NIC:
    """A single-queue NIC with DMA latency and interrupt moderation."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "eth0",
        dma_latency_ns: int = 10 * US,
        tx_dma_latency_ns: int = 5 * US,
        rx_ring_size: int = 2048,
        moderation: ModerationConfig = ModerationConfig(),
        tx_complete_interrupts: bool = False,
        telemetry: Optional[Telemetry] = None,
        stats_prefix: str = "nic",
    ):
        self._sim = sim
        self.name = name
        self.dma_latency_ns = dma_latency_ns
        self.tx_dma_latency_ns = tx_dma_latency_ns
        self.rx_ring_size = rx_ring_size
        self.icr = ICR()
        self.moderator = InterruptModerator(sim, moderation, self._post_interrupt)
        self._port: Optional[LinkPort] = None
        self._rx_ring: Deque[Frame] = deque()

        # Hardware observation points (NCAP hooks).
        self.rx_hw_taps: List[Callable[[Frame], None]] = []
        self.tx_hw_taps: List[Callable[[Frame], None]] = []
        # Driver top half, invoked when an interrupt is posted.
        self.on_interrupt: Optional[Callable[[], None]] = None

        self.telemetry = ensure_telemetry(telemetry)
        stats = self.telemetry.scope(stats_prefix)
        self._rx_frames = stats.counter("rx.frames")
        self._rx_bytes = stats.counter("rx.bytes")
        self._rx_delivered_frames = stats.counter("rx.delivered_frames")
        self._rx_delivered_bytes = stats.counter("rx.delivered_bytes")
        self._rx_dropped_frames = stats.counter("rx.dropped_frames")
        self._rx_dropped_bytes = stats.counter("rx.dropped_bytes")
        self._tx_frames = stats.counter("tx.frames")
        self._tx_bytes = stats.counter("tx.bytes")
        self._rx_probe = self.telemetry.probe("nic.rx")
        self._tx_probe = self.telemetry.probe("nic.tx")
        self._span_probe = self.telemetry.probe("request.span")

        #: When enabled, completed transmissions set IT_TX and go through
        #: the same moderation as rx events, so the driver can reclaim tx
        #: descriptors (off by default: the paper's rx path is the story,
        #: and reclamation cost is otherwise folded into the tx syscall).
        self.tx_complete_interrupts = tx_complete_interrupts
        self.tx_completions_pending = 0

    # -- stat views (wire-level rx semantics match the pre-split counters) --

    @property
    def rx_frames(self) -> int:
        """Frames seen on the wire (including ones later dropped)."""
        return int(self._rx_frames.value)

    @property
    def rx_bytes(self) -> int:
        """Wire bytes seen (including ones later dropped)."""
        return int(self._rx_bytes.value)

    @property
    def rx_delivered_frames(self) -> int:
        """Frames that made it into the rx ring."""
        return int(self._rx_delivered_frames.value)

    @property
    def rx_delivered_bytes(self) -> int:
        return int(self._rx_delivered_bytes.value)

    @property
    def rx_dropped(self) -> int:
        """Frames dropped because the rx ring was full."""
        return int(self._rx_dropped_frames.value)

    @property
    def rx_dropped_bytes(self) -> int:
        return int(self._rx_dropped_bytes.value)

    @property
    def tx_frames(self) -> int:
        return int(self._tx_frames.value)

    @property
    def tx_bytes(self) -> int:
        return int(self._tx_bytes.value)

    # -- wiring ----------------------------------------------------------

    def attach_port(self, port: LinkPort) -> None:
        """Take ``port`` for transmit.  Only this NIC sends on it, so the
        constant transmit DMA latency becomes the port's egress delay."""
        port.delay_ns = self.tx_dma_latency_ns
        self._port = port

    # -- receive path -------------------------------------------------------

    def receive_frame(self, frame: Frame) -> None:
        """Frame arrived on the wire (link delivery point)."""
        self._rx_frames.inc()
        self._rx_bytes.inc(frame.wire_bytes)
        if self._rx_probe.enabled:
            self._rx_probe.emit(
                NicRx(self._sim.now, self.name, frame.wire_bytes, frame.kind)
            )
        if self._span_probe.enabled and frame.kind == "request":
            self._span_probe.emit(
                RequestPhase(self._sim.now, frame.src, frame.req_id, "arrival")
            )
        for tap in self.rx_hw_taps:
            tap(frame)
        self._sim.schedule(self.dma_latency_ns, self._dma_complete, frame)

    def _dma_complete(self, frame: Frame) -> None:
        if len(self._rx_ring) >= self.rx_ring_size:
            self._rx_dropped_frames.inc()
            self._rx_dropped_bytes.inc(frame.wire_bytes)
            if self._span_probe.enabled and frame.kind == "request":
                self._span_probe.emit(
                    RequestPhase(self._sim.now, frame.src, frame.req_id, "dropped")
                )
            return
        self._rx_ring.append(frame)
        self._rx_delivered_frames.inc()
        self._rx_delivered_bytes.inc(frame.wire_bytes)
        if self._span_probe.enabled and frame.kind == "request":
            self._span_probe.emit(
                RequestPhase(self._sim.now, frame.src, frame.req_id, "dma")
            )
        self.icr.set(ICR.IT_RX)
        self.moderator.notify_event()

    # -- driver-side interface ---------------------------------------------------

    def read_icr(self) -> int:
        """PCIe read of the ICR (read-to-clear), done by the top half."""
        return self.icr.read_and_clear()

    def take_rx(self, budget: int) -> List[Frame]:
        """Pop up to ``budget`` frames from the rx ring (NAPI poll)."""
        batch: List[Frame] = []
        while self._rx_ring and len(batch) < budget:
            batch.append(self._rx_ring.popleft())
        return batch

    @property
    def rx_pending(self) -> int:
        return len(self._rx_ring)

    def post_interrupt_now(self, bits: int) -> None:
        """Set ICR ``bits`` and post an interrupt immediately (NCAP path)."""
        self.icr.set(bits)
        self.moderator.force_fire_now()

    def _post_interrupt(self) -> None:
        if self.on_interrupt is not None:
            self.on_interrupt()

    # -- transmit path --------------------------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Queue ``frame`` for transmission (descriptor fetch + DMA, then
        wire): the port offers it ``tx_dma_latency_ns`` from now."""
        self._tx_frames.inc()
        self._tx_bytes.inc(frame.wire_bytes)
        if self._tx_probe.enabled:
            self._tx_probe.emit(
                NicTx(self._sim.now, self.name, frame.wire_bytes, frame.kind)
            )
        for tap in self.tx_hw_taps:
            tap(frame)
        assert self._port is not None, "NIC has no attached link port"
        self._port.send(frame)
        if self.tx_complete_interrupts:
            self._sim.schedule(self.tx_dma_latency_ns, self._tx_complete)

    def _tx_complete(self) -> None:
        self.tx_completions_pending += 1
        self.icr.set(ICR.IT_TX)
        self.moderator.notify_event()

    def take_tx_completions(self) -> int:
        """Driver-side reclamation: how many tx descriptors completed."""
        count, self.tx_completions_pending = self.tx_completions_pending, 0
        return count
