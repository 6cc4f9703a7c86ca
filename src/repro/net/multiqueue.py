"""Multi-queue NIC (Section 7 of the paper).

A receive-side-scaling NIC: frames are steered to one of N rx queues by a
stable hash of their source (flow affinity), and each queue has its own
ring, interrupt moderator, and ICR, delivering interrupts to *its* core.
Because the target core of every packet is known, the per-queue NCAP
hardware can retune that core's V/F domain independently — the paper's
per-core versus chip-wide argument.

Each :class:`NICQueue` exposes the same driver-facing surface as the
single-queue :class:`repro.net.nic.NIC` (``read_icr``, ``take_rx``,
``rx_pending``, ``moderator``, ``transmit``, hardware taps), so the
standard :class:`NICDriver` and :class:`NCAPHardware` bind to a queue
unchanged.  Transmit is a shared path through the parent NIC.

Stats live in the shared registry: NIC-wide wire counters under
``nic.rx`` / ``nic.tx``, per-queue delivery/drop counters under
``nic.q<N>``.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.net.interrupts import ICR, InterruptModerator, ModerationConfig
from repro.net.link import LinkPort
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.sim.units import US
from repro.telemetry import (
    NicRx,
    NicTx,
    RequestPhase,
    RingOccupancy,
    Telemetry,
    ensure_telemetry,
)


class NICQueue:
    """One rx queue of a multi-queue NIC (driver-compatible surface)."""

    def __init__(self, parent: "MultiQueueNIC", queue_id: int, moderation: ModerationConfig):
        self._parent = parent
        self.queue_id = queue_id
        self.name = f"{parent.name}.q{queue_id}"
        self.icr = ICR()
        self.moderator = InterruptModerator(
            parent.sim, moderation, self._post_interrupt
        )
        self._ring: Deque[Frame] = deque()
        self.rx_hw_taps: List[Callable[[Frame], None]] = []
        self.on_interrupt: Optional[Callable[[], None]] = None
        #: Shared with the parent so drivers/NCAP bound to a queue join the
        #: same registry and probe bus (driver-compatible surface).
        self.telemetry = parent.telemetry
        stats = parent.telemetry.scope(f"{parent.stats_prefix}.q{queue_id}")
        self._rx_frames = stats.counter("rx.frames")
        self._rx_delivered_frames = stats.counter("rx.delivered_frames")
        self._rx_dropped_frames = stats.counter("rx.dropped_frames")
        self._rx_dropped_bytes = stats.counter("rx.dropped_bytes")
        self._ring_probe = parent.telemetry.probe("nic.ring")
        self._span_probe = parent.telemetry.probe("request.span")

    @property
    def rx_frames(self) -> int:
        """Frames steered to this queue (including ones later dropped)."""
        return int(self._rx_frames.value)

    @property
    def rx_dropped(self) -> int:
        return int(self._rx_dropped_frames.value)

    @property
    def rx_dropped_bytes(self) -> int:
        return int(self._rx_dropped_bytes.value)

    # -- rx path (parent-driven) ------------------------------------------

    def _accept(self, frame: Frame) -> None:
        self._rx_frames.inc()
        for tap in self.rx_hw_taps:
            tap(frame)
        self._parent.sim.schedule(
            self._parent.dma_latency_ns, self._dma_complete, frame
        )

    def _dma_complete(self, frame: Frame) -> None:
        sim = self._parent.sim
        if len(self._ring) >= self._parent.ring_size_per_queue:
            self._rx_dropped_frames.inc()
            self._rx_dropped_bytes.inc(frame.wire_bytes)
            if self._ring_probe.enabled:
                self._ring_probe.emit(
                    RingOccupancy(
                        sim.now,
                        self.name,
                        len(self._ring),
                        self._parent.ring_size_per_queue,
                        dropped=True,
                    )
                )
            if self._span_probe.enabled and frame.kind == "request":
                self._span_probe.emit(
                    RequestPhase(sim.now, frame.src, frame.req_id, "dropped")
                )
            return
        self._ring.append(frame)
        self._rx_delivered_frames.inc()
        if self._ring_probe.enabled:
            self._ring_probe.emit(
                RingOccupancy(
                    sim.now,
                    self.name,
                    len(self._ring),
                    self._parent.ring_size_per_queue,
                    dropped=False,
                )
            )
        if self._span_probe.enabled and frame.kind == "request":
            self._span_probe.emit(
                RequestPhase(sim.now, frame.src, frame.req_id, "dma")
            )
        self.icr.set(ICR.IT_RX)
        self.moderator.notify_event()

    def _post_interrupt(self) -> None:
        if self.on_interrupt is not None:
            self.on_interrupt()

    # -- driver surface -------------------------------------------------------

    def read_icr(self) -> int:
        return self.icr.read_and_clear()

    def take_rx(self, budget: int) -> List[Frame]:
        batch: List[Frame] = []
        while self._ring and len(batch) < budget:
            batch.append(self._ring.popleft())
        return batch

    @property
    def rx_pending(self) -> int:
        return len(self._ring)

    def post_interrupt_now(self, bits: int) -> None:
        self.icr.set(bits)
        self.moderator.force_fire_now()

    # Tx is shared hardware: delegate to the parent.
    @property
    def tx_hw_taps(self) -> List[Callable[[Frame], None]]:
        return self._parent.tx_hw_taps

    def transmit(self, frame: Frame) -> None:
        self._parent.transmit(frame)


class MultiQueueNIC:
    """An RSS NIC with one rx queue (and interrupt vector) per core."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "eth0",
        n_queues: int = 4,
        dma_latency_ns: int = 10 * US,
        tx_dma_latency_ns: int = 5 * US,
        ring_size_per_queue: int = 1024,
        moderation: ModerationConfig = ModerationConfig(),
        telemetry: Optional[Telemetry] = None,
        stats_prefix: str = "nic",
    ):
        if n_queues < 1:
            raise ValueError("need at least one queue")
        self.sim = sim
        self.name = name
        self.dma_latency_ns = dma_latency_ns
        self.tx_dma_latency_ns = tx_dma_latency_ns
        self.ring_size_per_queue = ring_size_per_queue
        self.telemetry = ensure_telemetry(telemetry)
        self.stats_prefix = stats_prefix
        stats = self.telemetry.scope(stats_prefix)
        self._rx_frames = stats.counter("rx.frames")
        self._rx_bytes = stats.counter("rx.bytes")
        self._tx_frames = stats.counter("tx.frames")
        self._tx_bytes = stats.counter("tx.bytes")
        self._rx_probe = self.telemetry.probe("nic.rx")
        self._tx_probe = self.telemetry.probe("nic.tx")
        self._span_probe = self.telemetry.probe("request.span")
        self.queues: List[NICQueue] = [
            NICQueue(self, i, moderation) for i in range(n_queues)
        ]
        self.tx_hw_taps: List[Callable[[Frame], None]] = []
        self._port: Optional[LinkPort] = None

    @property
    def rx_frames(self) -> int:
        return int(self._rx_frames.value)

    @property
    def rx_bytes(self) -> int:
        return int(self._rx_bytes.value)

    @property
    def tx_frames(self) -> int:
        return int(self._tx_frames.value)

    @property
    def tx_bytes(self) -> int:
        return int(self._tx_bytes.value)

    def attach_port(self, port: LinkPort) -> None:
        """Take ``port`` as the shared transmit port; the constant transmit
        DMA latency becomes its egress delay (see :meth:`NIC.attach_port`)."""
        port.delay_ns = self.tx_dma_latency_ns
        self._port = port

    def queue_for(self, frame: Frame) -> NICQueue:
        """RSS steering: stable hash of the flow's source."""
        digest = zlib.crc32(frame.src.encode("utf-8"))
        return self.queues[digest % len(self.queues)]

    def receive_frame(self, frame: Frame) -> None:
        self._rx_frames.inc()
        self._rx_bytes.inc(frame.wire_bytes)
        if self._rx_probe.enabled:
            self._rx_probe.emit(
                NicRx(self.sim.now, self.name, frame.wire_bytes, frame.kind)
            )
        if self._span_probe.enabled and frame.kind == "request":
            self._span_probe.emit(
                RequestPhase(self.sim.now, frame.src, frame.req_id, "arrival")
            )
        self.queue_for(frame)._accept(frame)

    def transmit(self, frame: Frame) -> None:
        self._tx_frames.inc()
        self._tx_bytes.inc(frame.wire_bytes)
        if self._tx_probe.enabled:
            self._tx_probe.emit(
                NicTx(self.sim.now, self.name, frame.wire_bytes, frame.kind)
            )
        for tap in self.tx_hw_taps:
            tap(frame)
        assert self._port is not None, "NIC has no attached link port"
        self._port.send(frame)

    @property
    def rx_dropped(self) -> int:
        return sum(q.rx_dropped for q in self.queues)
