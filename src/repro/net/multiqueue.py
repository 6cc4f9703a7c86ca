"""Multi-queue NIC (Section 7 of the paper).

A receive-side-scaling NIC: frames are steered to one of N rx queues by a
stable hash of their source (flow affinity).  Each queue is a whole
single-queue :class:`repro.net.nic.NIC` — its own ring, DMA, interrupt
moderator and ICR, delivering interrupts to *its* core — so the standard
:class:`NICDriver` and :class:`NCAPHardware` bind to a queue unchanged.
Because the target core of every packet is known, the per-queue NCAP
hardware can retune that core's V/F domain independently — the paper's
per-core versus chip-wide argument.

The queues share one link port and one ``tx_hw_taps`` list, so every
queue's NCAP ``TxBytesCounter`` sees every transmitted byte whichever
queue sends it.  Stats live in the shared registry under ``nic.q<N>``.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Optional

from repro.net.interrupts import ModerationConfig
from repro.net.link import LinkPort
from repro.net.nic import NIC
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.telemetry import Telemetry, ensure_telemetry


class MultiQueueNIC:
    """An RSS NIC with one single-queue :class:`NIC` per core."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "eth0",
        n_queues: int = 4,
        moderation: ModerationConfig = ModerationConfig(),
        telemetry: Optional[Telemetry] = None,
    ):
        if n_queues < 1:
            raise ValueError("need at least one queue")
        self.name = name
        self.telemetry = ensure_telemetry(telemetry)
        self.tx_hw_taps: List[Callable[[Frame], None]] = []
        self.queues: List[NIC] = []
        for i in range(n_queues):
            queue = NIC(
                sim, name=f"{name}.q{i}", rx_ring_size=1024,
                moderation=moderation, telemetry=self.telemetry,
                stats_prefix=f"nic.q{i}",
            )
            queue.tx_hw_taps = self.tx_hw_taps
            self.queues.append(queue)

    @property
    def rx_frames(self) -> int:
        """Frames seen on the wire by every queue (including drops)."""
        return sum(q.rx_frames for q in self.queues)

    @property
    def rx_dropped(self) -> int:
        return sum(q.rx_dropped for q in self.queues)

    def attach_port(self, port: LinkPort) -> None:
        """Every queue transmits on the one ``port``."""
        for queue in self.queues:
            queue.attach_port(port)

    def queue_for(self, frame: Frame) -> NIC:
        """RSS steering: stable hash of the flow's source."""
        digest = zlib.crc32(frame.src.encode("utf-8"))
        return self.queues[digest % len(self.queues)]

    def receive_frame(self, frame: Frame) -> None:
        self.queue_for(frame).receive_frame(frame)
