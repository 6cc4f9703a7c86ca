"""Full-duplex point-to-point Ethernet links.

Table 1: 10 Gb/s links with 1 µs latency.  Each direction serializes frames
FIFO at the link bandwidth, then delivers after the propagation latency.
Endpoints implement ``receive_frame(frame)`` (see :class:`NetDevice`).

FIFO serialization is deterministic, so a frame's wire finish time is
known the moment it is offered: each direction keeps only the finish time
of its last frame, and every frame costs exactly one kernel event, its
delivery.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.sim.units import US, gbps, transmission_delay_ns


class NetDevice(Protocol):
    """Anything that terminates a link."""

    name: str

    def receive_frame(self, frame: Frame) -> None:  # pragma: no cover
        ...


class _Direction:
    """One direction of a link: a serializing FIFO plus propagation delay."""

    __slots__ = (
        "_sim", "_bandwidth", "_latency", "_sink", "_name", "_last_offer_ns",
        "_tail_ns", "frames_carried", "bytes_carried",
    )

    def __init__(self, sim: Simulator, bandwidth_bps: float, latency_ns: int):
        self._sim = sim
        self._bandwidth = bandwidth_bps
        self._latency = latency_ns
        self._sink: Optional[NetDevice] = None
        self._name = "unattached link"
        #: Offer time of the last frame (offers must not go back in time).
        self._last_offer_ns = 0
        #: Wire finish time of the last frame offered.
        self._tail_ns = 0
        self.frames_carried = 0
        self.bytes_carried = 0

    def attach(self, source: NetDevice, sink: NetDevice) -> None:
        self._sink = sink
        self._name = f"link {source.name}->{sink.name}"

    def offer(self, frame: Frame, t: int) -> None:
        """Put ``frame`` on the wire at sim-time ``t`` and book its delivery.

        Serialization starts at ``max(t, finish of the previous frame)``.
        Offers must come in time order and never in the past: the finish
        time of every earlier frame is already committed.  Wire counters
        are bumped here, at offer, not at the end of serialization.
        """
        now = self._sim.now
        if t < self._last_offer_ns or t < now:
            before = "now" if t < now else "the previous offer"
            raise ValueError(
                f"{self._name}: offer at t={t} ns is before {before} "
                f"(now t={now} ns, previous offer t={self._last_offer_ns} ns)"
            )
        self._last_offer_ns = t
        wire_bytes = frame.wire_bytes
        tail = self._tail_ns
        if t > tail:
            tail = t
        tail += transmission_delay_ns(wire_bytes, self._bandwidth)
        self._tail_ns = tail
        self.frames_carried += 1
        self.bytes_carried += wire_bytes
        self._sim.schedule_at(tail + self._latency, self._deliver, frame)

    def _deliver(self, frame: Frame) -> None:
        self._sink.receive_frame(frame)


class Link:
    """A full-duplex link between two devices."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = gbps(10),
        latency_ns: int = 1 * US,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        self._a_to_b = _Direction(sim, bandwidth_bps, latency_ns)
        self._b_to_a = _Direction(sim, bandwidth_bps, latency_ns)
        self._a: Optional[NetDevice] = None
        self._b: Optional[NetDevice] = None

    def attach(self, a: NetDevice, b: NetDevice) -> None:
        """Connect endpoints ``a`` and ``b``."""
        self._a, self._b = a, b
        self._a_to_b.attach(a, b)
        self._b_to_a.attach(b, a)

    def endpoint_port(self, device: NetDevice, delay_ns: int = 0) -> "LinkPort":
        """The transmit port ``device`` should use on this link.

        ``delay_ns`` is a fixed egress delay added to every send through
        the port: a switch's forwarding latency, or a NIC's transmit DMA
        latency (the NIC sets it when it takes the port).
        """
        if delay_ns < 0:
            raise ValueError("egress delay must be non-negative")
        if device is self._a:
            return LinkPort(self._a_to_b, self._b, delay_ns)
        if device is self._b:
            return LinkPort(self._b_to_a, self._a, delay_ns)
        raise ValueError(f"{device!r} is not attached to this link")


class LinkPort:
    """A device's handle for transmitting onto one link direction."""

    __slots__ = ("_sim", "_direction", "peer", "delay_ns")

    def __init__(
        self, direction: _Direction, peer: Optional[NetDevice], delay_ns: int
    ):
        self._sim = direction._sim
        self._direction = direction
        self.peer = peer
        self.delay_ns = delay_ns

    def send(self, frame: Frame) -> None:
        """Offer ``frame`` to the wire ``delay_ns`` after now."""
        self._direction.offer(frame, self._sim.now + self.delay_ns)

    def send_vector(self, times: Sequence[int], frames: Sequence[Frame]) -> None:
        """Offer ``frames[i]`` at sim-time ``times[i]`` (non-decreasing, at
        or after now).  Same result as sending each frame at its time."""
        if len(times) != len(frames):
            raise ValueError("times and frames must have equal length")
        offer = self._direction.offer
        for t, frame in zip(times, frames):
            offer(frame, t)

    @property
    def bytes_carried(self) -> int:
        return self._direction.bytes_carried

    @property
    def frames_carried(self) -> int:
        return self._direction.frames_carried
