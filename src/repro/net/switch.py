"""A store-and-forward Ethernet switch.

Routes frames between attached links by destination name.  Forwarding adds
a fixed per-frame latency, modelled as the egress delay of each output
port; output contention is handled by the outgoing link's serialization
FIFO.  Frames for unknown destinations are dropped (and counted), like a
real switch with no matching CAM entry and flooding disabled.
"""

from __future__ import annotations

from typing import Dict

from repro.net.link import Link, LinkPort, NetDevice
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.sim.units import US


class Switch:
    """A named multi-port switch."""

    def __init__(self, sim: Simulator, name: str = "switch", forward_latency_ns: int = 1 * US):
        self._sim = sim
        self.name = name
        self.forward_latency_ns = forward_latency_ns
        self._ports: Dict[str, LinkPort] = {}
        self.frames_forwarded = 0
        self.frames_dropped = 0

    def connect(self, device: NetDevice) -> Link:
        """Wire ``device`` to this switch over a new Table 1 link (star
        topology: 10 Gb/s, 1 µs).

        ``device`` takes its transmit port on the link through its
        ``attach_port``, and frames addressed to ``device.name`` leave
        through the link's other end.
        """
        link = Link(self._sim)
        link.attach(device, self)
        device.attach_port(link.endpoint_port(device))
        self.attach_link(link, device.name)
        return link

    def attach_link(self, link: Link, peer_name: str) -> None:
        """Register ``link`` as the route to destination ``peer_name``.

        Call after ``link.attach(switch, peer_device)``.
        """
        self._ports[peer_name] = link.endpoint_port(
            self, delay_ns=self.forward_latency_ns
        )

    def receive_frame(self, frame: Frame) -> None:
        port = self._ports.get(frame.dst)
        if port is None:
            self.frames_dropped += 1
            return
        # Each output direction has this switch as its only sender, and
        # arrivals come in event-time order, so offering at arrival +
        # forward latency is exactly a forward event followed by a send.
        self.frames_forwarded += 1
        port.send(frame)

    @property
    def known_destinations(self):
        return sorted(self._ports)
