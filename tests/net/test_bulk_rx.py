"""Tests for vectorized sends: ``LinkPort.send_vector`` hands a whole
burst to the link in one call, through a switch and into a NIC.

The contract under test: a burst offered in one Python-level call is
delivered with exactly the timestamps and ordering of the equivalent
per-frame sends.
"""

import pytest

from repro.net import NIC, Frame, Link, make_http_request
from repro.net.switch import Switch
from repro.sim import Simulator
from repro.sim.units import US, gbps


class Sink:
    """Endpoint that records (time, frame) per delivery."""

    def __init__(self, name, sim):
        self.name = name
        self.sim = sim
        self.received = []

    def receive_frame(self, frame):
        self.received.append((self.sim.now, frame))


def make_link():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=gbps(10), latency_ns=1 * US)
    a, b = Sink("a", sim), Sink("b", sim)
    link.attach(a, b)
    return sim, link, a, b


def frames_named(n, src="a", dst="b"):
    return [Frame(src, dst, payload_bytes=1250 - 66) for _ in range(n)]


class TestSendVector:
    def test_matches_scalar_delivery_times(self):
        # Scalar reference: one send event per frame.
        sim_s, link_s, a_s, b_s = make_link()
        port_s = link_s.endpoint_port(a_s)
        times = [0, 100, 5_000]
        for t, frame in zip(times, frames_named(3)):
            sim_s.schedule_at(t, port_s.send, frame)
        sim_s.run()

        sim_v, link_v, a_v, b_v = make_link()
        link_v.endpoint_port(a_v).send_vector(times, frames_named(3))
        sim_v.run()

        assert [t for t, _ in b_v.received] == [t for t, _ in b_s.received]

    def test_fifo_serialization_within_burst(self):
        sim, link, a, b = make_link()
        frames = frames_named(3)
        # All offered at t=0: each 1250-wire-byte frame takes 1 us on the
        # wire, so deliveries land at 2, 3, 4 us (1 us propagation).
        link.endpoint_port(a).send_vector([0, 0, 0], frames)
        sim.run()
        assert [t for t, _ in b.received] == [2 * US, 3 * US, 4 * US]
        assert [f.frame_id for _, f in b.received] == [
            f.frame_id for f in frames
        ]

    def test_counters_match_scalar_path(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        port.send_vector([0, 0], frames_named(2))
        sim.run()
        assert port.bytes_carried == 2 * 1250

    def test_scalar_send_during_vector_flight_raises(self):
        # The burst has booked an offer at 2 us; a scalar send at 1 us
        # would have to overtake it on the wire.
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        port.send_vector([0, 2 * US], frames_named(2))
        sim.schedule_at(1 * US, port.send, Frame("a", "b", payload_bytes=100))
        with pytest.raises(ValueError, match="previous offer"):
            sim.run()

    def test_vector_send_while_scalar_busy_raises(self):
        # A port with a 1 us egress delay offers its scalar send at 1 us;
        # a vector offer at 0 would go before it.
        sim, link, a, b = make_link()
        port = link.endpoint_port(a, delay_ns=1 * US)
        port.send(Frame("a", "b", payload_bytes=1250 - 66))
        with pytest.raises(ValueError, match="previous offer"):
            port.send_vector([0], frames_named(1))

    def test_length_mismatch_raises(self):
        sim, link, a, b = make_link()
        with pytest.raises(ValueError):
            link.endpoint_port(a).send_vector([0, 100], frames_named(3))


class TestSwitchBurst:
    def build(self):
        sim = Simulator()
        switch = Switch(sim)
        sinks = {}
        for name in ("c", "x", "y"):
            sink = Sink(name, sim)
            link = Link(sim, bandwidth_bps=gbps(10), latency_ns=1 * US)
            link.attach(sink, switch)
            switch.attach_link(link, name)
            sinks[name] = (sink, link)
        client, link = sinks.pop("c")
        return sim, switch, link.endpoint_port(client), {
            name: sink for name, (sink, _) in sinks.items()
        }

    def test_burst_demuxed_per_destination(self):
        sim, switch, port, sinks = self.build()
        frames = [
            Frame("c", "x", payload_bytes=1250 - 66),
            Frame("c", "y", payload_bytes=1250 - 66),
            Frame("c", "x", payload_bytes=1250 - 66),
        ]
        port.send_vector([0, 0, 10], frames)
        sim.run()
        # The frames queue on the client link and finish at 1, 2, 3 us;
        # then 1 us propagation + 1 us forwarding + 1 us on the output
        # wire + 1 us propagation each.
        assert [t for t, _ in sinks["x"].received] == [5 * US, 7 * US]
        assert [t for t, _ in sinks["y"].received] == [6 * US]
        assert switch.frames_forwarded == 3

    def test_unknown_destination_counted_dropped(self):
        sim, switch, port, sinks = self.build()
        port.send_vector([0], [Frame("c", "nowhere", payload_bytes=100)])
        sim.run()
        assert switch.frames_dropped == 1
        assert switch.frames_forwarded == 0


class TestNICBurst:
    def run_nic(self, bulk):
        from repro.net import NICDriver
        from repro.cpu import ProcessorConfig
        from repro.oskernel import IRQController, NetStackCosts

        sim = Simulator()
        package = ProcessorConfig(n_cores=2).build_package(sim)
        irq = IRQController(sim, package)
        nic = NIC(sim)
        driver = NICDriver(sim, nic, irq, NetStackCosts())
        delivered = []
        driver.packet_sink = lambda pkt: delivered.append((sim.now, pkt.req_id))
        client = Sink("c", sim)
        link = Link(sim, bandwidth_bps=gbps(10), latency_ns=1 * US)
        link.attach(client, nic)
        port = link.endpoint_port(client)
        frames = [
            make_http_request("c", "s", req_id=i) for i in range(20)
        ]
        times = [1000 + 500 * i for i in range(20)]
        if bulk:
            port.send_vector(times, frames)
        else:
            for t, frame in zip(times, frames):
                sim.schedule_at(t, port.send, frame)
        sim.run()
        return delivered, nic

    def test_burst_parity_with_scalar_rx(self):
        scalar, nic_s = self.run_nic(bulk=False)
        bulk, nic_b = self.run_nic(bulk=True)
        assert len(bulk) == 20
        assert bulk == scalar
        assert nic_b.rx_frames == nic_s.rx_frames
