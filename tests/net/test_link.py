"""Tests for link serialization and delivery."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Frame, Link, Switch
from repro.sim import Simulator
from repro.sim.units import US, gbps, transmission_delay_ns


class Sink:
    def __init__(self, name, sim=None):
        self.name = name
        self.sim = sim
        self.received = []

    def receive_frame(self, frame):
        self.received.append((self.sim.now if self.sim else None, frame))


def make_link(bandwidth=gbps(10), latency=1 * US):
    sim = Simulator()
    link = Link(sim, bandwidth_bps=bandwidth, latency_ns=latency)
    a, b = Sink("a", sim), Sink("b", sim)
    link.attach(a, b)
    return sim, link, a, b


class TestLink:
    def test_delivery_time_serialization_plus_latency(self):
        sim, link, a, b = make_link()
        # 1250 wire bytes = 1 us at 10 Gb/s, +1 us propagation.
        frame = Frame("a", "b", payload_bytes=1250 - 66)
        link.endpoint_port(a).send(frame)
        sim.run()
        assert b.received[0][0] == 2 * US

    def test_fifo_serialization_of_queued_frames(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        f1 = Frame("a", "b", payload_bytes=1250 - 66)
        f2 = Frame("a", "b", payload_bytes=1250 - 66)
        port.send(f1)
        port.send(f2)
        sim.run()
        times = [t for t, _ in b.received]
        assert times == [2 * US, 3 * US]  # second waits for the wire
        assert [f.frame_id for _, f in b.received] == [f1.frame_id, f2.frame_id]

    def test_full_duplex_directions_independent(self):
        sim, link, a, b = make_link()
        link.endpoint_port(a).send(Frame("a", "b", payload_bytes=1250 - 66))
        link.endpoint_port(b).send(Frame("b", "a", payload_bytes=1250 - 66))
        sim.run()
        assert len(a.received) == 1
        assert len(b.received) == 1
        assert a.received[0][0] == b.received[0][0] == 2 * US

    def test_big_message_occupies_wire_longer(self):
        sim, link, a, b = make_link()
        small = Frame("a", "b", payload_bytes=500)
        big = Frame("a", "b", payload_bytes=100_000)
        link.endpoint_port(a).send(big)
        link.endpoint_port(a).send(small)
        sim.run()
        # Small frame waits behind the ~80 us serialization of the big one.
        assert b.received[1][0] > 80 * US

    def test_port_statistics(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        frame = Frame("a", "b", payload_bytes=1000)
        port.send(frame)
        sim.run()
        assert port.frames_carried == 1
        assert port.bytes_carried == frame.wire_bytes

    def test_egress_delay_shifts_offer(self):
        sim = Simulator()
        link = Link(sim)
        a, b = Sink("a", sim), Sink("b", sim)
        link.attach(a, b)
        port = link.endpoint_port(a, delay_ns=3 * US)
        port.send(Frame("a", "b", payload_bytes=1250 - 66))
        port.send(Frame("a", "b", payload_bytes=1250 - 66))
        sim.run()
        # Offered at 3 us: 1 us on the wire (each) + 1 us propagation.
        assert [t for t, _ in b.received] == [5 * US, 6 * US]

    def test_negative_egress_delay_rejected(self):
        sim, link, a, b = make_link()
        with pytest.raises(ValueError):
            link.endpoint_port(a, delay_ns=-1)

    def test_unattached_device_rejected(self):
        sim, link, a, b = make_link()
        with pytest.raises(ValueError):
            link.endpoint_port(Sink("stranger"))

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, latency_ns=-1)


class TestOfferOrder:
    def test_out_of_order_vector_rejected(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        with pytest.raises(ValueError, match="link a->b.*previous offer"):
            port.send_vector([5 * US, 1 * US], [Frame("a", "b", 100)] * 2)

    def test_offer_in_the_past_rejected(self):
        sim, link, a, b = make_link()
        sim.schedule_at(10 * US, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="link a->b.*now"):
            link.endpoint_port(a).send_vector([5 * US], [Frame("a", "b", 100)])

    def test_rejected_offer_leaves_direction_unchanged(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        port.send_vector([1 * US], [Frame("a", "b", 100)])
        with pytest.raises(ValueError):
            port.send_vector([0], [Frame("a", "b", 100)])
        assert port.frames_carried == 1
        sim.run()
        assert len(b.received) == 1


class TestSwitchIntegration:
    def test_two_hop_forwarding(self):
        from repro.net import Switch

        sim = Simulator()
        switch = Switch(sim)
        client, server = Sink("client", sim), Sink("server", sim)
        l1 = Link(sim)
        l2 = Link(sim)
        l1.attach(client, switch)
        l2.attach(switch, server)
        switch.attach_link(l1, "client")
        switch.attach_link(l2, "server")

        l1.endpoint_port(client).send(Frame("client", "server", payload_bytes=1250 - 66))
        sim.run()
        # 1 us serialize + 1 us prop + 1 us forward + 1 us serialize + 1 us prop.
        assert server.received[0][0] == 5 * US
        assert switch.frames_forwarded == 1

    def test_unknown_destination_dropped(self):
        from repro.net import Switch

        sim = Simulator()
        switch = Switch(sim)
        client = Sink("client", sim)
        l1 = Link(sim)
        l1.attach(client, switch)
        switch.attach_link(l1, "client")
        l1.endpoint_port(client).send(Frame("client", "nowhere", payload_bytes=100))
        sim.run()
        assert switch.frames_dropped == 1

    def test_known_destinations(self):
        from repro.net import Switch

        sim = Simulator()
        switch = Switch(sim)
        client = Sink("client", sim)
        l1 = Link(sim)
        l1.attach(client, switch)
        switch.attach_link(l1, "client")
        assert switch.known_destinations == ["client"]


# -- differential property: the per-frame event model as reference --------


class RefDirection:
    """The event model the link replaced: one serialization event per
    frame, then one delivery event after the propagation latency."""

    def __init__(self, sim, bandwidth, latency, sink):
        self.sim, self.bandwidth, self.latency = sim, bandwidth, latency
        self.sink = sink
        self.queue = deque()
        self.busy = False

    def send(self, frame):
        self.queue.append(frame)
        if not self.busy:
            self.serialize_next()

    def serialize_next(self):
        self.busy = bool(self.queue)
        if self.busy:
            frame = self.queue.popleft()
            delay = transmission_delay_ns(frame.wire_bytes, self.bandwidth)
            self.sim.schedule(delay, self.serialized, frame)

    def serialized(self, frame):
        self.sim.schedule(self.latency, self.sink.receive_frame, frame)
        self.serialize_next()


class RefSwitch:
    """A switch with one forwarding event per frame before its egress send."""

    name = "switch"

    def __init__(self, sim, forward_ns):
        self.sim, self.forward_ns, self.ports = sim, forward_ns, {}

    def receive_frame(self, frame):
        port = self.ports.get(frame.dst)
        if port is not None:
            self.sim.schedule(self.forward_ns, port.send, frame)


# 1 Gb/s: every wire time is a multiple of 8 ns, as are both latencies.
# Sender i offers only at times = i (mod 8), so frames from different
# senders never reach the switch at the same nanosecond.  Simultaneous
# arrivals on different ingress links are a tie the two models may break
# in different orders (both orders are valid FIFO outcomes).
BANDWIDTH = gbps(1)
QUANTUM = 8
N_SINKS = 3

sender_offers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2_000),          # time / QUANTUM
        st.integers(min_value=0, max_value=3_000),          # payload bytes
        st.integers(min_value=0, max_value=N_SINKS),        # N_SINKS: no route
    ),
    max_size=25,
).map(sorted)


@given(
    offers=st.lists(sender_offers, min_size=1, max_size=4),
    vectored=st.lists(st.booleans(), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_switched_delivery_matches_per_frame_event_model(offers, vectored):
    dsts = [f"d{j}" for j in range(N_SINKS)] + ["nowhere"]
    traffic = [
        [
            (q * QUANTUM + i, Frame(f"s{i}", dsts[d], payload_bytes=size))
            for q, size, d in sender
        ]
        for i, sender in enumerate(offers)
    ]

    # The link datapath under test; some senders hand their whole offer
    # list to send_vector up front, the others send one frame per event.
    sim = Simulator()
    switch = Switch(sim, forward_latency_ns=1 * US)
    sinks = []
    for j in range(N_SINKS):
        sink = Sink(f"d{j}", sim)
        link = Link(sim, BANDWIDTH, 1 * US)
        link.attach(switch, sink)
        switch.attach_link(link, sink.name)
        sinks.append(sink)
    for i, sends in enumerate(traffic):
        sender = Sink(f"s{i}", sim)
        link = Link(sim, BANDWIDTH, 1 * US)
        link.attach(sender, switch)
        port = link.endpoint_port(sender)
        if vectored[i]:
            port.send_vector([t for t, _ in sends], [f for _, f in sends])
        else:
            for t, frame in sends:
                sim.schedule_at(t, port.send, frame)
    sim.run()

    ref_sim = Simulator()
    ref_switch = RefSwitch(ref_sim, 1 * US)
    ref_sinks = []
    for j in range(N_SINKS):
        sink = Sink(f"d{j}", ref_sim)
        ref_switch.ports[sink.name] = RefDirection(ref_sim, BANDWIDTH, 1 * US, sink)
        ref_sinks.append(sink)
    for sends in traffic:
        ingress = RefDirection(ref_sim, BANDWIDTH, 1 * US, ref_switch)
        for t, frame in sends:
            ref_sim.schedule_at(t, ingress.send, frame)
    ref_sim.run()

    for sink, ref_sink in zip(sinks, ref_sinks):
        assert [(t, f.frame_id) for t, f in sink.received] == [
            (t, f.frame_id) for t, f in ref_sink.received
        ]
    routed = sum(len(sink.received) for sink in sinks)
    assert switch.frames_forwarded == routed
    assert switch.frames_dropped == sum(len(s) for s in traffic) - routed
