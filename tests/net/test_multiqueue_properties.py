"""Property-based tests for RSS steering on the multi-queue NIC."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.multiqueue import MultiQueueNIC
from repro.net.packet import Frame
from repro.sim import Simulator

flow_names = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122),
    min_size=1,
    max_size=12,
)


@given(src=flow_names, n_queues=st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_steering_is_deterministic_per_flow(src, n_queues):
    nic = MultiQueueNIC(Simulator(), n_queues=n_queues)
    frame_a = Frame(src, "server", payload_bytes=100, kind="request")
    frame_b = Frame(src, "server", payload_bytes=5_000, kind="request")
    assert nic.queue_for(frame_a) is nic.queue_for(frame_b)


@given(srcs=st.lists(flow_names, min_size=32, max_size=64, unique=True))
@settings(max_examples=30, deadline=None)
def test_many_flows_spread_over_queues(srcs):
    nic = MultiQueueNIC(Simulator(), n_queues=4)
    queues = {
        nic.queues.index(nic.queue_for(Frame(src, "server", payload_bytes=10)))
        for src in srcs
    }
    # 32+ distinct flows through CRC32 must touch at least half the queues.
    assert len(queues) >= 2


@given(
    srcs=st.lists(flow_names, min_size=1, max_size=40),
    n_queues=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_every_frame_lands_in_exactly_one_ring(srcs, n_queues):
    sim = Simulator()
    nic = MultiQueueNIC(sim, n_queues=n_queues)
    for src in srcs:
        nic.receive_frame(Frame(src, "server", payload_bytes=64, kind="request"))
    sim.run()
    assert sum(q.rx_pending for q in nic.queues) == len(srcs)
    assert nic.rx_frames == len(srcs)
