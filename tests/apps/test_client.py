"""Tests for the open-loop bursty client."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.client import (
    OpenLoopClient,
    RequestLedger,
    http_request_factory,
    memcached_request_factory,
)
from repro.net import Frame, make_response
from repro.sim import Simulator
from repro.sim.units import MS, US


class CapturePort:
    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)


def make_client(burst_size=10, period=MS, gap=1_000, jitter=0.0, seed=None):
    sim = Simulator()
    client = OpenLoopClient(
        sim, "client0", http_request_factory("client0", "server"),
        burst_size=burst_size, burst_period_ns=period, intra_burst_gap_ns=gap,
        jitter_rng=random.Random(seed) if seed is not None else None,
        jitter_fraction=jitter,
    )
    port = CapturePort()
    client.attach_port(port)
    return sim, client, port


class TestTrafficGeneration:
    def test_burst_size_and_cadence(self):
        sim, client, port = make_client(burst_size=10, period=MS)
        client.start()
        sim.run(until=3 * MS - 1)
        assert client.requests_sent == 30  # bursts at t=0, 1ms, 2ms

    def test_open_loop_ignores_responses(self):
        # Requests keep flowing even though nothing ever answers.
        sim, client, port = make_client(burst_size=5, period=MS)
        client.start()
        sim.run(until=5 * MS - 1)
        assert client.requests_sent == 25
        assert client.responses_received == 0

    def test_intra_burst_gap(self):
        sim, client, port = make_client(burst_size=3, gap=2_000)
        client.start()
        sim.run(until=MS - 1)
        times = [f.created_ns for f in port.sent]
        assert times == [0, 2_000, 4_000]

    def test_stop_halts_traffic(self):
        sim, client, port = make_client(burst_size=5, period=MS)
        client.start()
        sim.schedule_at(int(2.5 * MS), client.stop)
        sim.run(until=10 * MS)
        assert client.requests_sent == 15

    def test_initial_delay(self):
        sim, client, port = make_client()
        client.start(initial_delay_ns=500 * US)
        sim.run(until=600 * US)
        assert port.sent[0].created_ns == 500 * US

    def test_jitter_perturbs_periods(self):
        sim, client, port = make_client(burst_size=1, period=MS, jitter=0.3, seed=7)
        client.start()
        sim.run(until=20 * MS)
        times = [f.created_ns for f in port.sent]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(gaps) > 1  # not perfectly periodic
        assert all(0.7 * MS <= g <= 1.3 * MS for g in gaps)

    def test_start_idempotent(self):
        sim, client, port = make_client(burst_size=2, period=MS)
        client.start()
        client.start()
        sim.run(until=MS - 1)
        assert client.requests_sent == 2

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            OpenLoopClient(sim, "c", lambda t: None, burst_size=0)
        with pytest.raises(ValueError):
            OpenLoopClient(sim, "c", lambda t: None, burst_period_ns=0)

    def test_jitter_fraction_must_lie_in_unit_interval(self):
        # Above 1 the +-jitter spread reaches past zero and piles periods
        # on the 1 ns clamp; below 0 the client would skip jitter.
        sim = Simulator()
        for jitter in (-0.5, 1.5, 2.0, float("nan")):
            with pytest.raises(ValueError, match="jitter_fraction"):
                OpenLoopClient(sim, "c", lambda t: None, jitter_fraction=jitter)
        for jitter in (0.0, 0.3, 1.0):
            OpenLoopClient(sim, "c", lambda t: None, jitter_fraction=jitter)


class TestRttRecording:
    def test_rtt_computed_from_send_time(self):
        sim, client, port = make_client(burst_size=1, period=10 * MS)
        client.start()
        sim.run(until=1)
        req = port.sent[0]
        sim.schedule_at(700 * US, client.receive_frame,
                        make_response("server", "client0", 500, req_id=req.req_id))
        sim.run(until=MS)
        assert client.rtts == [(0, 700 * US)]

    def test_unmatched_response_ignored(self):
        sim, client, port = make_client()
        client.receive_frame(make_response("server", "client0", 100, req_id=99_999))
        assert client.responses_received == 0

    def test_duplicate_response_ignored(self):
        sim, client, port = make_client(burst_size=1, period=10 * MS)
        client.start()
        sim.run(until=1)
        req = port.sent[0]
        resp = make_response("server", "client0", 100, req_id=req.req_id)
        client.receive_frame(resp)
        client.receive_frame(resp)
        assert client.responses_received == 1

    def test_window_filters_by_send_time(self):
        sim, client, port = make_client(burst_size=1, period=MS)
        client.start()
        sim.run(until=int(3.5 * MS))
        for frame in port.sent:
            client.receive_frame(
                make_response("server", "client0", 100, req_id=frame.req_id)
            )
        assert len(client.rtts_in_window(MS, 3 * MS)) == 2
        assert client.sent_in_window(0, 4 * MS) == 4

    def test_outstanding_counts_unanswered(self):
        sim, client, port = make_client(burst_size=4, period=10 * MS)
        client.start()
        sim.run(until=MS)
        assert client.outstanding == 4


class TestFactories:
    def test_http_factory_produces_gets(self):
        factory = http_request_factory("c", "s")
        frame = factory(123)
        assert frame.payload_prefix.startswith(b"GET ")
        assert frame.created_ns == 123
        assert frame.req_id is not None

    def test_memcached_factory_varies_keys(self):
        factory = memcached_request_factory("c", "s", rng=random.Random(1))
        frames = [factory(0) for _ in range(10)]
        assert all(f.payload_prefix.startswith(b"get ") for f in frames)
        assert len({f.req_id for f in frames}) == 10

    def test_req_ids_globally_unique(self):
        a = http_request_factory("a", "s")(0)
        b = memcached_request_factory("b", "s")(0)
        assert a.req_id != b.req_id


class TestBulkBurstPaths:
    """A burst is one ``schedule_many`` call whatever its size or gap;
    single requests, zero-gap and spread bursts keep their send times
    and cadence."""

    def test_large_burst_send_times_exact(self):
        sim, client, port = make_client(burst_size=100, period=MS, gap=500)
        client.start()
        sim.run(until=MS - 1)
        times = [f.created_ns for f in port.sent]
        assert times == [i * 500 for i in range(100)]

    def test_zero_gap_burst_sends_all_at_once(self):
        sim, client, port = make_client(burst_size=50, period=MS, gap=0)
        client.start()
        sim.run(until=MS - 1)
        assert [f.created_ns for f in port.sent] == [0] * 50
        assert client.requests_sent == 50

    def test_burst_paths_agree_on_cadence(self):
        # Same aggregate traffic for every burst size and gap.
        for size, gap in ((1, 1_000), (10, 1_000), (64, 1_000), (64, 0)):
            sim, client, port = make_client(burst_size=size, period=MS, gap=gap)
            client.start()
            sim.run(until=4 * MS - 1)
            assert client.requests_sent == 4 * size

    def test_stop_mid_large_burst_halts_remainder(self):
        sim, client, port = make_client(burst_size=100, period=MS, gap=1_000)
        client.start()
        sim.schedule_at(10_500, client.stop)
        sim.run(until=MS)
        # Requests at 0..10_000 fired (11 of them); the rest were pending
        # when stop() flipped the running flag.
        assert client.requests_sent == 11

    def test_rearm_reuses_burst_timer(self):
        # The periodic re-arm goes through reschedule(): no queue growth
        # across many periods.
        sim, client, port = make_client(burst_size=2, period=MS, gap=100)
        client.start()
        sim.run(until=50 * MS - 1)
        assert client.requests_sent == 100
        assert sim.heap_size() <= 2


class TupleLedger:
    """The ledger as one list of ``(send, rtt)`` tuples: the oracle for
    :class:`RequestLedger`'s two columns."""

    def __init__(self):
        self.sent = {}
        self.rtts = []

    def receive_frame(self, now, frame):
        if frame.kind != "response" or frame.req_id is None:
            return
        send_ns = self.sent.pop(frame.req_id, None)
        if send_ns is None:
            return
        self.rtts.append((send_ns, now - send_ns))

    def rtts_in_window(self, start_ns, end_ns):
        return [rtt for send, rtt in self.rtts if start_ns <= send < end_ns]

    def sent_in_window(self, start_ns, end_ns):
        completed = sum(1 for send, _ in self.rtts if start_ns <= send < end_ns)
        pending = sum(1 for send in self.sent.values() if start_ns <= send < end_ns)
        return completed + pending


#: One ledger input: after ``dt`` ns, send a new request, or deliver a
#: frame naming the ``pick``-th request sent so far (a response answers it
#: or repeats an answer; a request frame is ignored), a response to an id
#: never sent, or a response with no id.
LEDGER_STEPS = st.lists(
    st.tuples(
        st.integers(0, 5_000),
        st.sampled_from(["send", "send", "respond", "unknown", "no_id", "request"]),
        st.integers(0, 10_000),
    ),
    max_size=80,
)


class TestLedgerColumns:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=LEDGER_STEPS,
        # Window edges at step times (where sends happen), nudged by -1..1 ns.
        windows=st.lists(
            st.tuples(st.integers(0, 80), st.integers(0, 80), st.integers(-1, 1)),
            max_size=6,
        ),
    )
    def test_windows_match_the_tuple_ledger(self, steps, windows):
        sim = Simulator()
        ledger = RequestLedger(sim, "client0")
        oracle = TupleLedger()
        ids = []

        def send(req_id):
            ledger.sent[req_id] = oracle.sent[req_id] = sim.now

        def deliver(frame):
            ledger.receive_frame(frame)
            oracle.receive_frame(sim.now, frame)

        now = 0
        times = [now]
        for dt, action, pick in steps:
            now += dt
            times.append(now)
            if action == "send":
                ids.append(len(ids) + 1)
                sim.schedule_at(now, send, ids[-1])
                continue
            req_id = ids[pick % len(ids)] if ids else pick
            if action == "unknown":
                req_id = 10**9 + pick
            elif action == "no_id":
                req_id = None
            kind = "request" if action == "request" else "response"
            frame = Frame("server", "client0", 100, kind=kind, req_id=req_id)
            sim.schedule_at(now, deliver, frame)
        sim.run()

        assert isinstance(ledger.send_ns, array) and ledger.send_ns.typecode == "q"
        assert isinstance(ledger.rtt_ns, array) and ledger.rtt_ns.typecode == "q"
        assert ledger.rtts == oracle.rtts
        assert ledger.responses_received == len(oracle.rtts)
        assert ledger.outstanding == len(oracle.sent)
        edges = [
            (times[i % len(times)] + nudge, times[j % len(times)] + nudge)
            for i, j, nudge in windows
        ]
        for start, end in edges + [(0, now + 1)]:
            rtts = ledger.rtts_in_window(start, end)
            assert isinstance(rtts, array) and rtts.typecode == "q"
            assert list(rtts) == oracle.rtts_in_window(start, end)
            assert ledger.sent_in_window(start, end) == oracle.sent_in_window(start, end)
