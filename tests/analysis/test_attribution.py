"""AttributionSink unit tests over a hand-driven event feed."""

import gc
import heapq
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.attribution import (
    COMPONENTS,
    AttributionSink,
    RequestAttribution,
    TailAttribution,
)
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    CStateTransition,
    IrqDelivered,
    RequestAccounting,
    RequestPhase,
)

F_MAX = 1e9  # 1 GHz: cycles == ideal nanoseconds, for easy arithmetic


def make_sink(**kwargs) -> AttributionSink:
    kwargs.setdefault("f_max_hz", F_MAX)
    kwargs.setdefault("keep_records", True)
    sink = AttributionSink(**kwargs)
    telemetry = Telemetry()
    sink.attach(telemetry)
    sink.telemetry = telemetry
    return sink


def span(sink, t, phase, req_id=1, core=None, src="c0"):
    sink.telemetry.probe("request.span").emit(
        RequestPhase(t_ns=t, src=src, req_id=req_id, phase=phase, core=core)
    )


def feed_request(
    sink,
    src="c0",
    req_id=1,
    send=1_000,
    arrival=2_000,
    dma=2_100,
    irq_at=None,
    delivered=2_500,
    rx_core=0,
    svc_start=2_900,
    svc_done=3_900,
    resp_enqueue=4_100,
    resp_start=4_300,
    reply=4_800,
    core=1,
    resp_core=1,
    cpu_ns=1_300,
    cycles=1_100.0,
    stall_ns=100,
    receive=5_100,
):
    """Drive one request through the sink; returns its RTT."""
    telemetry = sink.telemetry
    span(sink, arrival, "arrival", req_id=req_id, src=src)
    span(sink, dma, "dma", req_id=req_id, src=src)
    if irq_at is not None:
        telemetry.probe("irq.delivered").emit(
            IrqDelivered(t_ns=irq_at, kind="hardirq", name="nic-irq",
                         core_id=rx_core)
        )
    span(sink, delivered, "delivered", req_id=req_id, core=rx_core, src=src)
    span(sink, svc_start, "service", req_id=req_id, core=core, src=src)
    telemetry.probe("request.account").emit(
        RequestAccounting(
            t_ns=reply, src=src, req_id=req_id, core=core,
            resp_core=resp_core, svc_enqueue_ns=delivered,
            svc_start_ns=svc_start, svc_done_ns=svc_done,
            resp_enqueue_ns=resp_enqueue, resp_start_ns=resp_start,
            cpu_ns=cpu_ns, cycles=cycles, stall_ns=stall_ns,
        )
    )
    rtt = receive - send
    sink.on_client_rtt(src, req_id, send, rtt)
    return rtt


class TestDecomposition:
    def test_components_sum_to_rtt(self):
        sink = make_sink()
        rtt = feed_request(sink)
        assert sink.count == 1
        assert sink.conservation_violations == []
        record = sink.records[0]
        assert record.total_ns == rtt
        assert sum(record.components.values()) == pytest.approx(rtt, abs=1e-6)
        assert set(record.components) == set(COMPONENTS)

    def test_component_values(self):
        sink = make_sink()
        feed_request(sink, irq_at=2_200)
        comp = sink.records[0].components
        assert comp["wire"] == 1_000          # send 1000 -> arrival 2000
        assert comp["dma"] == 100             # arrival -> dma
        assert comp["coalesce"] == 100        # dma 2100 -> irq 2200
        assert comp["kernel"] == 300          # (delivered - dma) - coalesce
        assert comp["queue"] == 600           # (2900-2500) + (4300-4100)
        assert comp["service"] == 1_100       # cycles at F_max
        assert comp["ramp"] == 300            # cpu+stall - service
        assert comp["preempt"] == 100         # job span - cpu - stall
        assert comp["io"] == 200              # svc_done -> resp_enqueue
        assert comp["tx"] == 300              # reply 4800 -> receive 5100
        assert comp["wake"] == 0

    def test_no_irq_means_zero_coalesce(self):
        sink = make_sink()
        feed_request(sink, irq_at=None)
        comp = sink.records[0].components
        assert comp["coalesce"] == 0
        assert comp["kernel"] == 400          # full delivered - dma

    def test_wake_carved_out_of_kernel_and_queue(self):
        sink = make_sink()
        telemetry = sink.telemetry
        # Rx core 0 wakes at t=2400 after a 150 ns exit (interval
        # [2250, 2400], inside [irq 2200, delivered 2500]); service core 1
        # wakes at t=2800 after 200 ns ([2600, 2800], inside the queue
        # window [delivered 2500, svc_start 2900]).
        telemetry.probe("cpu.cstate").emit(
            CStateTransition(2_400, "cpu", 0, "C6", 3, "wake",
                             exit_latency_ns=150)
        )
        telemetry.probe("cpu.cstate").emit(
            CStateTransition(2_800, "cpu", 1, "C6", 3, "wake",
                             exit_latency_ns=200)
        )
        rtt = feed_request(sink, irq_at=2_200)
        comp = sink.records[0].components
        assert comp["wake"] == 350
        assert comp["kernel"] == 150          # 300 - 150 rx-side wake
        assert comp["queue"] == 400           # 600 - 200 queue-side wake
        assert sink.conservation_violations == []
        assert sum(comp.values()) == pytest.approx(rtt, abs=1e-6)

    def test_conservation_violation_is_reported(self):
        # The decomposition telescopes, so a consistent event feed can
        # never break conservation (that is the point); corrupt the
        # server-side record directly to prove the check trips.
        sink = make_sink()
        span(sink, 2_000, "arrival", req_id=2)
        span(sink, 2_100, "dma", req_id=2)
        span(sink, 2_500, "delivered", req_id=2, core=0)
        sink.telemetry.probe("request.account").emit(
            RequestAccounting(
                t_ns=4_800, src="c0", req_id=2, core=1, resp_core=1,
                svc_enqueue_ns=2_500, svc_start_ns=2_900, svc_done_ns=3_900,
                resp_enqueue_ns=4_100, resp_start_ns=4_300,
                cpu_ns=1_300, cycles=1_100.0, stall_ns=100,
            )
        )
        # _done holds (arrival, reply, dma, coalesce, kernel, ...).
        done = sink._done[("c0", 2)]
        sink._done[("c0", 2)] = done[:4] + (done[4] + 5.0,) + done[5:]
        sink.on_client_rtt("c0", 2, 1_000, 4_100)
        assert len(sink.conservation_violations) == 1
        assert "c0/2" in sink.conservation_violations[0]


class TestBookkeeping:
    def test_unmatched_rtt_counted(self):
        sink = make_sink()
        sink.on_client_rtt("c0", 77, 0, 1_000)
        assert sink.unmatched_rtts == 1
        assert sink.count == 0

    def test_dropped_request_never_matches(self):
        sink = make_sink()
        span(sink, 100, "arrival")
        span(sink, 200, "dma")
        span(sink, 300, "dropped")
        sink.on_client_rtt("c0", 1, 0, 10_000)
        assert sink.unmatched_rtts == 1

    def test_measure_window_filters_by_send_time(self):
        sink = make_sink(measure_window=(1_500, 10_000))
        feed_request(sink, send=1_000)          # before the window
        assert sink.count == 0
        feed_request(sink, req_id=2, send=2_000, arrival=3_000, dma=3_100,
                     delivered=3_500, svc_start=3_900, svc_done=4_900,
                     resp_enqueue=5_100, resp_start=5_300, reply=5_800,
                     receive=6_100)
        assert sink.count == 1

    def test_top_k_below_one_rejected_when_built(self):
        for top_k in (0, -1):
            with pytest.raises(ValueError, match=rf"top_k must be at least 1, got {top_k}"):
                AttributionSink(top_k=top_k)

    def test_f_max_required(self):
        sink = make_sink(f_max_hz=None)
        with pytest.raises(RuntimeError, match="f_max_hz"):
            feed_request(sink)

    def test_prune_keeps_open_request_context(self):
        sink = make_sink()
        telemetry = sink.telemetry
        # An old wake interval that still overlaps an open request must
        # survive pruning triggered by later traffic.
        telemetry.probe("cpu.cstate").emit(
            CStateTransition(2_800, "cpu", 1, "C6", 3, "wake",
                             exit_latency_ns=200)
        )
        span(sink, 2_000, "arrival", req_id=1)   # stays open across prunes
        base = 10_000
        for i in range(sink.PRUNE_EVERY + 1):
            t = base + i * 10_000
            feed_request(
                sink, req_id=100 + i, send=t - 1_000, arrival=t,
                dma=t + 100, delivered=t + 500, svc_start=t + 900,
                svc_done=t + 1_900, resp_enqueue=t + 2_100,
                resp_start=t + 2_300, reply=t + 2_800, receive=t + 3_100,
            )
        assert sink._waking[1][0] == (2_600, 2_800)


class TestTails:
    def test_tail_means_cover_slowest_requests(self):
        sink = make_sink(top_k=16)
        for i in range(100):
            # Latencies 3100, 3101, ..., 3199 ns via the receive time.
            feed_request(sink, req_id=i, receive=5_100 + i + 1_000 * 0,
                         send=1_000)
        report = sink.summary()
        assert report.count == 100
        p99 = report.tails["p99"]
        assert p99.count >= 1
        assert p99.mean_total_ns >= report.mean_total_ns
        assert p99.threshold_ns <= 4_100 + 99
        flat = report.to_flat_dict()
        assert flat["count"] == 100.0
        assert "p99.wake_ramp_share" in flat
        assert "mean.wake_ns" in flat

    def test_empty_summary(self):
        sink = make_sink()
        report = sink.summary()
        assert report.count == 0
        assert report.tails == {}


#: The server-side components of a ``_done`` tuple, after arrival and reply.
SERVER_SIDE = (
    "dma", "coalesce", "kernel", "wake", "queue", "service", "ramp",
    "preempt", "io",
)


class ParentTopK(AttributionSink):
    """Reference top-K: the design the flat rows replaced.

    A heap of ``(total_ns, seq, RequestAttribution)`` with one components
    dict per request, and tail means taken over the records in heap-list
    order.  The server-side decomposition is the sink's own.
    """

    def on_client_rtt(self, src, req_id, send_ns, rtt_ns):
        rec = self._done.pop((src, req_id), None)
        if rec is None:
            self.unmatched_rtts += 1
            return
        comp = dict(zip(SERVER_SIDE, rec[2:]))
        comp["wire"] = float(rec[0] - send_ns)
        comp["tx"] = float(send_ns + rtt_ns - rec[1])
        self.count += 1
        self.total_sketch.add(rtt_ns)
        for i, name in enumerate(COMPONENTS):
            self._component_sums[i] += comp[name]
        self._seq += 1
        record = RequestAttribution(src, req_id, send_ns, rtt_ns, comp)
        entry = (rtt_ns, self._seq, record)
        if len(self._heap) < self.top_k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def tail(self, percentile):
        threshold = self.total_sketch.quantile(percentile)
        entries = [rec for total, _, rec in self._heap if total >= threshold]
        if not entries:
            entries = [max(self._heap)[2]]
        mean_total = sum(r.total_ns for r in entries) / len(entries)
        component_ns = {}
        for name in COMPONENTS:
            acc = 0.0  # left to right, as sum() added floats through 3.11
            for r in entries:
                acc += r.components[name]
            component_ns[name] = acc / len(entries)
        shares = {
            name: (value / mean_total if mean_total else 0.0)
            for name, value in component_ns.items()
        }
        return TailAttribution(
            percentile, threshold, len(entries), mean_total, component_ns, shares
        )


class Fanout:
    """One event feed into several sinks, shaped as ``feed_request`` wants."""

    def __init__(self, *sinks):
        self.sinks = sinks
        self.telemetry = Telemetry()
        for sink in sinks:
            sink.attach(self.telemetry)

    def on_client_rtt(self, *args):
        for sink in self.sinks:
            sink.on_client_rtt(*args)


# Gaps of 100-400 ns between the nine phases: RTTs land on a coarse grid,
# so many requests tie; fractional cycles make the float sums order-sensitive.
REQUEST = st.fixed_dictionaries({
    "gaps": st.lists(st.integers(1, 4).map(lambda k: 100 * k), min_size=9, max_size=9),
    "irq": st.booleans(),
    "cycles": st.floats(0.0, 2_000.0, allow_nan=False),
    "cpu_ns": st.integers(0, 1_500),
    "stall_ns": st.integers(0, 200),
})


class TestFlatTopK:
    @settings(max_examples=40, deadline=None)
    @given(top_k=st.integers(1, 64), data=st.data())
    def test_summary_equals_parent_top_k(self, top_k, data):
        n = data.draw(st.integers(top_k + 1, top_k + 32), label="requests")
        feed = data.draw(st.lists(REQUEST, min_size=n, max_size=n), label="feed")
        sink = AttributionSink(f_max_hz=F_MAX, top_k=top_k)
        reference = ParentTopK(f_max_hz=F_MAX, top_k=top_k)
        both = Fanout(sink, reference)
        for i, request in enumerate(feed):
            t = [10_000 * (i + 1)]
            for gap in request["gaps"]:
                t.append(t[-1] + gap)
            send, arrival, dma, delivered, svc_start, svc_done, \
                resp_enqueue, resp_start, reply, receive = t
            feed_request(
                both, req_id=i, send=send, arrival=arrival, dma=dma,
                irq_at=dma + 50 if request["irq"] else None,
                delivered=delivered, svc_start=svc_start, svc_done=svc_done,
                resp_enqueue=resp_enqueue, resp_start=resp_start, reply=reply,
                cpu_ns=request["cpu_ns"], cycles=request["cycles"],
                stall_ns=request["stall_ns"], receive=receive,
            )
        assert sink.count == reference.count == n
        assert [e[:2] for e in sink._heap] == [e[:2] for e in reference._heap]
        flat = sink.summary().to_flat_dict()
        expected = reference.summary().to_flat_dict()
        assert list(flat) == list(expected)
        for key, value in expected.items():
            assert flat[key] == value, key

    def test_top_k_entry_retains_at_most_320_bytes(self):
        # A heap tuple, its three ints and one 88-byte row per entry come
        # to about 250 B; a RequestAttribution with its components dict
        # and eleven boxed floats took about 1 KB.
        top_k = 1_024
        sink = make_sink(top_k=top_k, keep_records=False)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2 * top_k):
                t = 10_000 * (i + 1)
                feed_request(
                    sink, req_id=i, send=t - 1_000, arrival=t, dma=t + 100,
                    delivered=t + 500, svc_start=t + 900, svc_done=t + 1_900,
                    resp_enqueue=t + 2_100, resp_start=t + 2_300,
                    reply=t + 2_800, receive=t + 3_100 + (i * 7_919) % 5_000,
                )
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sink._heap) == top_k
        assert retained / top_k <= 320
