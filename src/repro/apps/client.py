"""Open-loop bursty clients (Section 5 of the paper).

The paper modifies the Apache and Memcached clients to be **open-loop**:
requests are emitted on a schedule, never gated on responses, avoiding the
client-side queueing bias and inter-burst dependencies that Treadmill
identifies as evaluation pitfalls.  Each client periodically emits a burst
of requests (e.g. 200 per burst), with the period set by the target load.

Clients are deliberately lightweight network endpoints (no CPU/power
model): the paper instruments them only for request round-trip times.
"""

from __future__ import annotations

import itertools
import random
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.workload import burst_arrival_times
from repro.net.link import LinkPort
from repro.net.packet import Frame, make_http_request, make_memcached_request
from repro.sim.kernel import Event, Simulator

_req_ids = itertools.count(1)

#: Time between two requests of one burst.  A client sends at most one
#: request per gap, so ``n`` clients offer at most ``n * 1e9 / gap`` RPS.
INTRA_BURST_GAP_NS = 1_000


def reset_request_ids(start: int = 1) -> None:
    """Restart the process-global request-id counter.

    Request ids are globally unique so traces from concurrent nodes never
    collide, which means they depend on how many requests the process has
    already created.  Tools that need bit-identical output across runs
    (golden-trace tests, ``repro trace``) reset the counter first.
    """
    global _req_ids
    _req_ids = itertools.count(start)


def http_request_factory(client: str, server: str) -> Callable[[int], Frame]:
    """Factory producing HTTP GETs (the Apache workload)."""

    def make(created_ns: int) -> Frame:
        return make_http_request(
            client, server, method="GET", req_id=next(_req_ids), created_ns=created_ns
        )

    return make


def memcached_request_factory(
    client: str, server: str, rng: Optional[random.Random] = None, keyspace: int = 100_000
) -> Callable[[int], Frame]:
    """Factory producing Memcached gets over a keyspace."""
    rng = rng or random.Random(0)

    def make(created_ns: int) -> Frame:
        key = f"key:{rng.randrange(keyspace)}"
        return make_memcached_request(
            client, server, command="get", key=key,
            req_id=next(_req_ids), created_ns=created_ns,
        )

    return make


class RequestLedger:
    """The receive side every traffic source shares: books each request's
    send time and turns the matching response into an RTT sample.

    Answered requests are the one per-request record that lives for a
    whole run, so they are kept as two 64-bit columns, 16 bytes each:
    ``send_ns[i]`` and ``rtt_ns[i]`` are the i-th answered request's send
    time and RTT, in the order the responses arrived.
    """

    def __init__(self, sim: Simulator, name: str):
        self._sim = sim
        self.name = name
        self._port: Optional[LinkPort] = None
        self.sent: Dict[int, int] = {}  # req_id -> send time
        self.send_ns = array("q")
        self.rtt_ns = array("q")
        #: Called as ``listener(req_id, send_ns, rtt_ns)`` on each response.
        self.rtt_listeners: List[Callable[[int, int, int], None]] = []
        self.requests_sent = 0
        self.responses_received = 0

    def attach_port(self, port: LinkPort) -> None:
        self._port = port

    def receive_frame(self, frame: Frame) -> None:
        """Link delivery point (we are a NetDevice)."""
        if frame.kind != "response" or frame.req_id is None:
            return
        send_ns = self.sent.pop(frame.req_id, None)
        if send_ns is None:
            return
        self.responses_received += 1
        rtt_ns = self._sim.now - send_ns
        self.send_ns.append(send_ns)
        self.rtt_ns.append(rtt_ns)
        for listener in self.rtt_listeners:
            listener(frame.req_id, send_ns, rtt_ns)

    @property
    def outstanding(self) -> int:
        """Requests sent and not yet answered."""
        return len(self.sent)

    @property
    def rtts(self) -> List[Tuple[int, int]]:
        """The answered requests as ``(send time, rtt)`` pairs (a copy)."""
        return list(zip(self.send_ns, self.rtt_ns))

    def rtts_in_window(self, start_ns: int, end_ns: int) -> array:
        """RTTs of requests *sent* within [start, end), as ``array("q")``."""
        return array("q", (
            rtt for send, rtt in zip(self.send_ns, self.rtt_ns)
            if start_ns <= send < end_ns
        ))

    def sent_in_window(self, start_ns: int, end_ns: int) -> int:
        completed = sum(1 for send in self.send_ns if start_ns <= send < end_ns)
        pending = sum(1 for send in self.sent.values() if start_ns <= send < end_ns)
        return completed + pending


class OpenLoopClient(RequestLedger):
    """A bursty open-loop traffic source and RTT recorder."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        request_factory: Callable[[int], Frame],
        burst_size: int = 100,
        burst_period_ns: int = 10_000_000,
        intra_burst_gap_ns: int = INTRA_BURST_GAP_NS,
        jitter_rng: Optional[random.Random] = None,
        jitter_fraction: float = 0.0,
    ):
        if burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if not 0 <= jitter_fraction <= 1:
            raise ValueError(
                f"jitter_fraction must be in [0, 1], got {jitter_fraction}"
            )
        if burst_period_ns <= 0:
            raise ValueError("burst_period_ns must be positive")
        super().__init__(sim, name)
        self._factory = request_factory
        self.burst_size = burst_size
        self.burst_period_ns = burst_period_ns
        self.intra_burst_gap_ns = intra_burst_gap_ns
        self._jitter_rng = jitter_rng
        self.jitter_fraction = jitter_fraction
        self._running = False
        self._burst_event: Optional[Event] = None

    # -- traffic generation ---------------------------------------------------

    def start(self, initial_delay_ns: int = 0) -> None:
        if self._running:
            return
        self._running = True
        self._burst_event = self._sim.schedule(initial_delay_ns, self._emit_burst)

    def stop(self) -> None:
        self._running = False

    def _emit_burst(self) -> None:
        """Emit one burst and re-arm.

        The whole burst goes to the kernel in one ``schedule_many`` call,
        which consumes one sequence number per request exactly as a loop
        of ``schedule`` calls would, so emission order (and request ids)
        match it.  The periodic re-arm reuses this burst's just-fired
        event via ``reschedule`` instead of allocating a fresh one.
        """
        if not self._running:
            return
        sim = self._sim
        sim.schedule_many(
            burst_arrival_times(sim.now, self.burst_size, self.intra_burst_gap_ns),
            self._emit_one,
        )
        period = self.burst_period_ns
        if self._jitter_rng is not None and self.jitter_fraction > 0:
            spread = self.jitter_fraction * period
            period = max(1, round(period + self._jitter_rng.uniform(-spread, spread)))
        self._burst_event = sim.reschedule(self._burst_event, period)

    def _emit_one(self) -> None:
        if not self._running:
            return
        assert self._port is not None, "client has no attached link port"
        frame = self._factory(self._sim.now)
        self.sent[frame.req_id] = self._sim.now
        self.requests_sent += 1
        self._port.send(frame)
