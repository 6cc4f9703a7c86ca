"""Server application base: a request's life after the socket.

A request delivered by the NIC driver becomes a three-phase pipeline, the
shape both OLDI applications in the paper share:

1. **service phase** — CPU cycles to parse and process the request
   (frequency-sensitive: time = cycles / F);
2. **I/O phase** — optional off-CPU latency (disk for Apache; absent for
   Memcached) during which the core is free — this is why Apache's latency
   is less sensitive to F than Memcached's (Section 6);
3. **response phase** — CPU cycles to build the response *plus* the kernel
   transmit cost for its segments, after which the message is handed to
   the NIC.

Subclasses define the per-request costs and the response-size distribution.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cpu.core import ExecAccount, Job
from repro.net.driver import NICDriver
from repro.net.packet import Frame, make_response, segments_for
from repro.oskernel.netstack import NetStackCosts
from repro.oskernel.scheduler import Scheduler
from repro.sim.kernel import Simulator
from repro.telemetry import (
    RequestAccounting,
    RequestPhase,
    Telemetry,
    ensure_telemetry,
)


class _RequestTrack:
    """Per-request accounting state, live only while the request is open.

    Allocated per request *only* when the ``request.account`` probe has a
    subscriber; carries the two job accounts plus the pipeline timestamps
    the jobs themselves cannot observe.
    """

    __slots__ = ("svc_enqueue_ns", "svc", "svc_done_ns", "resp_enqueue_ns", "resp")

    def __init__(self, svc_enqueue_ns: int):
        self.svc_enqueue_ns = svc_enqueue_ns
        self.svc = ExecAccount()
        self.svc_done_ns = 0
        self.resp_enqueue_ns = 0
        self.resp = ExecAccount()


class ServerApp:
    """Base OLDI server application."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: Scheduler,
        driver: NICDriver,
        costs: NetStackCosts,
        rng: random.Random,
        name: str = "server",
        telemetry: Optional[Telemetry] = None,
        stats_prefix: str = "app",
    ):
        self._sim = sim
        self._scheduler = scheduler
        self._driver = driver
        self._costs = costs
        self._rng = rng
        self.name = name
        if telemetry is None and driver is not None:
            telemetry = driver.telemetry
        self.telemetry = ensure_telemetry(telemetry)
        stats = self.telemetry.scope(stats_prefix)
        self._requests = stats.counter("requests")
        self._responses = stats.counter("responses")
        self._ignored = stats.counter("ignored")
        self._span_probe = self.telemetry.probe("request.span")
        self._account_probe = self.telemetry.probe("request.account")
        #: Optional core affinity for the *next* request's jobs, set
        #: around each delivery by :meth:`on_packet_pinned`.
        self.affinity_hint: Optional[int] = None
        #: Called with each request's server-observed latency (ns from the
        #: client send timestamp to the response hitting the NIC) — the
        #: feed Pegasus-style slack controllers consume.
        self.latency_listeners: list = []

    # -- bookkeeping (registry-backed) -------------------------------------

    @property
    def requests_received(self) -> int:
        return int(self._requests.value)

    @property
    def responses_sent(self) -> int:
        return int(self._responses.value)

    @property
    def non_requests_ignored(self) -> int:
        return int(self._ignored.value)

    # -- workload shape (override in subclasses) ---------------------------

    def service_cycles(self, frame: Frame) -> float:
        """CPU cycles for phase 1 (parse + process)."""
        raise NotImplementedError

    def io_latency_ns(self, frame: Frame) -> int:
        """Off-CPU latency for phase 2 (0 = no I/O phase)."""
        raise NotImplementedError

    def response_bytes(self, frame: Frame) -> int:
        """Response payload size."""
        raise NotImplementedError

    def response_cycles(self, frame: Frame, response_bytes: int) -> float:
        """CPU cycles for phase 3, excluding kernel transmit cost."""
        raise NotImplementedError

    # -- request pipeline -----------------------------------------------------

    def on_packet(self, frame: Frame) -> None:
        """Socket delivery point — wire as ``NICDriver.packet_sink``."""
        if frame.kind != "request":
            self._ignored.inc()
            return
        self._requests.inc()
        hint = self.affinity_hint
        if self._span_probe.enabled:
            self._span_probe.emit(
                RequestPhase(self._sim.now, frame.src, frame.req_id, "service", hint)
            )
        track = _RequestTrack(self._sim.now) if self._account_probe.enabled else None
        job = Job(
            self.service_cycles(frame),
            on_complete=self._after_service,
            name="service",
            args=(frame, hint, track),
        )
        if track is not None:
            job.account = track.svc
        self._scheduler.enqueue(job, core_hint=hint)

    def on_packet_pinned(self, core_id: int, frame: Frame) -> None:
        """Deliver ``frame`` with its jobs kept on ``core_id``: the sink of
        a per-core rx queue, so a flow's processing stays on its RSS
        queue's core (RFS-style)."""
        self.affinity_hint = core_id
        try:
            self.on_packet(frame)
        finally:
            self.affinity_hint = None

    def _after_service(
        self, frame: Frame, hint: Optional[int], track: Optional[_RequestTrack]
    ) -> None:
        if track is not None:
            track.svc_done_ns = self._sim.now
        io_ns = self.io_latency_ns(frame)
        if io_ns > 0:
            self._sim.schedule(io_ns, self._after_io, frame, hint, track)
        else:
            self._after_io(frame, hint, track)

    def _after_io(
        self, frame: Frame, hint: Optional[int], track: Optional[_RequestTrack]
    ) -> None:
        size = self.response_bytes(frame)
        cycles = self.response_cycles(frame, size)
        cycles += self._costs.tx_message_cycles(segments_for(size))
        job = Job(
            cycles,
            on_complete=self._send_response,
            name="response",
            args=(frame, size, track),
        )
        if track is not None:
            track.resp_enqueue_ns = self._sim.now
            job.account = track.resp
        self._scheduler.enqueue(job, core_hint=hint)

    def _send_response(
        self, frame: Frame, size: int, track: Optional[_RequestTrack]
    ) -> None:
        self._responses.inc()
        if self._span_probe.enabled:
            self._span_probe.emit(
                RequestPhase(
                    self._sim.now, frame.src, frame.req_id, "reply",
                    track.svc.first_core if track is not None else None,
                )
            )
        if track is not None and self._account_probe.enabled:
            now = self._sim.now
            self._account_probe.emit(
                RequestAccounting(
                    t_ns=now,
                    src=frame.src,
                    req_id=frame.req_id,
                    core=track.svc.first_core,
                    resp_core=track.resp.first_core,
                    svc_enqueue_ns=track.svc_enqueue_ns,
                    svc_start_ns=track.svc.first_start_ns or 0,
                    svc_done_ns=track.svc_done_ns,
                    resp_enqueue_ns=track.resp_enqueue_ns,
                    resp_start_ns=track.resp.first_start_ns or 0,
                    cpu_ns=track.svc.cpu_ns + track.resp.cpu_ns,
                    cycles=track.svc.cycles + track.resp.cycles,
                    stall_ns=track.svc.stall_ns + track.resp.stall_ns,
                )
            )
        for listener in self.latency_listeners:
            listener(self._sim.now - frame.created_ns)
        self._driver.transmit(
            make_response(
                self.name,
                frame.src,
                payload_bytes=size,
                req_id=frame.req_id,
                created_ns=self._sim.now,
            )
        )
