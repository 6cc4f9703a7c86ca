"""Per-request critical-path attribution: blame every nanosecond.

The :class:`AttributionSink` subscribes to the ProbeBus and joins each
request's ``request.span`` phase markers with the ``request.account``
execution account and with the concurrent C-state and IRQ events on the
serving cores.  Each completed request's end-to-end latency decomposes
into named, non-overlapping components that sum to the measured RTT
**exactly** (the auditor enforces ±1 ns):

========== =============================================================
wire       client → server wire propagation + switch/link queueing
dma        NIC ring wait: wire arrival → rx descriptor DMA complete
coalesce   interrupt-moderation delay: DMA complete → NIC hardirq
wake       C-state exit latency overlapping the request (rx-side on the
           SoftIRQ core + run-queue-side on the serving cores)
kernel     hardirq/SoftIRQ stack processing: remainder of DMA → socket
queue      run-queue wait of the service and response jobs, minus wake
service    ideal service time: retired cycles re-cost at F_max
ramp       DVFS penalty: wall-clock slowdown from sub-nominal frequency
           (cpu_ns - cycles/F_max) plus PLL-relock halts
preempt    time the request's jobs sat preempted by kernel work
io         off-CPU I/O phase (Apache disk; zero for Memcached)
tx         reply → client receipt (kernel tx already billed in service)
========== =============================================================

Aggregation is O(K)-memory: one running sum per component, a
:class:`StreamingSketch` of the totals (its quantiles pick the tail
threshold) and a bounded top-K heap of the slowest requests, from which
tail (p95/p99) blame tables are computed.  The top-K keeps flat rows: a
``(total_ns, seq, slot)`` heap tuple plus one 88-byte row of eleven
doubles per entry, so a default 4,096-entry top-K holds about 1 MB.  A
request between its server-side account and its client RTT waits as one
tuple.  Per-request :class:`RequestAttribution` records are built only
on request (``keep_records=True``, for tests and deep dives).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.sketch import StreamingSketch
from repro.telemetry.events import (
    CStateTransition,
    IrqDelivered,
    RequestAccounting,
    RequestPhase,
)

#: Component names, in pipeline order (presentation order for tables).
COMPONENTS = (
    "wire", "dma", "coalesce", "wake", "kernel", "queue",
    "service", "ramp", "preempt", "io", "tx",
)

#: Components the paper blames on power management (Figures 2 and 7):
#: C-state exit latency and DVFS ramp/slowdown.
PM_COMPONENTS = ("wake", "ramp")

#: Doubles per top-K row: one per component, in :data:`COMPONENTS` order.
_ROW = len(COMPONENTS)


@dataclass
class RequestAttribution:
    """One request's fully decomposed end-to-end latency."""

    src: str
    req_id: int
    send_ns: int
    total_ns: int
    components: Dict[str, float]

    @property
    def span_id(self) -> str:
        return f"{self.src}/{self.req_id}"

    def share(self, name: str) -> float:
        return self.components[name] / self.total_ns if self.total_ns else 0.0


@dataclass
class TailAttribution:
    """Mean component blame over the requests at/above one percentile."""

    percentile: float
    threshold_ns: float          # latency at the percentile
    count: int                   # tail-set size the means were taken over
    mean_total_ns: float
    component_ns: Dict[str, float]
    shares: Dict[str, float]     # component_ns / mean_total_ns

    @property
    def wake_ramp_share(self) -> float:
        """The paper's causal quantity: power-management blame share."""
        return sum(self.shares.get(c, 0.0) for c in PM_COMPONENTS)


@dataclass
class AttributionReport:
    """Per-policy attribution summary (picklable, record-serializable)."""

    count: int
    mean_total_ns: float
    component_mean_ns: Dict[str, float]
    tails: Dict[str, TailAttribution] = field(default_factory=dict)
    unmatched: int = 0

    def to_flat_dict(self) -> Dict[str, float]:
        """Flatten to ``str -> float`` for :class:`ResultRecord` (v3)."""
        flat: Dict[str, float] = {
            "count": float(self.count),
            "unmatched": float(self.unmatched),
            "mean.total_ns": self.mean_total_ns,
        }
        for name, value in self.component_mean_ns.items():
            flat[f"mean.{name}_ns"] = value
        for label, tail in self.tails.items():
            flat[f"{label}.threshold_ns"] = tail.threshold_ns
            flat[f"{label}.mean_total_ns"] = tail.mean_total_ns
            flat[f"{label}.count"] = float(tail.count)
            for name, value in tail.component_ns.items():
                flat[f"{label}.{name}_ns"] = value
            flat[f"{label}.wake_ramp_share"] = tail.wake_ramp_share
        return flat


class _OpenSpan:
    """Server-side request state between wire arrival and reply."""

    __slots__ = ("arrival_ns", "dma_ns", "delivered_ns", "rx_core")

    def __init__(self, arrival_ns: int):
        self.arrival_ns = arrival_ns
        self.dma_ns: Optional[int] = None
        self.delivered_ns: Optional[int] = None
        self.rx_core: int = 0


class AttributionSink:
    """ProbeBus sink building per-request critical-path attributions.

    Attach via ``run_experiment(config, sinks=[AttributionSink()])`` (the
    cluster fills in ``f_max_hz`` and the measurement window), or attach
    to a bare :class:`~repro.telemetry.Telemetry` and call
    :meth:`on_client_rtt` yourself when driving events by hand.

    What it retains: per top-K entry, a ``(total_ns, seq, slot)`` tuple
    in ``_heap`` and the entry's eleven components, in
    :data:`COMPONENTS` order, at ``_rows[11*slot : 11*slot+11]`` (an
    88-byte row of one ``array("d")``; a replaced root's row is
    overwritten in place).  Per request still waiting for its RTT,
    ``_done`` holds one tuple ``(arrival_ns, reply_ns, dma, coalesce,
    kernel, wake, queue, service, ramp, preempt, io)``.
    """

    #: Prune per-core event timelines every this many finalized requests.
    PRUNE_EVERY = 256

    def __init__(
        self,
        f_max_hz: Optional[float] = None,
        keep_records: bool = False,
        top_k: int = 4096,
        measure_window: Optional[Tuple[int, int]] = None,
        conservation_tol_ns: float = 1.0,
    ):
        if top_k < 1:
            raise ValueError(f"AttributionSink top_k must be at least 1, got {top_k!r}")
        self.f_max_hz = f_max_hz
        self.keep_records = keep_records
        self.top_k = top_k
        self.measure_window = measure_window
        self.conservation_tol_ns = conservation_tol_ns

        self.count = 0
        self.unmatched_rtts = 0
        self.records: List[RequestAttribution] = []
        self.conservation_violations: List[str] = []
        self.total_sketch = StreamingSketch()
        self._component_sums = [0.0] * _ROW

        self._spans: Dict[Tuple[str, Optional[int]], _OpenSpan] = {}
        self._done: Dict[Tuple[str, int], tuple] = {}         # see the class doc
        self._waking: Dict[int, List[Tuple[int, int]]] = {}  # closed intervals
        self._irqs: Dict[int, List[int]] = {}                # nic hardirq times
        self._heap: List[Tuple[int, int, int]] = []          # (total, seq, slot)
        self._rows = array("d")                              # _ROW per slot
        self._seq = 0
        self._since_prune = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, telemetry) -> None:
        bus = telemetry.probes
        bus.subscribe("request.span", self._on_span)
        bus.subscribe("request.account", self._on_account)
        bus.subscribe("cpu.cstate", self._on_cstate)
        bus.subscribe("irq.delivered", self._on_irq)

    # -- event intake ------------------------------------------------------

    def _on_cstate(self, event: CStateTransition) -> None:
        if event.phase == "wake" and event.exit_latency_ns > 0:
            self._waking.setdefault(event.core_id, []).append(
                (event.t_ns - event.exit_latency_ns, event.t_ns)
            )

    def _on_irq(self, event: IrqDelivered) -> None:
        if event.kind == "hardirq" and event.name == "nic-irq":
            self._irqs.setdefault(event.core_id, []).append(event.t_ns)

    def _on_span(self, event: RequestPhase) -> None:
        phase = event.phase
        key = (event.src, event.req_id)
        if phase == "arrival":
            self._spans[key] = _OpenSpan(event.t_ns)
            return
        span = self._spans.get(key)
        if span is None:
            return
        if phase == "dma":
            span.dma_ns = event.t_ns
        elif phase == "delivered":
            span.delivered_ns = event.t_ns
            if event.core is not None:
                span.rx_core = event.core
        elif phase == "dropped":
            del self._spans[key]

    def _on_account(self, event: RequestAccounting) -> None:
        span = self._spans.pop((event.src, event.req_id), None)
        if span is None or span.dma_ns is None or span.delivered_ns is None:
            return
        if self.f_max_hz is None:
            raise RuntimeError(
                "AttributionSink.f_max_hz is unset — the cluster normally "
                "fills it in; set it explicitly for standalone use"
            )
        dma_t, delivered = span.dma_ns, span.delivered_ns

        dma = float(dma_t - span.arrival_ns)
        # Interrupt-moderation delay: first NIC hardirq on the rx core in
        # [dma, delivered].  A batch delivered without a fresh interrupt
        # (NAPI re-poll) has zero coalescing delay.
        irq_t = self._first_irq(span.rx_core, dma_t, delivered)
        coalesce = float(irq_t - dma_t) if irq_t is not None else 0.0
        # Rx-side C-state exit latency: WAKING time on the rx core after
        # the interrupt (the wake the interrupt itself triggered).
        rx_from = irq_t if irq_t is not None else dma_t
        wake_rx = self._waking_overlap(span.rx_core, rx_from, delivered)
        kernel = float(delivered - dma_t) - coalesce - wake_rx

        # Run-queue wait of both jobs, with queue-side wakes split out.
        wake_q = self._waking_overlap(
            event.core, delivered, event.svc_start_ns
        ) + self._waking_overlap(
            event.resp_core, event.resp_enqueue_ns, event.resp_start_ns
        )
        wake = wake_rx + wake_q
        queue = (
            float(event.svc_start_ns - delivered)
            + float(event.resp_start_ns - event.resp_enqueue_ns)
            - wake_q
        )

        # On-CPU time: ideal service at F_max; everything slower is ramp.
        # Event times are integer ns while cycles are exact, so the ideal
        # time can exceed the measured on-CPU time by sub-ns quantization;
        # clamp so ramp stays non-negative (the remainder is service).
        on_cpu = float(event.cpu_ns + event.stall_ns)
        service = min(event.cycles / self.f_max_hz * 1e9, on_cpu)
        ramp = on_cpu - service
        # Preemption: span wall time of both jobs minus on-CPU and stalls.
        job_span = float(
            (event.svc_done_ns - event.svc_start_ns)
            + (event.t_ns - event.resp_start_ns)
        )
        preempt = job_span - float(event.cpu_ns + event.stall_ns)
        io = float(event.resp_enqueue_ns - event.svc_done_ns)

        key = (event.src, event.req_id if event.req_id is not None else -1)
        self._done[key] = (
            span.arrival_ns, event.t_ns,
            dma, coalesce, kernel, wake, queue, service, ramp, preempt, io,
        )
        self._since_prune += 1
        if self._since_prune >= self.PRUNE_EVERY:
            self._prune(event.t_ns)

    # -- client join -------------------------------------------------------

    def on_client_rtt(self, src: str, req_id: int, send_ns: int, rtt_ns: int) -> None:
        """Join a client-observed RTT with the server-side decomposition."""
        rec = self._done.pop((src, req_id), None)
        if rec is None:
            self.unmatched_rtts += 1
            return
        window = self.measure_window
        if window is not None and not (window[0] <= send_ns < window[1]):
            return
        (arrival_ns, reply_ns, dma, coalesce, kernel, wake, queue,
         service, ramp, preempt, io) = rec
        wire = float(arrival_ns - send_ns)
        tx = float(send_ns + rtt_ns - reply_ns)
        total = rtt_ns

        # Left to right, as sum() added floats through Python 3.11 (3.12
        # compensates), so the bits do not depend on the interpreter.
        delta = total - (
            dma + coalesce + kernel + wake + queue + service + ramp
            + preempt + io + wire + tx
        )
        if abs(delta) > self.conservation_tol_ns and (
            len(self.conservation_violations) < 25
        ):
            self.conservation_violations.append(
                f"{src}/{req_id}: components sum to {total - delta:.3f} ns "
                f"but measured RTT is {total} ns (delta {delta:+.3f})"
            )

        row = (wire, dma, coalesce, wake, kernel, queue,    # COMPONENTS order
               service, ramp, preempt, io, tx)
        self.count += 1
        self.total_sketch.add(total)
        sums = self._component_sums
        for i, value in enumerate(row):
            sums[i] += value
        if self.keep_records:
            self.records.append(RequestAttribution(
                src=src, req_id=req_id, send_ns=send_ns,
                total_ns=total, components=dict(zip(COMPONENTS, row)),
            ))
        self._seq += 1
        heap = self._heap
        if len(heap) < self.top_k:
            heapq.heappush(heap, (total, self._seq, len(heap)))
            self._rows.extend(row)
        elif total >= heap[0][0]:
            # (total, seq) beats the root: seq is newer than every entry's.
            slot = heap[0][2]
            heapq.heapreplace(heap, (total, self._seq, slot))
            self._rows[_ROW * slot:_ROW * (slot + 1)] = array("d", row)

    # -- per-core timeline helpers -----------------------------------------

    def _first_irq(self, core: int, start: int, end: int) -> Optional[int]:
        for t in self._irqs.get(core, ()):
            if start <= t <= end:
                return t
        return None

    def _waking_overlap(self, core: Optional[int], start: int, end: int) -> float:
        if core is None or end <= start:
            return 0.0
        total = 0
        for lo, hi in self._waking.get(core, ()):
            if hi <= start:
                continue
            if lo >= end:
                break
            total += min(hi, end) - max(lo, start)
        return float(total)

    def _prune(self, now_ns: int) -> None:
        """Drop per-core events older than every open request."""
        self._since_prune = 0
        horizon = now_ns
        for span in self._spans.values():
            if span.arrival_ns < horizon:
                horizon = span.arrival_ns
        for core, intervals in self._waking.items():
            self._waking[core] = [iv for iv in intervals if iv[1] >= horizon]
        for core, times in self._irqs.items():
            self._irqs[core] = [t for t in times if t >= horizon]

    # -- reporting ---------------------------------------------------------

    def tail(self, percentile: float) -> Optional[TailAttribution]:
        """Blame means over the requests at/above ``percentile``.

        Computed from the top-K heap; if the tail set is larger than the
        retained K, the means cover the K slowest requests only (a deeper,
        strictly-within-tail subset).
        """
        if self.count == 0:
            return None
        threshold = self.total_sketch.quantile(percentile)
        entries = [(total, slot) for total, _, slot in self._heap if total >= threshold]
        if not entries:
            total, _, slot = max(self._heap)
            entries = [(total, slot)]
        n = len(entries)
        mean_total = sum(total for total, _ in entries) / n
        # Rows added left to right in heap-list order, like the
        # conservation sum above.
        acc = [0.0] * _ROW
        rows = self._rows
        for _, slot in entries:
            for i, value in enumerate(rows[_ROW * slot:_ROW * (slot + 1)]):
                acc[i] += value
        component_ns = {name: value / n for name, value in zip(COMPONENTS, acc)}
        shares = {
            name: (value / mean_total if mean_total else 0.0)
            for name, value in component_ns.items()
        }
        return TailAttribution(
            percentile=percentile,
            threshold_ns=threshold,
            count=n,
            mean_total_ns=mean_total,
            component_ns=component_ns,
            shares=shares,
        )

    def summary(self, percentiles: Tuple[float, ...] = (50.0, 95.0, 99.0)) -> AttributionReport:
        """The per-policy report: overall means plus tail blame tables."""
        if self.count == 0:
            return AttributionReport(
                count=0, mean_total_ns=float("nan"),
                component_mean_ns={}, tails={}, unmatched=self.unmatched_rtts,
            )
        component_mean = {
            name: total / self.count
            for name, total in zip(COMPONENTS, self._component_sums)
        }
        tails: Dict[str, TailAttribution] = {}
        for p in percentiles:
            tail = self.tail(p)
            if tail is not None:
                tails[f"p{p:g}"] = tail
        return AttributionReport(
            count=self.count,
            mean_total_ns=self.total_sketch.mean,
            component_mean_ns=component_mean,
            tails=tails,
            unmatched=self.unmatched_rtts,
        )
