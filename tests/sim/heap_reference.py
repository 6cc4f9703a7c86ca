"""A naive binary-heap scheduler: the parity oracle.

:class:`HeapScheduler` keeps the simplest dispatch semantics behind the
:class:`~repro.sim.kernel.Simulator` API: a heap of :class:`Event`
objects, one pop per call, and bulk calls as loops of single ones.  The
differential tests (``test_parity``, ``test_kernel``,
``test_kernel_properties``) run the same workloads on both and diff the
results; whole experiments run on it by swapping the ``Simulator`` name
where the builder creates one.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional

from repro.sim.kernel import Event, SimulationError


class HeapScheduler:
    """The classic binary-heap scheduler, retained as the parity reference.

    Lazy cancellation, in-place compaction and one heap pop per event,
    with naive equivalents of the bulk API (``schedule_many``,
    ``schedule_batch``, ``reschedule``) — same sequence-number
    consumption, so event order is bit-identical to :class:`Simulator`
    and differential tests can diff the two directly.
    """

    COMPACT_FRACTION = 0.5
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.events_executed: int = 0
        #: Cancelled events lazily discarded off the top of the heap.
        self.cancelled_pops: int = 0
        #: The heap has no unlink fast path; kept for a uniform stats API.
        self.cancelled_unlinked: int = 0
        #: In-place heap rebuilds triggered by cancellation pressure.
        self.compactions: int = 0
        #: Cancelled events removed by those compactions.
        self.compacted_events: int = 0
        #: Best-effort count of cancelled events still in the heap.  May
        #: overcount when an already-fired event is cancelled; compaction
        #: re-derives the truth.
        self._cancelled_in_heap: int = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self.schedule_at(self._now + int(delay), fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time`` ns."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; now is t={self._now} ns"
            )
        self._seq += 1
        event = Event(int(time), self._seq, fn, args, self)
        heapq.heappush(self._heap, event)
        return event

    def call_now(self, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        return self.schedule_at(self._now, fn, *args)

    def schedule_many(
        self, times: Iterable[int], fn: Callable[..., None], *args: Any
    ) -> int:
        """Naive loop equivalent of :meth:`Simulator.schedule_many`."""
        n = 0
        for t in times:
            self.schedule_at(int(t), fn, *args)
            n += 1
        return n

    def schedule_batch(
        self, delay: int, count: int, fn: Callable[..., None], *args: Any
    ) -> int:
        """Naive loop equivalent of :meth:`Simulator.schedule_batch`."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        if count <= 0:
            raise SimulationError(f"batch count must be positive, got {count}")
        time = self._now + int(delay)
        for _ in range(count):
            self.schedule_at(time, fn, *args)
        return count

    def reschedule(self, event: Event, delay: int) -> Event:
        """Cancel-plus-schedule equivalent of :meth:`Simulator.reschedule`."""
        if event._queued and not event.cancelled:
            event.cancel()
        return self.schedule(delay, event.fn, *event.args)

    # -- heap hygiene ----------------------------------------------------

    def heap_size(self) -> int:
        """Entries currently in the heap, cancelled ones included."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Estimated cancelled events still occupying heap slots."""
        return self._cancelled_in_heap

    def _note_cancel(self, _event: Event) -> None:
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap >= len(heap) * self.COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: the dispatch loops hold a local alias to the
        heap list, so the list object must survive compaction.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [event for event in heap if not event.cancelled]
        heapq.heapify(heap)
        self.compactions += 1
        self.compacted_events += before - len(heap)
        self._cancelled_in_heap = 0

    # -- execution -------------------------------------------------------

    def stop(self) -> None:
        """Stop the currently running :meth:`run` after the current event."""
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the heap empties or the clock passes ``until``."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            heap = self._heap
            while heap and not self._stopped:
                event = heap[0]
                if event.cancelled:
                    heapq.heappop(heap)
                    event._queued = False
                    self.cancelled_pops += 1
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and event.time > until:
                    break
                heapq.heappop(heap)
                event._queued = False
                self._now = event.time
                self.events_executed += 1
                event.fn(*event.args)
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
        return self._now

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the heap is empty.

        Drains (physically pops) any cancelled events sitting at the top
        of the heap on the way.
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self.cancelled_pops += 1
            self._cancelled_in_heap -= 1
        return heap[0].time if heap else None

    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(n))."""
        return sum(1 for event in self._heap if not event.cancelled)
