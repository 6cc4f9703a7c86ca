"""Deterministic discrete-event simulation kernel.

:class:`Simulator` keeps one binary min-heap (``heapq``) of ``(time,
seq, entry)`` tuples.  ``seq`` is unique, so Python orders the tuples
by C-level int compares of ``time``, then ``seq``, and never compares
entries.  An entry is an :class:`Event` (a cancellable callback), the
``(fn, args)`` pair one :meth:`Simulator.schedule_many` call shares
across its timestamps, or a batch of same-timestamp calls from
:meth:`Simulator.schedule_batch`, dispatched under one clock write.
The naive heap of events in ``tests/sim/heap_reference.py`` is the
differential-parity oracle: same API, same observable behaviour (event
order, seq consumption, results).

Determinism guarantees:

- Time is an integer; no float drift can reorder events.
- Ties fire in scheduling order: every logical event consumes one
  sequence number.  Callbacks scheduled *during* an event at the
  current time run after all previously scheduled events at that time.
- ``stop()`` halts dispatch after the current call, mid-batch included.
  The rest of a stopped batch, or of one whose call raised, goes back
  on the heap under its next unused sequence number, ahead of any
  same-timestamp entry scheduled later.

Cancellation: the last slot of a heap array is a leaf, so cancelling
the event there pops it in O(1) (:attr:`Simulator.cancelled_unlinked`),
and :meth:`Simulator.reschedule` reuses the object of an event there
(or of one that has fired or was unlinked).  Any other cancelled event stays as a
tombstone skipped at dispatch (:attr:`Simulator.cancelled_pops`); once
tombstones reach :attr:`Simulator.COMPACT_FRACTION` of a queue of at
least :attr:`Simulator.COMPACT_MIN_SIZE` call units, the heap is
rebuilt without them in place.

There is one dispatch loop, and it reads no wall clock.  The self-profiler
(:class:`repro.profiling.SimProfiler`) times handlers from outside: it
wraps one simulator object's scheduling methods and ``run``, so a
simulator without one pays nothing for it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


class Event:
    """A single scheduled callback.

    Events are created via :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; users only hold them to :meth:`cancel`
    or :meth:`Simulator.reschedule` them, or to inspect :attr:`time`.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "owner", "_queued")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        owner: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.owner = owner
        #: Physically linked into the owner's queue.  Cleared on dispatch
        #: and on unlink, so cancellation accounting is exact.
        self._queued = True

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        # Only the test suite's reference heap pushes bare events.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state}, fn={self.fn!r})"


class _Batch:
    """``count`` same-timestamp fire-and-forget calls as one heap entry."""

    __slots__ = ("fn", "args", "count")

    def __init__(self, fn: Callable[..., None], args: tuple, count: int):
        self.fn = fn
        self.args = args
        self.count = count


class Simulator:
    """Event-driven simulator with an integer-nanosecond clock."""

    #: Compact once cancelled tombstones reach this fraction of the queue.
    COMPACT_FRACTION = 0.5
    #: ... but never bother below this queue size (compaction is O(n)).
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        #: Min-heap of ``(time, seq, entry)``; entry is an Event, a
        #: ``(fn, args)`` pair or a _Batch.
        self._heap: List[Tuple[int, int, Any]] = []
        #: ``count - 1`` summed over queued batches, so the queue holds
        #: ``len(_heap) + _batched`` call units.
        self._batched: int = 0
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.events_executed: int = 0
        #: Cancelled tombstones lazily skipped by the dispatch loop.
        self.cancelled_pops: int = 0
        #: Cancelled events popped from the heap's last slot at once.
        self.cancelled_unlinked: int = 0
        #: In-place queue rebuilds triggered by cancellation pressure.
        self.compactions: int = 0
        #: Cancelled events removed by those compactions.
        self.compacted_events: int = 0
        #: Exact count of cancelled tombstones still in the heap.
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
        time = self._now + int(delay)
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time`` ns."""
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; now is t={self._now} ns"
            )
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_now(self, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        return self.schedule_at(self._now, fn, *args)

    def schedule_many(
        self, times: Iterable[int], fn: Callable[..., None], *args: Any
    ) -> int:
        """Bulk fire-and-forget scheduling of ``fn(*args)`` at ``times``.

        Each timestamp consumes one sequence number, exactly as the
        equivalent loop of :meth:`schedule_at` calls would, so ordering
        against individually scheduled events is identical.  No
        :class:`Event` objects are created — the entries cannot be
        cancelled.  Returns the number of calls scheduled.
        """
        heap = self._heap
        push = heapq.heappush
        now = self._now
        entry = (fn, args)
        first = seq = self._seq
        try:
            for t in times:
                t = int(t)
                if t < now:
                    raise SimulationError(
                        f"cannot schedule at t={t} ns; now is t={now} ns"
                    )
                seq += 1
                push(heap, (t, seq, entry))
        finally:
            self._seq = seq
        return seq - first

    def schedule_batch(
        self, delay: int, count: int, fn: Callable[..., None], *args: Any
    ) -> int:
        """Schedule ``count`` fire-and-forget ``fn(*args)`` calls ``delay``
        ns from now, as a single heap entry.

        Consumes ``count`` sequence numbers (the batch occupies the same
        ordering slots as ``count`` individual ``schedule`` calls) and
        dispatches with one clock update for the whole batch.  Returns
        ``count``.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        if count <= 0:
            raise SimulationError(f"batch count must be positive, got {count}")
        time = self._now + int(delay)
        seq = self._seq + 1
        self._seq += count
        self._batched += count - 1
        heapq.heappush(self._heap, (time, seq, _Batch(fn, args, count)))
        return count

    def reschedule(self, event: Event, delay: int) -> Event:
        """Re-arm ``event`` to fire ``delay`` ns from now.

        Semantically identical to ``event.cancel()`` followed by
        ``schedule(delay, event.fn, *event.args)`` — one sequence number
        is consumed either way — but the Event object is reused, with
        no allocation and no tombstone, when the event has already
        fired, was unlinked, or sits in the heap's last slot.  Always
        use the *returned* event for the next re-arm.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        time = self._now + int(delay)
        heap = self._heap
        if event._queued:
            if event.cancelled or heap[-1][2] is not event:
                # A tombstone stays in place; reusing its object would
                # resurrect it there.
                if not event.cancelled:
                    event.cancelled = True
                    self._lazy_cancel()
                return self.schedule_at(time, event.fn, *event.args)
            heap.pop()
        self._seq = seq = self._seq + 1
        event.time = time
        event.seq = seq
        event.cancelled = False
        event._queued = True
        heapq.heappush(heap, (time, seq, event))
        return event

    # -- queue hygiene ---------------------------------------------------

    def heap_size(self) -> int:
        """Call units currently queued, cancelled tombstones included."""
        return len(self._heap) + self._batched

    @property
    def cancelled_pending(self) -> int:
        """Cancelled tombstones still occupying queue slots."""
        return self._cancelled_in_heap

    def _note_cancel(self, event: Event) -> None:
        """Called by :meth:`Event.cancel` (``event.cancelled`` already set)."""
        if not event._queued:
            return  # already fired or unlinked; nothing to remove
        heap = self._heap
        if heap[-1][2] is event:
            heap.pop()
            event._queued = False
            self.cancelled_unlinked += 1
        else:
            self._lazy_cancel()

    def _lazy_cancel(self) -> None:
        """Account one tombstone; compact under pressure."""
        self._cancelled_in_heap += 1
        size = self.heap_size()
        if (
            size >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap >= size * self.COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify, in place.

        In place matters: the dispatch loop holds a local alias to the
        heap list, so the list object must survive compaction.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [
            rec
            for rec in heap
            if rec[2].__class__ is not Event or not rec[2].cancelled
        ]
        heapq.heapify(heap)
        self.compactions += 1
        self.compacted_events += before - len(heap)
        self._cancelled_in_heap = 0

    # -- execution -------------------------------------------------------

    def stop(self) -> None:
        """Stop the currently running :meth:`run` after the current call."""
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue empties or the clock passes ``until``.

        Returns the final simulated time.  When ``until`` is given, the
        clock is advanced to exactly ``until`` even if the last event fired
        earlier (so rate/energy integrations over the window are exact).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        executed = self.events_executed
        try:
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    break
                time, seq, e = pop(heap)
                cls = e.__class__
                if cls is Event:
                    if e.cancelled:
                        # A tombstone never moves the clock.
                        self.cancelled_pops += 1
                        self._cancelled_in_heap -= 1
                        continue
                    e._queued = False
                    self._now = time
                    executed += 1
                    e.fn(*e.args)
                elif cls is tuple:
                    self._now = time
                    executed += 1
                    e[0](*e[1])
                else:
                    self._now = time
                    fn, args, count = e.fn, e.args, e.count
                    self._batched -= count - 1
                    # Each call consumes its slot before it runs, so a
                    # call that raises is not repeated.
                    done = 0
                    try:
                        while done < count:
                            done += 1
                            fn(*args)
                            if self._stopped:
                                break
                    finally:
                        executed += done
                        if done < count:
                            e.count = count - done
                            self._batched += e.count - 1
                            heapq.heappush(heap, (time, seq + done, e))
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self.events_executed = executed
            self._running = False
        return self._now

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the queue is empty.

        Pops any cancelled tombstones at the front of the queue on the way.
        """
        heap = self._heap
        while heap:
            time, _seq, e = heap[0]
            if e.__class__ is not Event or not e.cancelled:
                return time
            heapq.heappop(heap)
            self.cancelled_pops += 1
            self._cancelled_in_heap -= 1
        return None

    def pending_count(self) -> int:
        """Number of non-cancelled call units still queued."""
        return len(self._heap) + self._batched - self._cancelled_in_heap
