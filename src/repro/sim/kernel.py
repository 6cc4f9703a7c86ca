"""Deterministic discrete-event simulation kernel.

The kernel is a two-tier calendar queue (a timing-wheel / calendar-queue
hybrid) with same-timestamp batch dispatch:

- :class:`Event` — a scheduled callback, cancellable in O(1).
- :class:`Simulator` — the production scheduler.  Near-future events
  (before the *overflow horizon*) live in exact-timestamp buckets — a
  dict keyed by firing time plus an int min-heap of bucket times — so
  the inner loop pops one integer per *timestamp*, not one Python object
  per *event*.  Far-future events (at or past the horizon) sit in an
  unsorted overflow list with O(1) append and O(1) tail removal; the
  overflow is sorted and folded into the wheel only when the wheel
  drains, advancing the horizon.
The classic binary-heap scheduler the wheel replaced lives on in the
test suite (``tests/sim/heap_reference.py``) as the differential-parity
reference: same API, same observable behaviour (event order, seq
consumption, results).

Determinism guarantees:

- Time is an integer; no float drift can reorder events.
- Ties at the same timestamp fire in scheduling order (a monotonically
  increasing sequence number breaks ties; bucket order is insertion
  order, which is seq order).
- Callbacks scheduled *during* an event at the current time run after
  all previously scheduled events at that time.
- ``stop()`` halts dispatch after the current event — mid-bucket and
  mid-batch included; the unconsumed remainder is requeued ahead of any
  same-timestamp events scheduled while the bucket was dispatching.

Bulk entrypoints (the batch layer):

- :meth:`Simulator.schedule_many` — bulk fire-and-forget scheduling of
  one callback at many timestamps; entries share a single tuple, no
  per-event :class:`Event` allocation.
- :meth:`Simulator.schedule_batch` — ``count`` same-timestamp calls as
  one bucket entry with a precomputed handler binding; the dispatch
  loop does one clock update for the whole batch.
- :meth:`Simulator.reschedule` — re-arm an event in O(1): a fired or
  tail-resident event is unlinked and its object reused; an interior
  event falls back to tombstone-plus-fresh-event.  Semantically
  identical to ``cancel()`` + ``schedule()``.

Cancellation hygiene: a cancelled event that is the *tail* of its
bucket (or of the overflow) is unlinked immediately (counted in
:attr:`Simulator.cancelled_unlinked`); anything interior becomes a lazy
tombstone skipped at dispatch (:attr:`Simulator.cancelled_pops`).  The
simulator counts live tombstones and compacts all tiers in place —
O(n), order preserving — once they exceed
:attr:`Simulator.COMPACT_FRACTION` of the queue.

There is one dispatch loop, and it reads no wall clock.  The self-profiler
(:class:`repro.profiling.SimProfiler`) times handlers from outside: it
wraps one simulator object's scheduling methods and ``run``, so a
simulator without one pays nothing for it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


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
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state}, fn={self.fn!r})"


class _Batch:
    """``count`` same-timestamp fire-and-forget calls as one bucket entry."""

    __slots__ = ("fn", "args", "count")

    def __init__(self, fn: Callable[..., None], args: tuple, count: int):
        self.fn = fn
        self.args = args
        self.count = count


_TUPLE = tuple
_EVENT = Event


class Simulator:
    """Event-driven simulator with an integer-nanosecond clock.

    Two-tier calendar scheduler: exact-timestamp wheel buckets indexed
    by an int min-heap for everything before :attr:`_horizon`, an
    unsorted overflow list for everything at or past it.  The horizon
    only ever advances inside :meth:`_migrate` — all wheel times stay
    strictly below it and all overflow times at or above it, so the two
    tiers never interleave.
    """

    #: Compact once cancelled tombstones exceed this fraction of the queue.
    COMPACT_FRACTION = 0.5
    #: ... but never bother below this queue size (compaction is O(n)).
    COMPACT_MIN_SIZE = 64
    #: Width of the near-future window serviced by the wheel.  Events
    #: scheduled further out stage in the overflow list until the wheel
    #: drains.  ~2.1 simulated milliseconds: wide enough to hold every
    #: periodic timer in the model (ITR, governor ticks, burst periods),
    #: narrow enough that the due-heap stays small.
    OVERFLOW_SPAN_NS = 1 << 21

    def __init__(self) -> None:
        #: firing time -> list of entries (Event | (fn, args) | _Batch),
        #: in seq order.  Only times < _horizon.
        self._wheel: Dict[int, list] = {}
        #: Min-heap of (possibly stale) wheel bucket times.
        self._due: List[int] = []
        #: Unsorted far-future staging: (time, seq, entry) records.
        self._overflow: List[Tuple[int, int, Any]] = []
        self._horizon: int = self.OVERFLOW_SPAN_NS
        self._now: int = 0
        self._seq: int = 0
        #: Scheduled call units physically queued (tombstones included;
        #: a _Batch counts as its ``count``).
        self._size: int = 0
        self._running = False
        self._stopped = False
        self.events_executed: int = 0
        #: Cancelled tombstones lazily skipped by the dispatch loop.
        self.cancelled_pops: int = 0
        #: Cancelled events unlinked eagerly (tail-of-bucket fast path).
        self.cancelled_unlinked: int = 0
        #: In-place queue rebuilds triggered by cancellation pressure.
        self.compactions: int = 0
        #: Cancelled events removed by those compactions.
        self.compacted_events: int = 0
        #: Exact count of cancelled tombstones still linked in the queue.
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
        self._seq += 1
        event = Event(time, self._seq, fn, args, self)
        if time < self._horizon:
            bucket = self._wheel.get(time)
            if bucket is None:
                self._wheel[time] = [event]
                heapq.heappush(self._due, time)
            else:
                bucket.append(event)
        else:
            self._overflow.append((time, self._seq, event))
        self._size += 1
        return event

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time`` ns."""
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; now is t={self._now} ns"
            )
        self._seq += 1
        event = Event(time, self._seq, fn, args, self)
        if time < self._horizon:
            bucket = self._wheel.get(time)
            if bucket is None:
                self._wheel[time] = [event]
                heapq.heappush(self._due, time)
            else:
                bucket.append(event)
        else:
            self._overflow.append((time, self._seq, event))
        self._size += 1
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
        wheel = self._wheel
        due = self._due
        overflow = self._overflow
        push = heapq.heappush
        horizon = self._horizon
        now = self._now
        entry = (fn, args)
        seq = self._seq
        n = 0
        for t in times:
            t = int(t)
            if t < now:
                self._seq = seq
                self._size += n
                raise SimulationError(
                    f"cannot schedule at t={t} ns; now is t={now} ns"
                )
            seq += 1
            if t < horizon:
                bucket = wheel.get(t)
                if bucket is None:
                    wheel[t] = [entry]
                    push(due, t)
                else:
                    bucket.append(entry)
            else:
                overflow.append((t, seq, entry))
            n += 1
        self._seq = seq
        self._size += n
        return n

    def schedule_batch(
        self, delay: int, count: int, fn: Callable[..., None], *args: Any
    ) -> int:
        """Schedule ``count`` fire-and-forget ``fn(*args)`` calls ``delay``
        ns from now, as a single bucket entry.

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
        first_seq = self._seq + 1
        self._seq += count
        entry = _Batch(fn, args, count)
        if time < self._horizon:
            bucket = self._wheel.get(time)
            if bucket is None:
                self._wheel[time] = [entry]
                heapq.heappush(self._due, time)
            else:
                bucket.append(entry)
        else:
            self._overflow.append((time, first_seq, entry))
        self._size += count
        return count

    def reschedule(self, event: Event, delay: int) -> Event:
        """Re-arm ``event`` to fire ``delay`` ns from now.

        Semantically identical to ``event.cancel()`` followed by
        ``schedule(delay, event.fn, *event.args)`` — one sequence number
        is consumed either way — but O(1) when the event has already
        fired or sits at the tail of its bucket: the Event object is
        unlinked and reused with no allocation and no tombstone.  Always
        use the *returned* event for the next re-arm.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        time = self._now + int(delay)
        if event._queued:
            if event.cancelled:
                # Tombstone still linked elsewhere: reusing the object
                # would resurrect it in place.  Schedule fresh.
                return self.schedule_at(time, event.fn, *event.args)
            etime = event.time
            if etime >= self._horizon:
                overflow = self._overflow
                if overflow and overflow[-1][2] is event:
                    # Tail unlink + reuse: net queue size is unchanged
                    # and the event's flags are already clean.
                    overflow.pop()
                    seq = self._seq + 1
                    self._seq = seq
                    event.time = time
                    event.seq = seq
                    if time < self._horizon:
                        bucket = self._wheel.get(time)
                        if bucket is None:
                            self._wheel[time] = [event]
                            heapq.heappush(self._due, time)
                        else:
                            bucket.append(event)
                    else:
                        overflow.append((time, seq, event))
                    return event
            else:
                bucket = self._wheel.get(etime)
                if bucket is not None and bucket[-1] is event:
                    bucket.pop()
                    if not bucket:
                        del self._wheel[etime]
                    seq = self._seq + 1
                    self._seq = seq
                    event.time = time
                    event.seq = seq
                    if time < self._horizon:
                        bucket = self._wheel.get(time)
                        if bucket is None:
                            self._wheel[time] = [event]
                            heapq.heappush(self._due, time)
                        else:
                            bucket.append(event)
                    else:
                        self._overflow.append((time, seq, event))
                    return event
            # Interior: tombstone in place, arm a fresh event.
            event.cancelled = True
            self._lazy_cancel()
            return self.schedule_at(time, event.fn, *event.args)
        # Previously fired or cancelled-and-unlinked: reuse the object.
        self._seq += 1
        event.time = time
        event.seq = self._seq
        event.cancelled = False
        event._queued = True
        if time < self._horizon:
            bucket = self._wheel.get(time)
            if bucket is None:
                self._wheel[time] = [event]
                heapq.heappush(self._due, time)
            else:
                bucket.append(event)
        else:
            self._overflow.append((time, self._seq, event))
        self._size += 1
        return event

    # -- queue hygiene ---------------------------------------------------

    def heap_size(self) -> int:
        """Call units currently queued, cancelled tombstones included."""
        return self._size

    @property
    def cancelled_pending(self) -> int:
        """Cancelled tombstones still occupying queue slots."""
        return self._cancelled_in_heap

    def _note_cancel(self, event: Event) -> None:
        """Called by :meth:`Event.cancel` (``event.cancelled`` already set)."""
        if not event._queued:
            return  # already fired or unlinked; nothing to remove
        time = event.time
        if time >= self._horizon:
            overflow = self._overflow
            if overflow and overflow[-1][2] is event:
                overflow.pop()
                event._queued = False
                self._size -= 1
                self.cancelled_unlinked += 1
                return
        else:
            bucket = self._wheel.get(time)
            if bucket is not None and bucket[-1] is event:
                bucket.pop()
                event._queued = False
                self._size -= 1
                self.cancelled_unlinked += 1
                if not bucket:
                    del self._wheel[time]
                return
        self._lazy_cancel()

    def _lazy_cancel(self) -> None:
        """Account one interior tombstone; compact under pressure."""
        self._cancelled_in_heap += 1
        if (
            self._size >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap >= self._size * self.COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones from every tier, in place.

        In place matters: the dispatch loop holds local aliases to the
        wheel dict, due heap, and overflow list, so those objects must
        survive compaction.  Bucket order is preserved, so live-event
        ordering is unchanged.
        """
        removed = 0
        wheel = self._wheel
        for time in list(wheel):
            bucket = wheel[time]
            kept = [
                e
                for e in bucket
                if e.__class__ is not Event or not e.cancelled
            ]
            if len(kept) != len(bucket):
                removed += len(bucket) - len(kept)
                if kept:
                    wheel[time] = kept
                else:
                    del wheel[time]
        # Rebuild the due-heap from live bucket times; stale times from
        # emptied buckets drop out here.
        self._due[:] = list(wheel)
        heapq.heapify(self._due)
        overflow = self._overflow
        kept_overflow = [
            rec
            for rec in overflow
            if rec[2].__class__ is not Event or not rec[2].cancelled
        ]
        removed += len(overflow) - len(kept_overflow)
        overflow[:] = kept_overflow
        self._size -= removed
        self.compactions += 1
        self.compacted_events += removed
        self._cancelled_in_heap = 0

    def _migrate(self) -> None:
        """Fold the nearest overflow span into the wheel.

        Only called when the wheel is empty, so ordering cannot be
        violated: the horizon advances to ``min(overflow time) + span``
        and exactly the records below it move, sorted by (time, seq) so
        bucket insertion order remains seq order.  This is the *only*
        place the horizon changes.
        """
        overflow = self._overflow
        t_min = min(rec[0] for rec in overflow)
        new_horizon = t_min + self.OVERFLOW_SPAN_NS
        moved = []
        kept = []
        for rec in overflow:
            if rec[0] < new_horizon:
                moved.append(rec)
            else:
                kept.append(rec)
        moved.sort(key=lambda rec: (rec[0], rec[1]))
        wheel = self._wheel
        due = self._due
        push = heapq.heappush
        for time, _seq, entry in moved:
            bucket = wheel.get(time)
            if bucket is None:
                wheel[time] = [entry]
                push(due, time)
            else:
                bucket.append(entry)
        overflow[:] = kept
        self._horizon = new_horizon

    # -- execution -------------------------------------------------------

    def stop(self) -> None:
        """Stop the currently running :meth:`run` after the current event."""
        self._stopped = True

    def _requeue(self, time: int, rest: list) -> None:
        """Put an unconsumed bucket remainder back at the front of ``time``.

        Entries scheduled at ``time`` *during* the dispatch of this
        bucket carry higher seqs, so the remainder is prepended.
        """
        bucket = self._wheel.get(time)
        if bucket is None:
            self._wheel[time] = rest
            heapq.heappush(self._due, time)
        else:
            bucket[:0] = rest

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
        wheel = self._wheel
        due = self._due
        pop_due = heapq.heappop
        executed = self.events_executed
        try:
            while not self._stopped:
                if not due:
                    if not self._overflow:
                        break
                    self._migrate()
                    continue
                time = due[0]
                bucket = wheel.get(time)
                if bucket is None:
                    pop_due(due)  # stale: bucket emptied by unlink/compact
                    continue
                if until is not None and time > until:
                    break
                pop_due(due)
                del wheel[time]
                # Drain leading tombstones before touching the clock: a
                # bucket that turns out to be all-cancelled must not
                # advance ``now`` (parity with the heap, where cancelled
                # pops never set the clock).
                i = 0
                n = len(bucket)
                consumed = 0
                while i < n:
                    e = bucket[i]
                    if e.__class__ is not _EVENT or not e.cancelled:
                        break
                    i += 1
                    consumed += 1
                    self.cancelled_pops += 1
                    if self._cancelled_in_heap > 0:
                        self._cancelled_in_heap -= 1
                if i == n:
                    self._size -= consumed
                    continue
                self._now = time
                try:
                    while i < n:
                        e = bucket[i]
                        cls = e.__class__
                        if cls is _TUPLE:
                            i += 1
                            consumed += 1
                            executed += 1
                            e[0](*e[1])
                            if self._stopped:
                                break
                        elif cls is _Batch:
                            fn = e.fn
                            args = e.args
                            k = e.count
                            j = 0
                            try:
                                while j < k:
                                    fn(*args)
                                    j += 1
                                    if self._stopped:
                                        break
                            finally:
                                consumed += j
                                executed += j
                                if j < k:
                                    e.count = k - j
                            if j < k:
                                break  # stopped mid-batch; e stays at bucket[i]
                            i += 1
                            if self._stopped:
                                break
                        else:
                            i += 1
                            if e.cancelled:
                                consumed += 1
                                self.cancelled_pops += 1
                                if self._cancelled_in_heap > 0:
                                    self._cancelled_in_heap -= 1
                                continue
                            e._queued = False
                            consumed += 1
                            executed += 1
                            e.fn(*e.args)
                            if self._stopped:
                                break
                finally:
                    self.events_executed = executed
                    self._size -= consumed
                    if i < n:
                        self._requeue(time, bucket[i:])
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self.events_executed = executed
            self._running = False
        return self._now

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the queue is empty.

        Drains (physically unlinks) any cancelled tombstones at the
        front of the queue on the way, migrating the overflow if the
        wheel is empty.
        """
        wheel = self._wheel
        due = self._due
        while True:
            while due:
                time = due[0]
                bucket = wheel.get(time)
                if bucket is None:
                    heapq.heappop(due)
                    continue
                i = 0
                n = len(bucket)
                while (
                    i < n
                    and bucket[i].__class__ is Event
                    and bucket[i].cancelled
                ):
                    i += 1
                if i:
                    del bucket[:i]
                    self.cancelled_pops += i
                    self._cancelled_in_heap -= min(i, self._cancelled_in_heap)
                    self._size -= i
                if bucket:
                    return time
                del wheel[time]
                heapq.heappop(due)
            if not self._overflow:
                return None
            self._migrate()

    def pending_count(self) -> int:
        """Number of non-cancelled call units still queued (O(n))."""
        total = 0
        for bucket in self._wheel.values():
            for e in bucket:
                cls = e.__class__
                if cls is Event:
                    if not e.cancelled:
                        total += 1
                elif cls is _Batch:
                    total += e.count
                else:
                    total += 1
        for _time, _seq, e in self._overflow:
            cls = e.__class__
            if cls is Event:
                if not e.cancelled:
                    total += 1
            elif cls is _Batch:
                total += e.count
            else:
                total += 1
        return total
