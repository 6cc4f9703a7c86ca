"""Tests for the discrete-event kernel.

Most behavior is contractual and must hold for both the production
``Simulator`` and the ``HeapScheduler`` reference — those tests are
parametrized over the ``sim_cls`` fixture.  Cancellation *accounting*
(last-slot unlink vs lazy tombstone) is implementation-specific and
pinned in the per-kernel classes at the bottom.  Ids and names that say
``wheel`` mean the ``Simulator``: they keep the name of the calendar
queue it replaced, so test ids stay stable.
"""

import pytest

from repro.sim import SimulationError, Simulator
from tests.sim.heap_reference import HeapScheduler


@pytest.fixture(params=[Simulator, HeapScheduler], ids=["wheel", "heap"])
def sim_cls(request):
    return request.param


@pytest.fixture
def sim(sim_cls):
    return sim_cls()


def test_clock_starts_at_zero(sim):
    assert sim.now == 0


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_fire_in_scheduling_order(sim):
    fired = []
    for tag in ("first", "second", "third"):
        sim.schedule(5, fired.append, tag)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_event_scheduled_during_run_executes(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(7, fired.append, "inner")

    sim.schedule(3, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 10


def test_schedule_at_current_time_during_event_runs_after_ties(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.call_now(fired.append, "nested")

    sim.schedule(5, outer)
    sim.schedule(5, fired.append, "peer")
    sim.run()
    assert fired == ["outer", "peer", "nested"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.schedule(5, event.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_executed == 0


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50  # clock advanced to the window edge


def test_run_until_can_be_resumed(sim):
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(100, fired.append, "b")
    sim.run(until=50)
    sim.run(until=200)
    assert fired == ["a", "b"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_scheduling_in_past_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_stop_halts_run(sim):
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, sim.stop)
    sim.schedule(3, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_peek_next_time_skips_cancelled(sim):
    event = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    event.cancel()
    assert sim.peek_next_time() == 9


def test_peek_next_time_far_future(sim):
    t = 10 * 10**9
    sim.schedule_at(t, lambda: None)
    assert sim.peek_next_time() == t


def test_far_future_events_fire_in_order(sim):
    far = 10**9
    fired = []
    sim.schedule(3 * far, fired.append, "far-b")
    sim.schedule(5, fired.append, "near")
    sim.schedule(3 * far, fired.append, "far-b2")
    sim.schedule(2 * far, fired.append, "far-a")
    sim.run()
    assert fired == ["near", "far-a", "far-b", "far-b2"]
    assert sim.now == 3 * far


def test_pending_count(sim):
    keep = sim.schedule(5, lambda: None)
    drop = sim.schedule(6, lambda: None)
    drop.cancel()
    assert sim.pending_count() == 1
    assert keep.time == 5


def test_events_executed_counter(sim):
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_args_passed_through(sim):
    seen = []
    sim.schedule(1, lambda a, b: seen.append((a, b)), 1, "two")
    sim.run()
    assert seen == [(1, "two")]


class TestFifoContract:
    """Same-timestamp FIFO: scheduling order IS dispatch order, across
    every entrypoint, across ``stop()``/re-``run()``, and mid-batch."""

    def test_mixed_entrypoints_interleave_by_submission_order(self, sim):
        fired = []
        sim.schedule(10, fired.append, "s1")
        sim.schedule_at(10, fired.append, "at1")
        sim.schedule_many([10, 10], fired.append, "m")
        sim.schedule(10, fired.append, "s2")
        sim.schedule_batch(10, 2, fired.append, "b")
        sim.schedule_at(10, fired.append, "at2")
        sim.run()
        assert fired == ["s1", "at1", "m", "m", "s2", "b", "b", "at2"]

    def test_call_now_during_dispatch_runs_after_preexisting_ties(self, sim):
        fired = []

        def head():
            fired.append("head")
            sim.call_now(fired.append, "nested")
            sim.schedule_at(sim.now, fired.append, "at-now")

        sim.schedule(5, head)
        sim.schedule(5, fired.append, "peer1")
        sim.schedule(5, fired.append, "peer2")
        sim.run()
        assert fired == ["head", "peer1", "peer2", "nested", "at-now"]

    def test_order_survives_stop_and_rerun(self, sim):
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(10, sim.stop)
        sim.schedule(10, fired.append, "b")
        sim.schedule(10, fired.append, "c")
        sim.run()
        assert fired == ["a"]
        # Re-run resumes the same timestamp in the original order.
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 10

    def test_stop_mid_batch_resumes_remainder_in_order(self, sim):
        fired = []

        def ticker(tag):
            fired.append(tag)
            if len(fired) == 2:
                sim.stop()

        sim.schedule_batch(10, 4, ticker, "batch")
        sim.schedule(10, fired.append, "after")  # higher seq, same t
        sim.run()
        assert fired == ["batch", "batch"]
        # The un-dispatched batch remainder precedes the later-scheduled
        # same-timestamp event when the run resumes.
        sim.run()
        assert fired == ["batch", "batch", "batch", "batch", "after"]

    def test_stop_mid_schedule_many_resumes_remainder_in_order(self, sim):
        fired = []

        def ticker(tag):
            fired.append(tag)
            if len(fired) == 1:
                sim.stop()

        sim.schedule_many([10, 10, 10], ticker, "many")
        sim.schedule(10, fired.append, "after")
        sim.run()
        assert fired == ["many"]
        sim.run()
        assert fired == ["many", "many", "many", "after"]


class TestBulkEntrypoints:
    def test_schedule_many_orders_by_time_then_submission(self, sim):
        fired = []
        sim.schedule_many([30, 10, 20, 10], lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10, 10, 20, 30]
        assert sim.events_executed == 4

    def test_schedule_many_empty_is_noop(self, sim):
        sim.schedule_many([], lambda: None)
        sim.run()
        assert sim.events_executed == 0
        assert sim.now == 0

    def test_schedule_many_rejects_past_times(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_many([20, 5], lambda: None)

    def test_schedule_batch_executes_count_times(self, sim):
        count = [0]

        def tick():
            count[0] += 1

        sim.schedule_batch(7, 5, tick)
        sim.run()
        assert count[0] == 5
        assert sim.events_executed == 5
        assert sim.now == 7

    def test_schedule_batch_rejects_nonpositive_count(self, sim):
        with pytest.raises((ValueError, SimulationError)):
            sim.schedule_batch(7, 0, lambda: None)

    def test_schedule_batch_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_batch(-1, 3, lambda: None)

    def test_bulk_entries_count_toward_pending(self, sim):
        sim.schedule_batch(10, 5, lambda: None)
        sim.schedule_many([20, 30], lambda: None)
        assert sim.pending_count() == 7
        assert sim.heap_size() == 7


class TestReschedule:
    def test_moves_pending_event(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event = sim.reschedule(event, 50)
        sim.run()
        assert fired == ["x"]
        assert sim.now == 50
        assert event.time == 50

    def test_rearms_fired_event(self, sim):
        fired = []
        cell = [None]

        def tick():
            fired.append(sim.now)
            if sim.now < 30:
                cell[0] = sim.reschedule(cell[0], 10)

        cell[0] = sim.schedule(10, tick)
        sim.run()
        assert fired == [10, 20, 30]

    def test_rearms_cancelled_event(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event.cancel()
        event = sim.reschedule(event, 25)
        sim.run()
        assert fired == ["x"]
        assert sim.now == 25

    def test_rescheduled_event_ties_as_freshly_scheduled(self, sim):
        # A reschedule must order like cancel+schedule: after existing
        # entries at the target timestamp.
        fired = []
        moved = sim.schedule(10, fired.append, "moved")
        sim.schedule(20, fired.append, "existing")
        sim.reschedule(moved, 20)
        sim.run()
        assert fired == ["existing", "moved"]

    def test_single_event_heartbeat_no_growth(self, sim):
        # The ITR-style hot path: one timer re-armed forever must not
        # grow queue state.
        cell = [None]
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 500:
                cell[0] = sim.reschedule(cell[0], 1_000)

        cell[0] = sim.schedule(1_000, tick)
        sim.run()
        assert count[0] == 500
        assert sim.heap_size() == 0


class TestRunEdgeCases:
    def test_stop_then_rerun_resumes_where_it_left_off(self, sim):
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, sim.stop)
        sim.schedule(30, fired.append, "b")
        sim.schedule(40, fired.append, "c")
        assert sim.run(until=100) == 20  # stopped mid-window, clock NOT advanced
        assert fired == ["a"]
        assert sim.run(until=100) == 100  # resumes, drains, advances to window edge
        assert fired == ["a", "b", "c"]

    def test_stop_then_rerun_without_until_drains(self, sim):
        fired = []
        sim.schedule(1, sim.stop)
        sim.schedule(2, fired.append, "late")
        sim.run()
        assert fired == []
        sim.run()
        assert fired == ["late"]
        assert sim.now == 2

    def test_until_before_next_event_advances_clock_exactly(self, sim):
        fired = []
        sim.schedule(100, fired.append, "later")
        assert sim.run(until=40) == 40
        assert sim.now == 40
        assert fired == []
        # The pending event is untouched and fires on the next window.
        assert sim.run(until=100) == 100
        assert fired == ["later"]

    def test_until_with_empty_heap_advances_clock(self, sim):
        assert sim.run(until=70) == 70
        assert sim.now == 70

    def test_peek_next_time_empty_after_draining(self, sim):
        event = sim.schedule(5, lambda: None)
        event.cancel()
        assert sim.peek_next_time() is None
        assert sim.heap_size() == 0

    def test_exception_mid_bucket_preserves_remainder(self, sim):
        fired = []

        def boom():
            raise RuntimeError("handler failed")

        sim.schedule(10, fired.append, "before")
        sim.schedule(10, boom)
        sim.schedule(10, fired.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["before"]
        # The failed handler consumed its slot; the remainder survives
        # and dispatches in order on the next run.
        sim.run()
        assert fired == ["before", "after"]

    def test_exception_mid_batch_preserves_remainder(self, sim):
        fired = []

        def tick(tag):
            fired.append(tag)
            if len(fired) == 2:
                raise RuntimeError("handler failed")

        sim.schedule_batch(10, 4, tick, "batch")
        sim.schedule(10, fired.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["batch", "batch"]
        # As for single events, the failed call consumed its slot: the
        # rest of the batch runs once, ahead of the later entry.
        sim.run()
        assert fired == ["batch"] * 4 + ["after"]
        assert sim.events_executed == 5


class TestLastSlotUnlink:
    """Simulator-only: the heap's last slot is a leaf, so the event in it
    is unlinked on cancel and reused in place on reschedule."""

    def test_cancel_latest_event_unlinks(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        latest = sim.schedule(30, lambda: None)
        latest.cancel()
        assert sim.heap_size() == 2
        assert sim.cancelled_unlinked == 1
        assert sim.cancelled_pending == 0

    def test_cancel_earlier_event_leaves_tombstone(self):
        sim = Simulator()
        dead = [sim.schedule(5 + i, lambda: None) for i in range(3)]
        sim.schedule(50, lambda: None)
        for event in dead:
            event.cancel()
        assert sim.cancelled_unlinked == 0
        assert sim.cancelled_pending == 3
        assert sim.heap_size() == 4
        assert sim.pending_count() == 1

    def test_reschedule_of_last_slot_event_reuses_it(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        last = sim.schedule(20, lambda: None)
        assert sim.reschedule(last, 40) is last
        assert last.time == 40
        assert sim.heap_size() == 2
        assert sim.cancelled_pending == 0

    def test_reschedule_of_earlier_event_leaves_tombstone(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(10, fired.append, "moved")
        sim.schedule(20, fired.append, "last")
        moved = sim.reschedule(first, 40)
        assert moved is not first and first.cancelled
        assert sim.cancelled_pending == 1
        assert sim.heap_size() == 3
        sim.run()
        assert fired == ["last", "moved"]
        assert sim.cancelled_pops == 1


class TestWheelCancellation:
    """Simulator-only accounting: a cancel in the heap's last slot
    unlinks at once; any other cancel leaves a tombstone that is popped
    lazily or removed by compaction."""

    def test_tail_cancel_unlinks_without_tombstone(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        tail = sim.schedule(10, lambda: None)
        tail.cancel()
        assert sim.cancelled_unlinked == 1
        assert sim.cancelled_pending == 0
        assert sim.heap_size() == 1

    def test_interior_cancels_popped_lazily_during_run(self):
        sim = Simulator()
        dead = [sim.schedule(5, lambda: None) for _ in range(10)]
        live = sim.schedule(5, lambda: None)  # keeps the dead ones out of the last slot
        sim.schedule(50, lambda: None)
        for event in dead:
            event.cancel()
        assert live.time == 5
        sim.run()
        assert sim.cancelled_pops == 10
        assert sim.events_executed == 2

    def test_peek_next_time_drains_leading_interior_cancels(self):
        sim = Simulator()
        dead = [sim.schedule(5, lambda: None) for _ in range(3)]
        sim.schedule(5, lambda: None)  # keeps them out of the last slot
        for event in dead:
            event.cancel()
        assert sim.heap_size() == 4
        assert sim.peek_next_time() == 5
        # Drained, not just skipped: the tombstones left the heap.
        assert sim.heap_size() == 1
        assert sim.cancelled_pops == 3

    def test_interior_cancel_heavy_workload_compacts(self):
        sim = Simulator()
        events = [sim.schedule(1_000, lambda: None) for _ in range(1_000)]
        live_tail = sim.schedule(1_000, lambda: None)
        for event in events[:900]:
            event.cancel()
        assert sim.compactions >= 1
        assert sim.compacted_events >= 800
        # Dead entries are gone; live ones still fire.
        assert sim.heap_size() < 200
        assert sim.pending_count() == 101
        assert live_tail.time == 1_000
        sim.run()
        assert sim.events_executed == 101

    def test_compaction_preserves_order(self):
        sim = Simulator()
        fired = []
        keep = []
        blocker = sim.schedule(6_000, lambda: None)  # live, after all the others
        for i in range(200):
            keep.append(sim.schedule(10 + i, fired.append, i))
            sim.schedule(5_000, lambda: None).cancel()
        for i in range(0, 200, 2):  # cancel interleaved survivors too
            keep[i].cancel()
        assert sim.compactions >= 1
        assert blocker.time == 6_000
        sim.run()
        assert fired == list(range(1, 200, 2))

    def test_small_queues_never_compact(self):
        sim = Simulator()
        dead = [
            sim.schedule(10, lambda: None)
            for _ in range(Simulator.COMPACT_MIN_SIZE // 2)
        ]
        sim.schedule(20, lambda: None)  # keeps the dead ones out of the last slot
        for event in dead:
            event.cancel()
        assert sim.cancelled_pending == len(dead)
        assert sim.compactions == 0

    def test_cancel_after_fire_does_not_corrupt_accounting(self):
        sim = Simulator()
        event = sim.schedule(1, lambda: None)
        sim.run()
        event.cancel()  # already fired: a no-op, _queued is False
        live = [sim.schedule(10, lambda: None) for _ in range(100)]
        for entry in live[:80]:
            entry.cancel()
        assert sim.pending_count() == 20
        sim.run()
        assert sim.events_executed == 21


class TestHeapSchedulerCancellation:
    """Heap-only accounting: every cancel is a lazy tombstone."""

    def test_all_cancels_are_lazy_pops(self):
        sim = HeapScheduler()
        dead = [sim.schedule(5, lambda: None) for _ in range(10)]
        sim.schedule(50, lambda: None)
        for event in dead:
            event.cancel()
        sim.run()
        assert sim.cancelled_pops == 10
        assert sim.events_executed == 1

    def test_peek_next_time_drains_leading_cancelled(self):
        sim = HeapScheduler()
        dead = [sim.schedule(5 + i, lambda: None) for i in range(3)]
        sim.schedule(50, lambda: None)
        for event in dead:
            event.cancel()
        assert sim.heap_size() == 4
        assert sim.peek_next_time() == 50
        assert sim.heap_size() == 1
        assert sim.cancelled_pops == 3

    def test_cancel_heavy_workload_compacts(self):
        sim = HeapScheduler()
        events = [sim.schedule(1_000 + i, lambda: None) for i in range(1_000)]
        for event in events[:900]:
            event.cancel()
        assert sim.compactions >= 1
        assert sim.compacted_events >= 800
        assert sim.heap_size() < 200
        assert sim.pending_count() == 100
        sim.run()
        assert sim.events_executed == 100
