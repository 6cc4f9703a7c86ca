"""Property-based tests for the event kernel.

Every ordering property is checked on both the production ``Simulator``
and the ``HeapScheduler`` reference; the differential properties at the
bottom drive randomized op sequences through both kernels, and through
a ``Simulator`` with and without a ``SimProfiler`` attached, and assert
identical traces.  Ids and names that say ``wheel`` mean the
``Simulator``: they keep the name of the calendar queue it replaced, so
test ids stay stable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import SimProfiler
from repro.sim import Simulator
from tests.sim.heap_reference import HeapScheduler

KERNELS = [Simulator, HeapScheduler]
kernel_param = pytest.mark.parametrize(
    "sim_cls", KERNELS, ids=["wheel", "heap"]
)


@kernel_param
@given(delays=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_events_fire_in_nondecreasing_time_order(sim_cls, delays):
    sim = sim_cls()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@kernel_param
@given(delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_equal_time_events_fire_in_submission_order(sim_cls, delays):
    sim = sim_cls()
    order = []
    common = max(delays)
    for i, _ in enumerate(delays):
        sim.schedule(common, order.append, i)
    sim.run()
    assert order == list(range(len(delays)))


@kernel_param
@given(
    delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=100),
    cancel_mask=st.lists(st.booleans(), min_size=2, max_size=100),
)
@settings(max_examples=50, deadline=None)
def test_cancelled_events_never_fire(sim_cls, delays, cancel_mask):
    sim = sim_cls()
    fired = []
    events = [sim.schedule(d, fired.append, i) for i, d in enumerate(delays)]
    expected = []
    for i, event in enumerate(events):
        if i < len(cancel_mask) and cancel_mask[i]:
            event.cancel()
        else:
            expected.append(i)
    sim.run()
    assert sorted(fired) == expected


@kernel_param
@given(
    delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60),
    split=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=50, deadline=None)
def test_run_until_is_equivalent_to_one_run(sim_cls, delays, split):
    one = sim_cls()
    fired_one = []
    for delay in delays:
        one.schedule(delay, lambda d=delay: fired_one.append((one.now, d)))
    one.run()

    two = sim_cls()
    fired_two = []
    for delay in delays:
        two.schedule(delay, lambda d=delay: fired_two.append((two.now, d)))
    two.run(until=split)
    two.run()
    assert fired_one == fired_two


@kernel_param
@given(
    times=st.lists(
        st.integers(min_value=0, max_value=1 << 23), min_size=1, max_size=80
    )
)
@settings(max_examples=50, deadline=None)
def test_schedule_many_equals_loop_of_schedule_at(sim_cls, times):
    bulk = sim_cls()
    fired_bulk = []
    bulk.schedule_many(times, lambda: fired_bulk.append(bulk.now))
    bulk.run()

    loop = sim_cls()
    fired_loop = []
    for t in times:
        loop.schedule_at(t, lambda: fired_loop.append(loop.now))
    loop.run()
    assert fired_bulk == fired_loop
    assert bulk.events_executed == loop.events_executed


# ---------------------------------------------------------------------------
# Differential fuzz: random op sequences, Simulator vs the reference heap,
# identical traces
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 1 << 23)),
        st.tuples(st.just("many"), st.lists(st.integers(0, 1 << 22), max_size=8)),
        st.tuples(st.just("batch"), st.integers(0, 10**6), st.integers(1, 6)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("reschedule"), st.integers(0, 63), st.integers(0, 10**6)),
        st.tuples(st.just("run_until"), st.integers(0, 1 << 23)),
        # A batch whose every call stops the run: each stop pushes the
        # rest of the batch back onto the queue.
        st.tuples(st.just("stop"), st.integers(0, 10**6), st.integers(1, 4)),
        # A handler that cancels a handle while the loop dispatches.
        st.tuples(st.just("cancel_later"), st.integers(0, 10**6), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=60,
)


def _apply_ops(sim_cls, ops, profiler=None):
    sim = sim_cls()
    if profiler is not None:
        profiler.attach(sim)
    trace = []
    handles = []

    def fire(tag):
        trace.append((sim.now, tag))

    def stop(tag):
        trace.append((sim.now, tag, "stop"))
        sim.stop()

    def cancel_later(tag, k):
        trace.append((sim.now, tag, "cancel"))
        handles[k % len(handles)].cancel()

    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], fire, i))
        elif kind == "many":
            sim.schedule_many([sim.now + t for t in op[1]], fire, i)
        elif kind == "batch":
            sim.schedule_batch(op[1], op[2], fire, i)
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "reschedule":
            if handles:
                idx = op[1] % len(handles)
                handles[idx] = sim.reschedule(handles[idx], op[2])
        elif kind == "run_until":
            sim.run(until=max(sim.now, op[1]))
        elif kind == "stop":
            sim.schedule_batch(op[1], op[2], stop, i)
        elif kind == "cancel_later":
            handles.append(sim.schedule(op[1], cancel_later, i, op[2]))
    # The script runs on after every stop until the queue drains.
    while sim.peek_next_time() is not None:
        sim.run()
    return trace, sim.now, sim.events_executed


@given(ops=_OPS)
@settings(max_examples=100, deadline=None)
def test_differential_wheel_matches_heap(ops):
    assert _apply_ops(Simulator, ops) == _apply_ops(HeapScheduler, ops)


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_profiled_simulator_matches_plain(ops):
    # The profiler wraps one simulator's scheduling methods and run():
    # the same ops must give the same trace, clock and event count, and
    # every executed event must be charged to exactly one handler call.
    profiler = SimProfiler()
    profiled = _apply_ops(Simulator, ops, profiler)
    assert profiled == _apply_ops(Simulator, ops)
    executed = profiled[2]
    profile = profiler.profile()
    assert profile.events == executed
    assert sum(h.calls for h in profile.handlers) == executed
