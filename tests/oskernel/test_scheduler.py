"""Tests for the run queue / scheduler."""

from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.cpu import CoreState, Job, ProcessorConfig
from repro.oskernel import Scheduler
from repro.sim import Simulator
from repro.sim.units import US


def make(n_cores=2):
    sim = Simulator()
    package = ProcessorConfig(n_cores=n_cores).build_package(sim)
    return sim, package, Scheduler(sim, package)


def work_us(us_amount, freq_ghz=3.1):
    return freq_ghz * 1e9 * us_amount * 1e-6


class TestDispatch:
    def test_job_runs_on_idle_core(self):
        sim, package, sched = make()
        done = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [10 * US]

    def test_jobs_spread_across_idle_cores(self):
        sim, package, sched = make(n_cores=2)
        done = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [10 * US, 10 * US]  # parallel, not serial

    def test_excess_jobs_queue_fifo(self):
        sim, package, sched = make(n_cores=1)
        order = []
        for name in ("a", "b", "c"):
            sched.enqueue(Job(work_us(10), on_complete=lambda n=name: order.append(n)))
        assert sched.queue_depth == 2
        sim.run()
        assert order == ["a", "b", "c"]
        assert sched.queue_depth == 0

    def test_sleeping_core_woken_for_work(self):
        sim, package, sched = make(n_cores=1)
        core = package.cores[0]
        c6 = package.cstates.by_name("C6")
        core.enter_sleep(c6)
        done = []
        sched.enqueue(Job(0, on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [c6.exit_latency_ns]

    def test_idle_core_preferred_over_sleeping(self):
        sim, package, sched = make(n_cores=2)
        package.cores[0].enter_sleep(package.cstates.by_name("C6"))
        done = []
        sched.enqueue(Job(0, on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [0]  # ran on the idle core, no exit latency
        assert package.cores[0].state is CoreState.SLEEP

    def test_core_hint_targets_specific_core(self):
        sim, package, sched = make(n_cores=2)
        sched.enqueue(Job(work_us(10)), core_hint=1)
        assert package.cores[1].state is CoreState.RUN
        assert package.cores[0].state is CoreState.IDLE
        sim.run()

    def test_core_hint_is_soft_affinity(self):
        # When the hinted core is busy, the job falls back to normal
        # selection (here: the idle core 1) instead of waiting behind it.
        sim, package, sched = make(n_cores=2)
        order = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: order.append("first")), core_hint=0)
        sched.enqueue(Job(work_us(1), on_complete=lambda: order.append("second")), core_hint=0)
        sim.run()
        assert order == ["second", "first"]
        assert package.cores[1].busy_ns_total() > 0

    def test_core_hint_queues_when_all_cores_busy(self):
        sim, package, sched = make(n_cores=1)
        order = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: order.append("first")), core_hint=0)
        sched.enqueue(Job(work_us(1), on_complete=lambda: order.append("second")), core_hint=0)
        assert sched.queue_depth == 1
        sim.run()
        assert order == ["first", "second"]

    def test_waking_core_with_backlog_not_double_loaded(self):
        sim, package, sched = make(n_cores=1)
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C6"))
        sched.enqueue(Job(work_us(50)))   # wakes the core, rides the wake
        sched.enqueue(Job(work_us(50)))   # must queue, not pile on pending
        assert sched.queue_depth == 1
        sim.run()


class TestIdleHook:
    def test_idle_hook_called_when_no_work(self):
        sim, package, sched = make(n_cores=1)
        idled = []
        sched.idle_hook = idled.append
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert idled == [package.cores[0]]

    def test_idle_hook_not_called_when_queue_nonempty(self):
        sim, package, sched = make(n_cores=1)
        idled = []
        sched.idle_hook = idled.append
        sched.enqueue(Job(work_us(5)))
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert len(idled) == 1  # only after the queue drained


class TestStats:
    def test_max_queue_depth_tracked(self):
        sim, package, sched = make(n_cores=1)
        for _ in range(4):
            sched.enqueue(Job(work_us(1)))
        assert sched.max_queue_depth == 3
        sim.run()

    def test_jobs_enqueued_counted(self):
        sim, package, sched = make(n_cores=2)
        for _ in range(5):
            sched.enqueue(Job(1))
        assert sched.jobs_enqueued == 5
        sim.run()

    def test_wake_all(self):
        sim, package, sched = make(n_cores=2)
        for core in package.cores:
            core.enter_sleep(package.cstates.by_name("C6"))
        sched.wake_all()
        sim.run()
        assert all(core.state is CoreState.IDLE for core in package.cores)


class TestTakeNext:
    def test_completion_chains_queued_job_without_idle_bounce(self):
        # One core, two jobs: the second must start at the exact instant
        # the first completes (the take_next fast path), with the
        # zero-length idle period still booked for accounting parity.
        sim, package, sched = make(n_cores=1)
        done = []
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sched.enqueue(Job(work_us(10), on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [10 * US, 20 * US]  # back to back, no gap

    def test_take_next_returns_none_on_empty_queue(self):
        sim, package, sched = make(n_cores=1)
        assert sched._take_next() is None

    def test_idle_hook_still_fires_when_queue_empty(self):
        sim, package, sched = make(n_cores=1)
        idled = []
        sched.idle_hook = lambda core: idled.append(core.core_id)
        sched.enqueue(Job(work_us(10)))
        sim.run()
        assert idled == [0]


class ScanningScheduler(Scheduler):
    """The dispatch rule without the shortcut: every enqueue scans the
    cores, and a core that goes idle first looks at the queue."""

    def enqueue(self, job, core_hint=None):
        self.jobs_enqueued += 1
        if core_hint is not None:
            core = self.cores[core_hint]
            if core.state in (
                CoreState.IDLE, CoreState.SLEEP, CoreState.WAKING, CoreState.STALL,
            ):
                core.dispatch(job)
                return
        core = self._pick_core()
        if core is not None:
            core.dispatch(job)
        else:
            self._queue.append(job)

    def _on_core_idle(self, core):
        if self._queue:
            core.dispatch(self._queue.popleft())
            return
        super()._on_core_idle(core)


class CheckedScheduler(Scheduler):
    """The production scheduler, asserting the invariant its shortcut
    relies on at every enqueue that finds a non-empty queue."""

    shortcut_hits = 0

    def enqueue(self, job, core_hint=None):
        if self._queue:
            assert self._pick_core() is None
            self.shortcut_hits += 1
        super().enqueue(job, core_hint)


def scheduler_rig(cls, n_cores):
    sim = Simulator()
    package = ProcessorConfig(n_cores=n_cores).build_package(sim)
    done = []
    return sim, package, cls(sim, package), done


def apply_step(rig, op, a, b):
    sim, package, sched, done = rig
    cores = package.cores
    core = cores[a % len(cores)]
    cstates = package.cstates
    if op in ("enqueue", "enqueue_hint"):
        job_id = sched.jobs_enqueued
        job = Job(b * 1550, on_complete=lambda: done.append((job_id, sim.now)))
        sched.enqueue(job, core_hint=core.core_id if op == "enqueue_hint" else None)
    elif op == "sleep":
        if core.state is CoreState.IDLE:
            core.enter_sleep(cstates[b % len(cstates)])
    elif op == "promote":
        if core.state is CoreState.SLEEP:
            core.promote_sleep(cstates[b % len(cstates)])
    elif op == "wake_all":
        sched.wake_all()
    elif op == "pstate":
        package.set_pstate(b)


scheduler_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),   # gap, in 500 ns units
        st.sampled_from(
            ["enqueue", "enqueue", "enqueue_hint", "sleep", "promote",
             "wake_all", "pstate"]
        ),
        st.integers(min_value=0, max_value=3),    # core pick / hint
        st.integers(min_value=0, max_value=14),   # job size (0.5 us) or state
    ),
    max_size=60,
)


@given(n_cores=st.integers(min_value=1, max_value=4), step_list=scheduler_steps)
@settings(max_examples=300, deadline=None)
def test_non_empty_queue_means_no_core_can_take_the_job(n_cores, step_list):
    rigs = (
        scheduler_rig(CheckedScheduler, n_cores),
        scheduler_rig(ScanningScheduler, n_cores),
    )
    t = 0
    for gap, op, a, b in step_list:
        t += gap * 500
        for rig in rigs:
            rig[0].run(until=t)
            apply_step(rig, op, a, b)
        sched = rigs[0][2]
        if sched.queue_depth:
            assert sched._pick_core() is None
        assert sched.queue_depth == rigs[1][2].queue_depth, (t, op)
    for rig in rigs:
        rig[0].run()
    target(float(rigs[0][2].shortcut_hits))
    assert rigs[0][3] == rigs[1][3]


def test_enqueue_behind_a_queued_job_skips_the_core_scan():
    sim, package, sched = make(n_cores=2)
    scans = []
    pick_core = sched._pick_core
    sched._pick_core = lambda: scans.append(sim.now) or pick_core()
    for _ in range(5):
        sched.enqueue(Job(work_us(10)))
    # Two dispatches and the scan that queued the third job; the last two
    # join the queue behind it without a scan.
    assert len(scans) == 3
    assert sched.queue_depth == 3
    sim.run()
