"""Tests for the cpuidle driver and menu/ladder governors."""

import random
from collections import deque

from hypothesis import example, given
from hypothesis import strategies as st

from repro.cpu import CoreState, Job, ProcessorConfig
from repro.oskernel import CpuidleDriver, LadderGovernor, MenuGovernor, Scheduler
from repro.sim import Simulator
from repro.sim.units import MS, US


def make(n_cores=1):
    sim = Simulator()
    package = ProcessorConfig(n_cores=n_cores).build_package(sim)
    scheduler = Scheduler(sim, package)
    return sim, package, scheduler


def work_us(us_amount):
    return 3.1e9 * us_amount * 1e-6


class TestMenuGovernor:
    def test_first_idle_goes_deep(self):
        # Empty history: optimistic (long) prediction -> C6, as observed in
        # the paper before a BW(Rx) surge.
        sim, package, sched = make()
        driver = CpuidleDriver(MenuGovernor(package.cstates))
        sched.idle_hook = driver.on_core_idle
        sched.enqueue(Job(work_us(5)))
        sim.run()
        core = package.cores[0]
        assert core.state is CoreState.SLEEP
        assert core.current_cstate.name == "C6"

    def test_short_idle_history_prevents_sleep(self):
        sim, package, sched = make()
        governor = MenuGovernor(package.cstates)
        driver = CpuidleDriver(governor)
        sched.idle_hook = driver.on_core_idle
        # Back-to-back jobs with ~4 us gaps: history converges to short
        # idles, for which no C-state's residency fits.
        t = 0
        for i in range(20):
            sim.schedule_at(t, sched.enqueue, Job(work_us(10)))
            t += 14 * US  # 10 us busy + 4 us idle
        sim.run(until=t)
        core = package.cores[0]
        assert core.state in (CoreState.IDLE, CoreState.RUN)
        assert governor.predict_idle_ns(core) < 10 * US

    def test_medium_idle_history_picks_middle_state(self):
        sim, package, sched = make()
        governor = MenuGovernor(package.cstates)
        driver = CpuidleDriver(governor)
        sched.idle_hook = driver.on_core_idle
        t = 0
        for i in range(20):
            sim.schedule_at(t, sched.enqueue, Job(work_us(10)))
            t += 110 * US  # 10 us busy + ~100 us idle (fits C3, not C6)
        sim.run(until=t - 90 * US)
        core = package.cores[0]
        assert core.state is CoreState.SLEEP
        assert core.current_cstate.name == "C3"

    def test_latency_limit_caps_depth(self):
        sim, package, sched = make()
        governor = MenuGovernor(package.cstates, latency_limit_ns=5 * US)
        driver = CpuidleDriver(governor)
        sched.idle_hook = driver.on_core_idle
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert package.cores[0].current_cstate.name == "C1"

    def test_typical_interval_rejects_outliers(self):
        samples = [30_000] * 7 + [5_000_000]
        assert MenuGovernor._typical_interval(samples) < 50_000

    def test_typical_interval_uniform(self):
        assert MenuGovernor._typical_interval([40_000] * 8) == 40_000

    def test_typical_interval_empty_after_rejection(self):
        assert MenuGovernor._typical_interval([1]) == 1

    @given(
        st.lists(
            st.one_of(st.integers(0, 2_000), st.integers(0, 10**10)), max_size=8
        )
    )
    # 15 us sits exactly at twice the round-2 average: kept, then rejected.
    @example([19_000, 0, 104_000, 7_000, 1_000, 100_000, 15_000, 3_000])
    def test_typical_interval_matches_list_rejection(self, samples):
        assert MenuGovernor._typical_interval(deque(samples)) == (
            list_rejection_interval(samples)
        )


def list_rejection_interval(samples):
    """Outlier rejection as three rounds of list filtering, in sample order."""
    values = list(samples)
    for _ in range(3):
        if not values:
            return 0
        avg = sum(values) / len(values)
        kept = [v for v in values if v <= 2 * avg]
        if len(kept) == len(values):
            return int(avg)
        values = kept
    return int(sum(values) / len(values)) if values else 0


class CheckedMenu(MenuGovernor):
    """Asserts every (memoized) prediction against a fresh recomputation."""

    def __init__(self, cstates):
        super().__init__(cstates)
        self.checked = 0
        self.periods_seen = set()

    def predict_idle_ns(self, core, already_idle_ns=0):
        predicted = super().predict_idle_ns(core, already_idle_ns)
        history = self._history[core.core_id]
        fresh = self._typical_interval(history) if history else self.initial_prediction_ns
        assert predicted == max(fresh, already_idle_ns)
        self.checked += 1
        self.periods_seen.add((core.core_id, core.idle_periods_completed))
        return predicted


class RecomputingMenu(MenuGovernor):
    """The menu governor without the prediction memo."""

    def predict_idle_ns(self, core, already_idle_ns=0):
        history = self._observe(core)
        predicted = (
            self._typical_interval(history) if history else self.initial_prediction_ns
        )
        return max(predicted, already_idle_ns)


def run_two_cores(governor_cls):
    """Two cores interleaving idle periods of mixed lengths, so selections
    come from idle entries, C0 rechecks and promotion checks alike."""
    sim, package, sched = make(n_cores=2)
    governor = governor_cls(package.cstates)
    driver = CpuidleDriver(governor)
    sched.idle_hook = driver.on_core_idle
    rng = random.Random(11)
    t = 0
    for _ in range(300):
        t += rng.choice([3, 8, 25, 60, 140, 400]) * US
        sim.schedule_at(t, sched.enqueue, Job(work_us(rng.choice([2, 10, 30]))))
    sim.run(until=t + MS)
    return governor, driver, package


class TestPredictionMemo:
    def test_memo_matches_recomputation_on_every_call(self):
        governor, driver, package = run_two_cores(CheckedMenu)
        assert all(core.idle_periods_completed > 20 for core in package.cores)
        assert governor.checked == governor.selections
        # Rechecks and promotion checks re-select within one idle period,
        # so most selections read a history the memo already priced.
        assert governor.selections > 1.5 * len(governor.periods_seen)
        assert driver.promotions > 0

    def test_selections_and_energy_unchanged_by_memo(self):
        memo, memo_driver, memo_package = run_two_cores(MenuGovernor)
        plain, plain_driver, plain_package = run_two_cores(RecomputingMenu)
        assert memo.selections == plain.selections
        assert memo.telemetry.counter("governor.menu.selections").value == plain.selections
        assert memo_driver.promotions == plain_driver.promotions
        assert memo_package.energy_report() == plain_package.energy_report()


class TestLadderGovernor:
    def test_promotes_with_long_residencies(self):
        sim, package, sched = make()
        governor = LadderGovernor(package.cstates)
        driver = CpuidleDriver(governor)
        sched.idle_hook = driver.on_core_idle
        # Long idle gaps -> ladder should walk C1 -> C3 -> C6.
        t = 0
        names = []

        def snapshot():
            core = package.cores[0]
            if core.current_cstate is not None:
                names.append(core.current_cstate.name)

        for i in range(4):
            sim.schedule_at(t, sched.enqueue, Job(work_us(10)))
            sim.schedule_at(t + 500 * US, snapshot)
            t += MS
        sim.run(until=t)
        assert names[0] == "C1"
        assert names[-1] == "C6"

    def test_demotes_on_early_wake(self):
        sim, package, sched = make()
        governor = LadderGovernor(package.cstates)
        driver = CpuidleDriver(governor)
        sched.idle_hook = driver.on_core_idle
        # First a long idle to promote, then rapid-fire jobs to demote.
        sim.schedule_at(0, sched.enqueue, Job(work_us(1)))
        t = 2 * MS
        for i in range(6):
            sim.schedule_at(t, sched.enqueue, Job(work_us(1)))
            t += 3 * US
        sim.run(until=t + 2 * US)
        depth = governor._depth[0]
        assert depth == 0


class DequeHistory:
    """The history as it was kept before the trimmed list: one
    ``deque(maxlen=history_len)`` per core, as the reference."""

    def _observe(self, core):
        history = self._history.get(core.core_id)
        if history is None:
            history = deque(maxlen=self._history_len)
            self._history[core.core_id] = history
            self._seen_periods[core.core_id] = 0
        completed = core.idle_periods_completed
        if completed > self._seen_periods[core.core_id]:
            history.append(core.last_idle_duration_ns)
            self._seen_periods[core.core_id] = completed
        return history


class DequeMenu(DequeHistory, MenuGovernor):
    pass


class DequeLadder(DequeHistory, LadderGovernor):
    pass


class IdleCore:
    """What a governor reads of a core: its id and its idle periods."""

    def __init__(self, core_id):
        self.core_id = core_id
        self.idle_periods_completed = 0
        self.last_idle_duration_ns = 0


#: (governor, its deque twin, history length): the menu and ladder
#: defaults, and a two-period history of each.
HISTORY_GOVERNORS = [
    (MenuGovernor, DequeMenu, 8),
    (LadderGovernor, DequeLadder, 1),
    (MenuGovernor, DequeMenu, 2),
    (LadderGovernor, DequeLadder, 2),
]


class TestHistoryDifferential:
    @given(
        st.sampled_from(HISTORY_GOVERNORS),
        st.lists(
            st.tuples(
                st.integers(0, 1),  # core
                st.one_of(st.integers(0, 300 * US), st.integers(0, 5 * MS)),
                # re-selections (idle entry, rechecks, promotion checks)
                st.lists(st.integers(0, 400 * US), max_size=4),
            ),
            max_size=40,
        ),
    )
    def test_list_history_equals_deque_history(self, kind, periods):
        cls, reference_cls, history_len = kind
        cstates = ProcessorConfig().cstate_table()
        governor = cls(cstates, history_len=history_len)
        reference = reference_cls(cstates, history_len=history_len)
        cores = [IdleCore(0), IdleCore(1)]
        for core_index, duration_ns, selects in periods:
            core = cores[core_index]
            core.idle_periods_completed += 1
            core.last_idle_duration_ns = duration_ns
            for already_ns in selects:
                if cls is MenuGovernor:
                    assert governor.predict_idle_ns(core, already_ns) == (
                        reference.predict_idle_ns(core, already_ns)
                    )
                assert governor.select(core, already_ns) is (
                    reference.select(core, already_ns)
                )
                assert governor._history[core.core_id] == list(
                    reference._history[core.core_id]
                )


class TestCpuidleDriver:
    def test_disable_stops_new_entries(self):
        sim, package, sched = make()
        driver = CpuidleDriver(MenuGovernor(package.cstates))
        sched.idle_hook = driver.on_core_idle
        driver.disable()
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert package.cores[0].state is CoreState.IDLE
        assert driver.suppressed >= 1

    def test_reenable_allows_entries(self):
        sim, package, sched = make()
        driver = CpuidleDriver(MenuGovernor(package.cstates))
        sched.idle_hook = driver.on_core_idle
        driver.disable()
        driver.enable()
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert package.cores[0].state is CoreState.SLEEP

    def test_entry_counter(self):
        sim, package, sched = make()
        driver = CpuidleDriver(MenuGovernor(package.cstates))
        sched.idle_hook = driver.on_core_idle
        sched.enqueue(Job(work_us(5)))
        sim.run()
        assert driver.entries == 1
