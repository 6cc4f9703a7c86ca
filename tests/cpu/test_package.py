"""Tests for the chip-wide DVFS clock domain."""

import pytest

from repro.cpu import CoreState, Job, ProcessorConfig
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.sim.units import US, ghz
from tests.probe_log import ProbeLog


def make_package(n_cores=2, initial_pstate=0, telemetry=None):
    sim = Simulator()
    config = ProcessorConfig(n_cores=n_cores, initial_pstate=initial_pstate)
    return sim, config.build_package(sim, telemetry=telemetry)


class TestTransitions:
    def test_lowering_takes_pll_halt_only(self):
        sim, package = make_package()
        package.set_pstate(14)
        assert package.transition_in_progress
        sim.run()
        assert package.pstate_index == 14
        assert sim.now == 5 * US

    def test_raising_waits_for_voltage_ramp(self):
        sim, package = make_package(initial_pstate=14)
        package.set_pstate(0)
        sim.run()
        assert package.pstate_index == 0
        assert sim.now == 93 * US  # 88 us ramp + 5 us PLL

    def test_same_state_is_noop(self):
        sim, package = make_package()
        package.set_pstate(0)
        assert not package.transition_in_progress
        sim.run()
        assert package.transitions == 0

    def test_index_clamped(self):
        sim, package = make_package()
        package.set_pstate(99)
        sim.run()
        assert package.pstate_index == package.pstates.max_index

    def test_running_job_pauses_during_pll_halt(self):
        sim, package = make_package()
        core = package.cores[0]
        done = []
        # 100 us of P0 work; a down-transition at t=10us inserts a 5 us halt
        # and then the job runs slower.
        core.dispatch(Job(3.1e9 * 100e-6, on_complete=lambda: done.append(sim.now)))
        sim.schedule(10 * US, package.set_pstate, 14)
        sim.run()
        # 10us at 3.1 GHz + 5us halt + remaining 90us-worth at 0.8 GHz.
        remaining_cycles = 3.1e9 * 90e-6
        expected = 10 * US + 5 * US + remaining_cycles / 0.8e9 * 1e9
        assert done[0] == pytest.approx(expected, abs=10)

    def test_all_cores_stall_together(self):
        sim, package = make_package(n_cores=2)
        a, b = package.cores
        done = []
        a.dispatch(Job(3.1e9 * 20e-6, on_complete=lambda: done.append(("a", sim.now))))
        b.dispatch(Job(3.1e9 * 20e-6, on_complete=lambda: done.append(("b", sim.now))))
        sim.schedule(10 * US, package.set_pstate, 1)
        sim.run()
        # Both cores paid the same 5 us halt (down-transition within same V? index
        # 0->1 lowers V, so no ramp) and finish together, later than 20 us.
        assert done[0][1] == done[1][1]
        assert done[0][1] > 20 * US

    def test_sleeping_core_unaffected_by_transition(self):
        sim, package = make_package(n_cores=2)
        sleeper = package.cores[1]
        sleeper.enter_sleep(package.cstates.by_name("C6"))
        package.set_pstate(14)
        sim.run()
        assert sleeper.state is CoreState.SLEEP

    def test_queued_target_applied_after_transition(self):
        sim, package = make_package(initial_pstate=14)
        package.set_pstate(0)     # long up-transition
        package.set_pstate(7)     # queued; latest wins
        sim.run()
        assert package.pstate_index == 7
        assert package.transitions == 2

    def test_queue_same_as_inflight_coalesces(self):
        sim, package = make_package()
        package.set_pstate(14)
        package.set_pstate(14)
        sim.run()
        assert package.transitions == 1

    def test_effective_target_during_transition(self):
        sim, package = make_package(initial_pstate=14)
        package.set_pstate(0)
        assert package.effective_target_index == 0
        assert package.at_max_performance  # heading to P0 counts
        package.set_pstate(3)
        assert package.effective_target_index == 3
        assert not package.at_max_performance


class TestOperatingPoint:
    def assert_at(self, package, index):
        state = package.pstates[index]
        assert package.pstate_index == index
        assert package.frequency_hz == state.freq_hz
        assert package.voltage == state.voltage

    def test_initial_point_matches_initial_pstate(self):
        _, package = make_package(initial_pstate=9)
        self.assert_at(package, 9)

    def test_tracks_every_completed_switch(self):
        sim, package = make_package(initial_pstate=14)
        landed = []
        package.pstate_listeners.append(
            lambda index: landed.append(
                (index, package.frequency_hz, package.voltage)
            )
        )
        package.set_pstate(0)   # ramps, then halts
        package.set_pstate(7)   # queued behind the in-flight switch ...
        package.set_pstate(3)   # ... and coalesced: the latest target wins
        sim.run(until=50 * US)
        self.assert_at(package, 14)  # still ramping: old point holds
        sim.run()
        assert landed == [
            (i, package.pstates[i].freq_hz, package.pstates[i].voltage) for i in (0, 3)
        ]
        self.assert_at(package, 3)


class TestHelpers:
    def test_set_frequency_maps_to_covering_pstate(self):
        sim, package = make_package()
        package.set_frequency(ghz(1.0))
        sim.run()
        assert package.frequency_hz >= ghz(1.0)
        assert package.pstate_index > 0

    def test_trace_records_frequency_changes(self):
        telemetry = Telemetry()
        log = telemetry.add_sink(ProbeLog())
        sim, package = make_package(telemetry=telemetry)
        package.set_pstate(14)
        sim.run()
        events = log.events["cpu.pstate"]
        assert {e.domain for e in events} == {"cpu"}
        assert events[0].freq_hz / 1e9 == pytest.approx(3.1)
        assert events[-1].freq_hz / 1e9 == pytest.approx(0.8)
        assert events[-1].freq_hz == package.frequency_hz

    def test_energy_report_aggregates_cores(self):
        sim, package = make_package(n_cores=4)
        sim.schedule(1000 * US, lambda: None)
        sim.run()
        report = package.energy_report()
        # 4 idle-polling cores at P0 for 1 ms each.
        assert report.residency_ns["idle"] == 4 * 1000 * US
        assert report.energy_j > 0

    def test_busy_ns_per_core(self):
        sim, package = make_package(n_cores=2)
        package.cores[0].dispatch(Job(3.1e9 * 10e-6))
        sim.run()
        busy = package.busy_ns_per_core()
        assert busy[0] == 10 * US
        assert busy[1] == 0

    def test_rejects_zero_cores(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ProcessorConfig(n_cores=0).build_package(sim)
