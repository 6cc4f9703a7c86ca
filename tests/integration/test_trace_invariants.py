"""Trace-level invariants of full cluster runs.

These tests run with a probe log and the 1 ms flight recorder attached and
assert cross-cutting physical invariants on what they saw — the kind of
bug that unit tests on individual modules cannot catch (double-counted
bytes, impossible frequencies, C-state transitions out of order).
"""

import pytest

from repro.cluster.simulation import Cluster, ExperimentConfig
from repro.sim.units import MS
from repro.telemetry.recorder import RecorderConfig
from tests.probe_log import ProbeLog


def run_traced(policy="ond.idle", app="apache", rps=24_000):
    config = ExperimentConfig(
        app=app, policy=policy, target_rps=rps,
        warmup_ns=10 * MS, measure_ns=60 * MS, drain_ns=40 * MS, seed=6,
    )
    log = ProbeLog()
    cluster = Cluster(
        config, sinks=[log], record_timeseries=RecorderConfig(interval_ns=1 * MS)
    )
    result = cluster.run()
    return config, cluster, result, log


class TestFrequencyChannel:
    def test_frequencies_within_pstate_table(self):
        config, cluster, result, log = run_traced()
        events = log.events["cpu.pstate"]
        assert len(events) > 0
        for event in events:
            assert 0.8 - 1e-9 <= event.freq_hz / 1e9 <= 3.1 + 1e-9

    def test_perf_policy_never_changes_frequency(self):
        config, cluster, result, log = run_traced(policy="perf")
        events = log.events["cpu.pstate"]
        assert all(e.freq_hz / 1e9 == pytest.approx(3.1) for e in events)


class TestUtilizationChannel:
    def test_utilization_in_unit_interval(self):
        config, cluster, result, log = run_traced()
        values = result.timeseries.get("cpu.util").values
        assert len(values) >= 100  # 1 ms sampling over >=100 ms
        for value in values:
            assert 0.0 <= value <= 1.0

    def test_utilization_reflects_load(self):
        _, _, light, _ = run_traced(policy="perf", rps=12_000)
        _, _, heavy, _ = run_traced(policy="perf", rps=60_000)
        def mean(r):
            values = r.timeseries.get("cpu.util").values
            return sum(values) / len(values)

        assert mean(heavy) > 2 * mean(light)


class TestByteAccounting:
    def test_rx_bytes_match_client_transmissions(self):
        config, cluster, result, log = run_traced(policy="perf")
        rx_total = result.counters["nic.rx.bytes"]
        assert rx_total == sum(e.wire_bytes for e in log.events["nic.rx"])
        sent_wire = sum(c.requests_sent for c in cluster.clients)
        # Every request is one small packet; totals must agree to within
        # the handful of frames in flight at the horizon.
        assert rx_total > 0
        per_req = rx_total / cluster.server.nic.rx_frames
        assert cluster.server.nic.rx_frames <= sent_wire
        assert sent_wire - cluster.server.nic.rx_frames < 50
        assert 66 < per_req < 200  # headers + a short GET line

    def test_tx_bytes_track_responses(self):
        config, cluster, result, log = run_traced(policy="perf")
        tx_total = result.counters["nic.tx.bytes"]
        assert tx_total == sum(e.wire_bytes for e in log.events["nic.tx"])
        responses = cluster.server.app.responses_sent
        assert responses > 0
        # Apache responses average ~12 kB + headers.
        assert 2_000 < tx_total / responses < 40_000


class TestCStateChannels:
    def test_cstate_channel_alternates_sleep_and_wake(self):
        config, cluster, result, log = run_traced(policy="ond.idle")
        slept = 0
        for core_id in range(4):
            values = log.cstate_steps(core_id)
            slept += sum(1 for v in values if v > 0)
            # A sleep entry (index > 0) can deepen (promotion) but must
            # return through 0 (awake) before the next sleep entry.
            awake = True
            last_depth = 0
            for v in values:
                if v == 0:
                    awake = True
                    last_depth = 0
                else:
                    if not awake:
                        assert v > last_depth  # promotion only deepens
                    awake = False
                    last_depth = v
        assert slept > 0

    def test_no_cstate_records_when_disabled(self):
        config, cluster, result, log = run_traced(policy="perf")
        assert log.events["cpu.cstate"] == []


class TestEnergyConsistency:
    def test_residency_sums_to_window(self):
        config, cluster, result, log = run_traced(policy="ond.idle")
        total = sum(result.energy.residency_ns.values())
        expected = 4 * config.measure_ns  # 4 cores x window
        assert total == pytest.approx(expected, rel=0.001)

    def test_energy_matches_mode_breakdown(self):
        config, cluster, result, log = run_traced(policy="ncap.cons")
        assert result.energy.energy_j == pytest.approx(
            sum(result.energy.energy_by_mode_j.values()), rel=1e-9
        )
