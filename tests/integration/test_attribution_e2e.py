"""End-to-end attribution: conservation, auditing, and the causal claim.

The acceptance criteria of the attribution subsystem:

- every attributed request's components sum to its measured RTT within
  1 ns (checked per request via ``keep_records=True``; the auditor
  additionally fails the run on any violation);
- the invariant auditor passes on full runs across the preset policy
  space (fig4 and the headline preset are covered by the ond.idle/ncap
  runs, fig7 by the medium-load run);
- the paper's causal claim is visible in the decomposition: the wake+ramp
  share of p99 latency is strictly smaller under NCAP than under
  ``ond.idle`` on the headline workload.
"""

import pytest

from repro.analysis.attribution import COMPONENTS, AttributionSink
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.sim.units import MS

WARMUP, MEASURE, DRAIN = 10 * MS, 60 * MS, 40 * MS


def attributed_run(policy: str, target_rps: float = 24_000.0):
    config = ExperimentConfig(
        app="apache", policy=policy, target_rps=target_rps,
        warmup_ns=WARMUP, measure_ns=MEASURE, drain_ns=DRAIN,
    )
    sink = AttributionSink(keep_records=True)
    result = run_experiment(config, sinks=[sink], audit=True)
    return result, sink


@pytest.fixture(scope="module")
def ond_idle():
    return attributed_run("ond.idle")


@pytest.fixture(scope="module")
def ncap():
    return attributed_run("ncap.cons")


class TestConservation:
    def test_every_request_sums_to_rtt_within_1ns(self, ond_idle):
        _, sink = ond_idle
        assert sink.count > 100
        assert len(sink.records) == sink.count
        for record in sink.records:
            delta = record.total_ns - sum(record.components.values())
            assert abs(delta) <= 1.0, (
                f"{record.span_id}: conservation off by {delta} ns"
            )
        assert sink.conservation_violations == []

    def test_components_are_nonnegative(self, ond_idle):
        _, sink = ond_idle
        for record in sink.records:
            for name in COMPONENTS:
                assert record.components[name] >= -1e-6, (
                    f"{record.span_id}: {name} = {record.components[name]}"
                )

    def test_all_rtts_matched(self, ond_idle):
        result, sink = ond_idle
        assert sink.unmatched_rtts == 0
        assert sink.count == result.responses_received


class TestAuditedPresets:
    def test_ncap_run_is_clean(self, ncap):
        result, sink = ncap
        # audit=True in the fixture: reaching here means no AuditError.
        assert result.responses_received > 100
        assert sink.conservation_violations == []

    def test_medium_load_perf_run_is_clean(self):
        # The fig7 preset's distinguishing axis: medium load.
        result, sink = attributed_run("perf", target_rps=45_000.0)
        assert result.responses_received > 100
        assert sink.conservation_violations == []


class TestCausalClaim:
    def test_ncap_shrinks_wake_ramp_share_at_p99(self, ond_idle, ncap):
        baseline = ond_idle[0].attribution.tails["p99"]
        treated = ncap[0].attribution.tails["p99"]
        assert treated.wake_ramp_share < baseline.wake_ramp_share

    def test_attribution_lands_in_result(self, ond_idle):
        result, sink = ond_idle
        report = result.attribution
        assert report is not None
        assert report.count == sink.count
        flat = report.to_flat_dict()
        assert flat["p99.wake_ramp_share"] == pytest.approx(
            report.tails["p99"].wake_ramp_share
        )

