"""Fast tests of the per-figure experiment runners (abbreviated settings)."""

import pytest

from repro.apps.patterns import SpikePattern
from repro.experiments import (
    RunSettings,
    ablations,
    dynamics,
    fig1_dvfs_timing,
    fig2_ondemand_period,
    fig4_correlation,
    fig7_latency_load,
    headline,
    percore,
    policy_comparison,
    related_work,
)
from repro.sim.units import MS

TINY = RunSettings(warmup_ns=5 * MS, measure_ns=40 * MS, drain_ns=30 * MS, seed=2)


class TestFig1:
    def test_rows_and_report(self):
        rows = fig1_dvfs_timing.run()
        assert len(rows) == 6
        up = next(r for r in rows if (r.from_index, r.to_index) == (14, 0))
        assert up.ramp_us == pytest.approx(88.0)
        assert up.halt_us == pytest.approx(5.0)
        report = fig1_dvfs_timing.format_report(rows)
        assert "Figure 1" in report and "P14" in report

    def test_down_transitions_have_no_ramp(self):
        rows = fig1_dvfs_timing.run()
        down = next(r for r in rows if (r.from_index, r.to_index) == (0, 14))
        assert down.ramp_us == 0.0
        # The job is delayed by (at least) the halt, and then runs slower.
        assert down.measured_job_delay_us > 5.0


class TestFig2:
    def test_grid_and_best_period(self):
        cells = fig2_ondemand_period.run(
            periods_ms=(5, 10), loads=("low",), settings=TINY
        )
        assert len(cells) == 2
        best = fig2_ondemand_period.best_period_by_load(cells)
        assert best["low"] in (5, 10)
        report = fig2_ondemand_period.format_report(cells)
        assert "Figure 2" in report and "best period" in report


class TestFig4:
    def test_structure_and_correlation(self):
        result = fig4_correlation.run(settings=TINY)
        assert len(result.bw_rx) == len(result.bw_tx)
        assert max(v for _, v in result.bw_rx) == pytest.approx(1.0)
        assert -1.0 <= result.corr_rx_util <= 1.0
        assert result.cstate_entries  # menu slept between bursts
        report = fig4_correlation.format_report(result)
        assert "corr(BW(Rx) smoothed, U)" in report


class TestFig7:
    def test_knee_detection(self):
        result = fig7_latency_load.run(
            "apache", sweep_rps=(24_000, 80_000), settings=TINY
        )
        assert len(result.points) == 2
        assert result.knee_rps == 80_000  # saturated point doubles the p95
        report = fig7_latency_load.format_report(result)
        assert "inflexion" in report

    def test_no_knee_in_flat_sweep(self):
        result = fig7_latency_load.run(
            "apache", sweep_rps=(24_000, 30_000), settings=TINY
        )
        assert result.knee_rps is None
        assert "no inflexion" in fig7_latency_load.format_report(result)

    def test_find_knee_pure_logic(self):
        points = [
            fig7_latency_load.LoadPoint(10_000, 5.0, 2.0, 10_000),
            fig7_latency_load.LoadPoint(20_000, 6.0, 2.0, 20_000),
            fig7_latency_load.LoadPoint(30_000, 19.0, 2.0, 30_000),
        ]
        knee, sla = fig7_latency_load.find_knee(points)
        assert knee == 30_000 and sla == 19.0


class TestPolicyComparison:
    def test_two_policy_comparison(self):
        result = policy_comparison.run(
            "apache",
            loads=("low",),
            policies=("perf", "ncap.cons"),
            settings=TINY,
            snapshot_policies=("ncap.cons",),
            snapshot_window_ms=40,
        )
        assert len(result.rows) == 2
        assert result.energy_rel("perf", "low") == pytest.approx(1.0)
        assert result.energy_rel("ncap.cons", "low") < 1.0
        assert result.snapshots[0].policy == "ncap.cons"
        report = policy_comparison.format_report(result)
        assert "ncap.cons" in report

    def test_requires_perf_first(self):
        with pytest.raises(AssertionError):
            policy_comparison.run(
                "apache", loads=("low",), policies=("ond",),
                settings=TINY, snapshot_policies=(),
            )

    def test_row_lookup_unknown(self):
        result = policy_comparison.ComparisonResult(app="apache", rows=[])
        with pytest.raises(KeyError):
            result.row("perf", "low")


class TestHeadline:
    def _comparison(self):
        rows = [
            policy_comparison.PolicyRow("perf", "low", 0.2, 0.3, 0.35, 0.5, 1.00, True, 2.0, 10.0),
            policy_comparison.PolicyRow("ond", "low", 0.4, 0.6, 0.70, 0.9, 0.65, True, 3.0, 6.5),
            policy_comparison.PolicyRow("perf.idle", "low", 0.2, 0.3, 0.4, 0.6, 0.45, True, 2.1, 4.5),
            policy_comparison.PolicyRow("ond.idle", "low", 0.5, 0.8, 1.10, 1.4, 0.40, False, 3.2, 4.0),
            policy_comparison.PolicyRow("ncap.sw", "low", 0.3, 0.4, 0.5, 0.7, 0.70, True, 2.4, 7.0),
            policy_comparison.PolicyRow("ncap.cons", "low", 0.2, 0.3, 0.38, 0.55, 0.55, True, 2.1, 5.5),
            policy_comparison.PolicyRow("ncap.aggr", "low", 0.25, 0.35, 0.42, 0.6, 0.50, True, 2.2, 5.0),
        ]
        return policy_comparison.ComparisonResult(app="apache", rows=rows)

    def test_derive_picks_best_sla_ok_policies(self):
        rows = headline.derive([self._comparison()], loads=("low",))
        row = rows[0]
        assert row.best_ncap == "ncap.aggr"
        assert row.ncap_vs_perf_saving_pct == pytest.approx(50.0)
        # ond.idle violated SLA, so perf.idle (0.45) is the comparator.
        assert row.best_conventional == "perf.idle"
        assert row.ncap_vs_conventional_saving_pct == pytest.approx(
            (1 - 0.50 / 0.45) * 100
        )
        assert row.ncap_sw_vs_perf_saving_pct == pytest.approx(30.0)

    def test_report_renders(self):
        rows = headline.derive([self._comparison()], loads=("low",))
        text = headline.format_report(rows)
        assert "Headline" in text and "ncap.aggr" in text


class TestAblations:
    def test_fcons_sweep_runs(self):
        points = ablations.sweep_fcons(values=(1, 5), settings=TINY)
        assert {p.value for p in points} == {1, 5}
        text = ablations.format_report(points, "FCONS")
        assert "FCONS" in text

    def test_rht_extremes(self):
        points = ablations.sweep_rht(values_rps=(5_000, 500_000), settings=TINY)
        low, high = sorted(points, key=lambda p: p.value)
        assert low.it_high_posts >= high.it_high_posts


class TestSelfWiredStars:
    """The Section 7/8 experiments that build their own server class into
    the standard star.  Each row is pinned exactly: these runs share the
    station builder with the cluster, so any change in wiring, start
    order or window bookkeeping shows up as a changed digit."""

    def test_dynamics_spike_row(self):
        row = dynamics.run_pattern(
            SpikePattern(10_000, 50_000, 25 * MS, 8 * MS),
            "ncap.cons",
            app="apache",
            settings=TINY,
        )
        assert row == dynamics.DynamicsRow(
            policy="ncap.cons",
            p95_ms=3.2838401999999998,
            energy_j=0.9391644092638018,
            meets_sla=True,
        )

    def test_percore_row(self):
        row = percore.run_percore("memcached", 40_000, settings=TINY)
        assert row == percore.VariantResult(
            variant="ncap.percore",
            p95_ms=1.2550638999999997,
            p99_ms=1.5040645400000001,
            energy_j=1.1431213017271664,
            meets_sla=True,
            wake_posts=34,
        )

    def test_adrenaline_row(self):
        row = related_work.run_adrenaline("memcached", 40_000, settings=TINY)
        assert row == related_work.BaselineRow(
            system="adrenaline",
            p95_ms=2.8884179999999997,
            p99_ms=3.11810538,
            energy_j=0.8105073679935818,
            meets_sla=True,
        )
