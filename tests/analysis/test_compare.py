"""Cross-run comparison tests: RunSets, paired diffs, CI gates."""

import json
import os

import numpy as np
import pytest

from repro.analysis.compare import (
    AXES,
    MetricDelta,
    RunSet,
    compare,
    diff_records,
    format_compare_report,
    format_runset_summary,
    joules_per_request,
    load_label,
    percentile_ci,
)
from repro.analysis.energy import EnergyAttribution
from repro.harness.cache import ResultCache
from repro.harness.record import ResultRecord
from repro.metrics.latency import LatencyStats


def make_record(
    policy="perf",
    app="apache",
    target_rps=24_000.0,
    seed=1,
    values=None,
    latency=None,
    energy_j=5.0,
    responses=None,
    counters=None,
    attribution=None,
    config_hash=None,
):
    """A synthetic ResultRecord built from an explicit latency population."""
    if latency is None:
        if values is None:
            values = np.linspace(1e6, 10e6, 1000)
        latency = LatencyStats.from_values(values)
    responses = responses if responses is not None else latency.count
    record = ResultRecord(
        config_hash=config_hash or f"{app}-{policy}-{target_rps:g}-{seed}",
        app=app,
        policy=policy,
        target_rps=target_rps,
        seed=seed,
        sla_ns=25_000_000,
        meets_sla=True,
        requests_sent=responses,
        responses_received=responses,
        incomplete=0,
        achieved_rps=target_rps,
        avg_power_w=20.0,
        latency_count=latency.count,
        mean_ns=latency.mean_ns,
        p50_ns=latency.p50_ns,
        p90_ns=latency.p90_ns,
        p95_ns=latency.p95_ns,
        p99_ns=latency.p99_ns,
        max_ns=latency.max_ns,
        energy_j=energy_j,
        counters=dict(counters or {}),
        energy_attribution=(
            attribution.to_json_dict() if attribution is not None else {}
        ),
    )
    return record


def make_attribution(governor="ondemand", total=5.0, active=4.0,
                     wasted=0.5, wake=0.25, ramp=0.25):
    return EnergyAttribution(
        governor=governor, total_j=total, active_j=active,
        ramp_j=ramp, wake_j=wake, wasted_shallow_j=wasted,
    )


class TestRunSet:
    def test_sorted_and_indexable(self):
        records = [
            make_record(policy=p, target_rps=rps)
            for p in ("perf", "ncap.cons") for rps in (24_000.0, 12_000.0)
        ]
        rs = RunSet.from_records(records)
        assert len(rs) == 4
        keys = [(r.app, r.target_rps, r.policy, r.seed) for r in rs]
        assert keys == sorted(keys)
        assert rs.axis_values("policy") == ["ncap.cons", "perf"]
        assert rs.axis_values("target_rps") == [12_000.0, 24_000.0]

    def test_select_and_get(self):
        rs = RunSet.from_records([
            make_record(policy="perf"), make_record(policy="ncap.cons"),
        ])
        assert len(rs.select(policy="perf")) == 1
        assert rs.get(policy="perf").policy == "perf"
        with pytest.raises(KeyError):
            rs.get(app="apache")  # two matches
        with pytest.raises(KeyError):
            rs.select(nonsense=1)

    def test_unknown_axis_rejected(self):
        rs = RunSet.from_records([make_record()])
        with pytest.raises(KeyError):
            rs.axis_values("config_hash")
        assert "policy" in AXES

    def test_groups_span_other_axes(self):
        rs = RunSet.from_records([
            make_record(policy=p, target_rps=rps)
            for p in ("perf", "ncap.cons") for rps in (12_000.0, 24_000.0)
        ])
        groups = rs.groups("policy")
        assert len(groups) == 2  # one per load
        for _, by_policy in groups:
            assert set(by_policy) == {"perf", "ncap.cons"}

    def test_from_json_roundtrip(self, tmp_path):
        from repro.metrics.export import export_result_records

        records = [make_record(policy="perf"), make_record(policy="ond")]
        path = export_result_records(records, str(tmp_path / "records.json"))
        rs = RunSet.from_json(path)
        assert len(rs) == 2
        assert rs.get(policy="ond").p99_ns == records[1].p99_ns

    def test_from_cache_dir_skips_corruption(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(make_record(policy="perf"))
        cache.put(make_record(policy="ond"))
        (tmp_path / "corrupt.json").write_text("{not json")
        (tmp_path / "other.txt").write_text("ignored")
        (tmp_path / ".tmp-x.json").write_text("{}")
        rs = RunSet.from_cache_dir(str(tmp_path))
        assert sorted(r.policy for r in rs) == ["ond", "perf"]

    def test_from_cache_dir_missing_dir(self):
        assert len(RunSet.from_cache_dir("/nonexistent/nowhere")) == 0


class TestPercentileCI:
    def test_contains_exact_percentile(self):
        rng = np.random.RandomState(7)
        values = rng.lognormal(mean=14.8, sigma=0.4, size=20_000)
        record = make_record(values=values)
        for q in (50.0, 95.0, 99.0):
            lo, hi = percentile_ci(record, q)
            exact = float(np.percentile(values, q))
            assert lo <= exact <= hi
            assert lo < hi

    def test_halfwidth_shrinks_with_n(self):
        rng = np.random.RandomState(3)
        small = make_record(values=rng.lognormal(15, 0.3, 500))
        large = make_record(values=rng.lognormal(15, 0.3, 50_000))
        lo_s, hi_s = percentile_ci(small, 99)
        lo_l, hi_l = percentile_ci(large, 99)
        assert (hi_l - lo_l) / large.p99_ns < (hi_s - lo_s) / small.p99_ns

    def test_empty_record_nan(self):
        record = make_record(latency=LatencyStats.from_values([]),
                             responses=0)
        lo, hi = percentile_ci(record, 99)
        assert np.isnan(lo) and np.isnan(hi)


class TestMetricDelta:
    def test_delta_rel_significance(self):
        d = MetricDelta("p99_ns", base=10.0, cand=13.0, ci_halfwidth=2.0)
        assert d.delta == pytest.approx(3.0)
        assert d.rel == pytest.approx(0.3)
        assert d.significant
        assert not MetricDelta("x", 10.0, 11.0, ci_halfwidth=2.0).significant

    def test_zero_base_rel_nan(self):
        assert np.isnan(MetricDelta("x", 0.0, 1.0).rel)


class TestDiffRecords:
    def test_identical_records_not_significant(self):
        values = np.linspace(1e6, 9e6, 5_000)
        base = make_record(policy="perf", values=values)
        cand = make_record(policy="ncap.cons", values=values)
        diff = diff_records(base, cand)
        assert diff.base_label == "perf" and diff.cand_label == "ncap.cons"
        for q in ("p50_ns", "p95_ns", "p99_ns"):
            assert diff.metrics[q].delta == 0.0
            assert not diff.metrics[q].significant

    def test_large_shift_significant(self):
        rng = np.random.RandomState(11)
        values = rng.lognormal(15, 0.2, 20_000)
        base = make_record(policy="perf", values=values)
        cand = make_record(policy="ncap.cons", values=values * 2.0)
        diff = diff_records(base, cand)
        assert diff.metrics["p99_ns"].significant
        assert diff.metrics["p99_ns"].delta > 0

    def test_joules_per_request_delta(self):
        base = make_record(policy="perf", energy_j=10.0, responses=1000)
        cand = make_record(policy="ncap.cons", energy_j=5.0, responses=1000)
        diff = diff_records(base, cand)
        assert diff.metrics["joules_per_request"].delta == pytest.approx(
            -0.005
        )
        assert joules_per_request(base) == pytest.approx(0.01)

    def test_energy_components_when_both_attributed(self):
        base = make_record(
            policy="perf", attribution=make_attribution(wasted=1.0)
        )
        cand = make_record(
            policy="ncap.cons", attribution=make_attribution(wasted=0.25)
        )
        diff = diff_records(base, cand)
        assert diff.energy_components["wasted_shallow"].delta == (
            pytest.approx(-0.75)
        )
        assert "total" in diff.energy_components
        plain = diff_records(make_record(), make_record(policy="ond"))
        assert plain.energy_components == {}

    def test_counter_drift_sorted_and_capped(self):
        base = make_record(counters={f"c{i}": 100.0 for i in range(12)})
        cand_counters = {f"c{i}": 100.0 + i for i in range(12)}
        cand = make_record(policy="ond", counters=cand_counters)
        diff = diff_records(base, cand, max_counters=5)
        assert len(diff.counter_drift) == 5
        drifts = [abs(d.rel) for d in diff.counter_drift]
        assert drifts == sorted(drifts, reverse=True)
        assert diff.counter_drift[0].metric == "c11"

    def test_coordinate_label(self):
        diff = diff_records(make_record(), make_record(policy="ond"))
        assert diff.coordinate == "apache@24K seed 1"
        assert load_label(24_000.0) == "24K"
        assert load_label(1234.5) == "1234.5"


class TestCompare:
    def test_pairs_against_baseline_per_group(self):
        rs = RunSet.from_records([
            make_record(policy=p, target_rps=rps)
            for p in ("perf", "ond", "ncap.cons")
            for rps in (12_000.0, 24_000.0)
        ])
        diffs = compare(rs, baseline="perf")
        assert len(diffs) == 4  # 2 loads x 2 non-baseline policies
        assert all(d.base_label == "perf" for d in diffs)
        labels = {(d.cand_label, d.target_rps) for d in diffs}
        assert ("ncap.cons", 12_000.0) in labels

    def test_groups_without_baseline_skipped(self):
        rs = RunSet.from_records([
            make_record(policy="perf", target_rps=12_000.0),
            make_record(policy="ond", target_rps=12_000.0),
            make_record(policy="ond", target_rps=24_000.0),
        ])
        diffs = compare(rs, baseline="perf")
        assert len(diffs) == 1
        assert diffs[0].target_rps == 12_000.0


class TestReports:
    def test_compare_report_content(self):
        rng = np.random.RandomState(5)
        values = rng.lognormal(15, 0.3, 10_000)
        rs = RunSet.from_records([
            make_record(policy="perf", values=values),
            make_record(policy="ncap.cons", values=values * 1.5),
        ])
        report = format_compare_report(compare(rs, baseline="perf"))
        assert "ncap.cons vs perf" in report
        assert "Δp99" in report
        assert format_compare_report([]) == "no paired runs to compare"

    def test_summary_table_content(self):
        rs = RunSet.from_records([
            make_record(policy="perf", energy_j=9.0, responses=1000),
        ])
        summary = format_runset_summary(rs)
        assert "mJ/req" in summary and "9.0000" in summary
        assert "perf" in summary and "24K" in summary

    def test_json_dict_roundtrip_through_runset(self, tmp_path):
        record = make_record(attribution=make_attribution())
        path = tmp_path / "r.json"
        path.write_text(json.dumps(record.to_json_dict()))
        data = json.loads(path.read_text())
        rebuilt = ResultRecord.from_json_dict(data)
        rs = RunSet.from_records([rebuilt])
        assert rs.records[0].energy_attribution_report() is not None
        assert os.path.exists(str(path))
