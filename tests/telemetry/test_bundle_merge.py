"""Tests for merging flight-recorder bundles across shards.

The merge contract: node-name prefixes on every series, deterministic
sorted output, and complete independence from the order the per-server
bundles are supplied in — the property the sharded coordinator's
bit-identical ResultRecord rests on.
"""

import pytest

from repro.telemetry.recorder import (
    SeriesData,
    TimeseriesBundle,
    merge_timeseries_bundles,
)


def make_bundle(offset=0.0, start=0, end=1000):
    return TimeseriesBundle(
        interval_ns=100,
        start_ns=start,
        end_ns=end,
        series=[
            SeriesData("power.watts", "gauge", 1,
                       [0, 100, 200], [10.0 + offset, 11.0, 12.0]),
            SeriesData("nic.rx.bytes", "counter", 1,
                       [0, 100, 200], [0.0, 500.0, 900.0]),
        ],
    )


class TestMergeBundles:
    def test_series_prefixed_and_sorted(self):
        merged = merge_timeseries_bundles(
            {"server1": make_bundle(), "server0": make_bundle()}
        )
        names = [s.name for s in merged.series]
        assert names == sorted(names)
        assert "server0.power.watts" in names
        assert "server1.nic.rx.bytes" in names

    def test_merge_order_independent(self):
        a = {"server0": make_bundle(), "server1": make_bundle(offset=5.0)}
        b = dict(reversed(list(a.items())))
        ma = merge_timeseries_bundles(a).to_json_dict()
        mb = merge_timeseries_bundles(b).to_json_dict()
        assert ma == mb

    def test_envelope_spans_all_inputs(self):
        merged = merge_timeseries_bundles({
            "server0": make_bundle(start=0, end=500),
            "server1": make_bundle(start=200, end=900),
        })
        assert merged.start_ns == 0
        assert merged.end_ns == 900

    def test_source_bundles_not_mutated(self):
        bundle = make_bundle()
        merge_timeseries_bundles({"server0": bundle})
        assert bundle.series[0].name == "power.watts"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_timeseries_bundles({})

    def test_mismatched_intervals_rejected(self):
        other = make_bundle()
        other.interval_ns = 999
        with pytest.raises(ValueError):
            merge_timeseries_bundles(
                {"server0": make_bundle(), "server1": other}
            )

    def test_merged_bundle_round_trips_through_json(self):
        merged = merge_timeseries_bundles(
            {"server0": make_bundle(), "server1": make_bundle(offset=2.0)}
        )
        clone = TimeseriesBundle.from_json_dict(merged.to_json_dict())
        assert clone.to_json_dict() == merged.to_json_dict()
        assert clone.get("server1.power.watts").values[0] == 12.0
