"""Fleet observability: tracing determinism, window profiler, monitor.

The contract under test mirrors the sharding parity suite: every fleet
observer (request tracing, window profiler, live monitor) is a pure
observer — the merged ResultRecord, *including* the deterministic
``fleet`` trace section, is byte-identical (JSON + sha256) across shard
count, pool size and window size, and identical-minus-``fleet`` to an
observer-free run.
"""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from repro.cluster.datacenter import DatacenterConfig, run_datacenter
from repro.cluster.frontend import FrontendConfig
from repro.profiling.fleet import (
    FleetProfile,
    WindowSample,
    format_fleet_profile,
    window_trace_events,
)
from repro.sim.units import MS
from repro.telemetry.monitor import RunMonitor, resolve_monitor
from repro.telemetry.tracing import (
    FRONTEND_PID,
    HOPS,
    SHARD_PID_BASE,
    FleetTraceBundle,
    TraceConfig,
    fleet_trace_events,
    format_hop_table,
    is_sampled,
    lane_metadata_events,
    resolve_trace_config,
)


def frontend_config(**overrides) -> DatacenterConfig:
    base = dict(
        app="memcached",
        n_servers=4,
        n_shards=1,
        total_rps=80_000.0,
        seed=11,
        warmup_ns=5 * MS,
        measure_ns=20 * MS,
        drain_ns=15 * MS,
        frontend=FrontendConfig(
            n_users=5_000,
            spray="po2",
            burst_size=75,
            intra_burst_gap_ns=1_000,
            dispatch_latency_ns=1 * MS,
        ),
    )
    base.update(overrides)
    return DatacenterConfig(**base)


def record_sha(result) -> str:
    payload = json.dumps(result.record.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestSamplingRule:
    def test_pure_and_deterministic(self):
        picks = [
            (src, rid)
            for src in ("frontend0", "frontend3")
            for rid in range(1, 2_000)
            if is_sampled(src, rid, 64)
        ]
        assert picks == [
            (src, rid)
            for src in ("frontend0", "frontend3")
            for rid in range(1, 2_000)
            if is_sampled(src, rid, 64)
        ]
        assert picks  # the rule actually selects something at 1-in-64

    def test_sample_every_one_takes_all(self):
        assert all(is_sampled("frontend0", rid, 1) for rid in range(1, 50))

    def test_none_req_id_never_sampled(self):
        assert not is_sampled("frontend0", None, 1)

    def test_resolve_spec_variants(self):
        assert resolve_trace_config(None) is None
        assert resolve_trace_config(False) is None
        assert resolve_trace_config(True) == TraceConfig()
        assert resolve_trace_config(128).sample_every == 128
        cfg = TraceConfig(sample_every=7, max_traces=3)
        assert resolve_trace_config(cfg) is cfg
        with pytest.raises(TypeError, match="trace_requests"):
            resolve_trace_config(3.5)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sample_every"):
            TraceConfig(sample_every=0)
        with pytest.raises(ValueError, match="max_traces"):
            TraceConfig(max_traces=0)


class TestTraceParity:
    """serial == sharded == pooled, for bundles and whole records."""

    def test_byte_identical_across_shards_and_pools(self):
        base = frontend_config()
        serial = run_datacenter(base, jobs=1, trace_requests=64)
        sharded = run_datacenter(
            replace(base, n_shards=2), jobs=1, trace_requests=64
        )
        pooled = run_datacenter(
            replace(base, n_shards=4), jobs=2, trace_requests=64,
            profile_fleet=True,
        )
        shas = {record_sha(r) for r in (serial, sharded, pooled)}
        assert len(shas) == 1
        bundles = {
            json.dumps(r.trace.to_json_dict(), sort_keys=True)
            for r in (serial, sharded, pooled)
        }
        assert len(bundles) == 1
        assert len(serial.trace) > 0

    def test_byte_identical_at_a_smaller_window(self):
        # Window size changes the planner's boundary load views (a
        # different simulated experiment in frontend mode — only client
        # mode is window-invariant), but at any fixed window the traced
        # records stay placement-independent.
        base = frontend_config()
        serial = run_datacenter(
            replace(base, n_shards=2), jobs=1, trace_requests=64,
            window_ns=MS // 2,
        )
        pooled = run_datacenter(
            replace(base, n_shards=4), jobs=2, trace_requests=64,
            window_ns=MS // 2,
        )
        assert record_sha(serial) == record_sha(pooled)
        assert serial.trace.to_json_dict() == pooled.trace.to_json_dict()

    def test_observers_do_not_perturb_simulated_results(self):
        base = frontend_config(n_shards=2)
        plain = run_datacenter(base, jobs=1)
        observed = run_datacenter(
            base, jobs=1, trace_requests=64, profile_fleet=True,
            monitor=RunMonitor("-", clock=iter(range(10_000)).__next__),
        )
        a = plain.record.to_json_dict()
        b = observed.record.to_json_dict()
        a.pop("fleet")
        b.pop("fleet")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_tracing_requires_frontend_mode(self):
        classic = DatacenterConfig(
            app="memcached", n_servers=2, n_shards=2, total_rps=20_000.0,
            load_shares="uniform",
            warmup_ns=2 * MS, measure_ns=6 * MS, drain_ns=4 * MS,
        )
        with pytest.raises(ValueError, match="frontend mode"):
            run_datacenter(classic, jobs=1, trace_requests=64)


class TestEnergyFleetParity:
    """Energy provenance over the fleet: placement-independent, pure."""

    def test_byte_identical_across_shards_and_pools(self):
        base = frontend_config()
        serial = run_datacenter(base, jobs=1, energy_attribution=True)
        sharded = run_datacenter(
            replace(base, n_shards=2), jobs=1, energy_attribution=True
        )
        pooled = run_datacenter(
            replace(base, n_shards=4), jobs=2, energy_attribution=True
        )
        shas = {record_sha(r) for r in (serial, sharded, pooled)}
        assert len(shas) == 1

        attrs = [r.record.energy_attribution_report()
                 for r in (serial, sharded, pooled)]
        assert attrs[0] == attrs[1] == attrs[2]
        assert attrs[0].n_nodes == base.n_servers
        # Governor counters merge per (governor, core position): identical
        # across placements, and every idle exit is graded exactly once.
        totals = {json.dumps(a.decision_totals(), sort_keys=True) for a in attrs}
        assert len(totals) == 1
        assert sum(attrs[0].decision_totals().values()) > 0

    def test_fleet_energy_conserves_against_merged_record(self):
        # Satellite: EnergyReport.merge / residency conservation across
        # the shard merge path.  The merged record's energy integral and
        # idle residency must telescope exactly into the attribution.
        result = run_datacenter(
            frontend_config(n_shards=2), jobs=2, energy_attribution=True
        )
        record = result.record
        attr = record.energy_attribution_report()
        assert attr.total_j == pytest.approx(record.energy_j, abs=1e-12)
        assert abs(attr.conservation_error_j) <= 1e-6
        idle_ns = sum(
            ns for mode, ns in record.residency_ns.items()
            if mode in ("idle", "C1", "C3", "C6")
        )
        assert sum(attr.floor_ns_by_state.values()) == idle_ns
        # The merged per-mode energy dict is itself conserved.
        assert sum(record.energy_by_mode_j.values()) == pytest.approx(
            record.energy_j, abs=1e-9
        )

    def test_energy_accounting_does_not_perturb_results(self):
        base = frontend_config(n_shards=2)
        plain = run_datacenter(base, jobs=1)
        observed = run_datacenter(base, jobs=1, energy_attribution=True)
        a = plain.record.to_json_dict()
        b = observed.record.to_json_dict()
        assert a.pop("energy_attribution") == {}
        assert b.pop("energy_attribution")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestTraceContent:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_datacenter(
            frontend_config(n_shards=2), jobs=1, trace_requests=64,
        )

    def test_sampled_requests_telescope_end_to_end(self, traced):
        bundle = traced.trace
        assert bundle.sampled_total == len(bundle.traces)
        for trace in bundle.traces:
            marks = trace.markers()
            # Frontend stamps plus the full server datapath and reply.
            for marker in ("decision", "send", "arrival", "dma",
                           "delivered", "service", "reply", "reply_recv"):
                assert marker in marks, (trace.trace_id, marker)
            assert marks["decision"] < marks["send"] < marks["arrival"]
            assert marks["arrival"] <= marks["dma"] <= marks["delivered"]
            assert marks["delivered"] <= marks["service"] <= marks["reply"]
            assert marks["reply"] < marks["reply_recv"]

    def test_hop_summary_and_table(self, traced):
        summary = traced.trace.hop_summary()
        n = len(traced.trace)
        for name, _, _ in HOPS:
            assert summary[name]["count"] == n
            assert summary[name]["min_ns"] <= summary[name]["mean_ns"]
            assert summary[name]["mean_ns"] <= summary[name]["max_ns"]
        # dispatch latency is exact by construction
        assert summary["dispatch"]["min_ns"] == 1 * MS
        assert summary["dispatch"]["max_ns"] == 1 * MS
        table = format_hop_table(traced.trace)
        assert "rtt" in table and "nic_dma" in table
        assert f"{n} sampled request" in table

    def test_chrome_export_lanes_and_metadata(self, traced):
        shard_of_server = {
            i: s.shard_index for s in traced.shards for i in s.server_indices
        }
        events = fleet_trace_events(traced.trace, shard_of_server)
        pids = {e["pid"] for e in events}
        assert FRONTEND_PID in pids
        assert {SHARD_PID_BASE, SHARD_PID_BASE + 1} <= pids
        names = {
            (e["pid"], e["args"]["name"])
            for e in events if e["name"] == "process_name"
        }
        assert (FRONTEND_PID, "frontend tier") in names
        assert (SHARD_PID_BASE, "shard 0") in names
        assert (SHARD_PID_BASE + 1, "shard 1") in names
        # every duration event is well-formed
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0.0

    def test_max_traces_cap_is_deterministic(self):
        base = frontend_config()
        capped = TraceConfig(sample_every=16, max_traces=5)
        serial = run_datacenter(base, jobs=1, trace_requests=capped)
        sharded = run_datacenter(
            replace(base, n_shards=4), jobs=2, trace_requests=capped
        )
        assert len(serial.trace) == 5
        assert serial.trace.sampled_total > 5
        assert (serial.trace.to_json_dict()
                == sharded.trace.to_json_dict())

    def test_bundle_round_trip(self, traced):
        data = traced.trace.to_json_dict()
        clone = FleetTraceBundle.from_json_dict(data)
        assert clone.to_json_dict() == data


class TestFleetProfile:
    def make_profile(self) -> FleetProfile:
        profile = FleetProfile(n_shards=2, n_slots=2)
        # Window 0: shard 1 straggles; window 1: shard 0 straggles.
        profile.record(WindowSample(
            index=0, t_start_ns=0, t_end_ns=1000,
            plan_s=0.01, advance_s=0.32, observe_s=0.01,
            shard_wall_s={0: 0.1, 1: 0.3},
            shard_events={0: 100, 1: 300}, injections=4,
        ))
        profile.record(WindowSample(
            index=1, t_start_ns=1000, t_end_ns=2000,
            plan_s=0.01, advance_s=0.22, observe_s=0.01,
            shard_wall_s={0: 0.2, 1: 0.1},
            shard_events={0: 200, 1: 100}, injections=2,
        ))
        return profile

    def test_derived_metrics(self):
        profile = self.make_profile()
        assert profile.critical_path_s == pytest.approx(0.5)
        assert profile.total_shard_wall_s == pytest.approx(0.7)
        # totals: shard0 = 0.3, shard1 = 0.4; mean = 0.35
        assert profile.load_imbalance_factor == pytest.approx(0.4 / 0.35)
        assert profile.speedup_bound == pytest.approx(0.7 / 0.5)
        assert profile.straggler_windows == {0: 1, 1: 1}
        shares = profile.critical_path_share
        assert shares[1] == pytest.approx(0.3 / 0.5)
        assert shares[0] == pytest.approx(0.2 / 0.5)
        # capacity: 2 * (0.3 + 0.2) = 1.0; busy = 0.7
        assert profile.pool_slot_utilization == pytest.approx(0.7)
        coord = profile.coordinator_s
        assert coord["plan_s"] == pytest.approx(0.02)
        assert coord["barrier_wait_s"] == pytest.approx(0.04)

    def test_report_and_json(self):
        profile = self.make_profile()
        report = format_fleet_profile(profile, measured_speedup=1.23)
        assert "load-imbalance factor" in report
        assert "speedup bound" in report
        assert "(measured 1.23x)" in report
        assert "pool-slot utilization" in report
        data = profile.to_json_dict()
        assert data["n_windows"] == 2
        assert data["shards"]["1"]["straggler_windows"] == 1
        assert data["windows"][0]["straggler"] == 1

    def test_window_trace_events(self):
        events = window_trace_events(self.make_profile())
        spans = [e for e in events if e["ph"] == "X"]
        # 3 coordinator phases + 2 shard spans, per window
        assert len(spans) == 2 * (3 + 2)
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert {"coordinator", "shard 0", "shard 1"} <= names

    def test_real_run_populates_profile(self):
        result = run_datacenter(
            frontend_config(n_shards=2), jobs=1, profile_fleet=True,
        )
        profile = result.fleet_profile
        assert profile is not None
        assert len(profile.windows) == 40  # 40ms run / 1ms windows
        assert profile.total_shard_wall_s > 0
        assert profile.speedup_bound >= 1.0
        assert set(profile.shard_wall_totals) == {0, 1}


class TestRunMonitor:
    def test_heartbeats_and_jsonl(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        clock = iter(float(i) for i in range(100))
        monitor = RunMonitor(path, interval_s=0.0, clock=clock.__next__)
        result = run_datacenter(
            frontend_config(n_shards=2), jobs=1, monitor=monitor,
        )
        assert result.record is not None
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
        ]
        assert lines[0]["type"] == "begin"
        assert lines[0]["n_windows"] == 40
        assert lines[-1]["type"] == "end"
        beats = [l for l in lines if l["type"] == "heartbeat"]
        assert beats
        last = beats[-1]
        assert last["windows_done"] == 40
        assert last["sim_ns"] == frontend_config().end_ns
        assert last["straggler"] in (0, 1)
        assert set(last["shard_events_per_s"]) == {"0", "1"}
        assert last["events_total"] > 0
        # ETA falls to ~0 by the final window
        assert last["eta_s"] == pytest.approx(0.0, abs=1e-6)

    def test_interval_throttling(self):
        clock = iter([0.0, 0.0] + [0.1 * i for i in range(1, 200)])
        monitor = RunMonitor("-", interval_s=10.0, clock=clock.__next__)
        monitor._fh = None  # keep stderr clean; emitted list still fills
        monitor._t0 = 0.0
        monitor._last_emit = -10.0
        monitor._end_ns = 100
        monitor._n_windows = 100
        for i in range(99):
            monitor.on_window(
                index=i, t_end_ns=i + 1, shard_wall_s={0: 0.1},
                shard_events={0: 10}, events_total=10 * (i + 1),
            )
        beats = [p for p in monitor.emitted if p["type"] == "heartbeat"]
        # 0.1s per window at a 10s interval: only the first beats emit
        assert 1 <= len(beats) < 20

    def test_eta_null_when_first_window_beats_the_clock(self):
        # A first window that completes inside one clock tick (elapsed
        # 0.0) has no extrapolation basis: eta_s must be null, never inf
        # or a division artifact.
        clock = iter([0.0, 0.0]).__next__  # begin() and on_window() agree
        monitor = RunMonitor("-", interval_s=1.0, clock=clock)
        monitor._fh = None
        monitor._t0 = 0.0
        monitor._last_emit = -1.0
        monitor._end_ns = 40 * MS
        monitor._n_windows = 40
        monitor.on_window(
            index=0, t_end_ns=1 * MS, shard_wall_s={0: 0.0},
            shard_events={0: 0}, events_total=0,
        )
        [beat] = [p for p in monitor.emitted if p["type"] == "heartbeat"]
        assert beat["eta_s"] is None
        assert beat["elapsed_s"] == 0.0

    def test_eta_finite_with_zero_windows_and_end(self):
        # A degenerate run (n_windows == 0, end_ns == 0) must not divide
        # by zero, report inf, or flood every window as "the last one".
        clock = iter(float(i) for i in range(1, 100)).__next__
        monitor = RunMonitor("-", interval_s=100.0, clock=clock)
        monitor._fh = None
        monitor._t0 = 0.0
        monitor._last_emit = -100.0
        monitor._end_ns = 0
        monitor._n_windows = 0
        for i in range(5):
            monitor.on_window(
                index=i, t_end_ns=0, shard_wall_s={}, shard_events={},
                events_total=0,
            )
        beats = [p for p in monitor.emitted if p["type"] == "heartbeat"]
        assert len(beats) == 1  # interval throttling still applies
        assert beats[0]["eta_s"] == 0.0  # frac clamps to 1.0: done
        assert beats[0]["straggler"] is None
        for beat in beats:
            assert beat["eta_s"] is None or math.isfinite(beat["eta_s"])

    def test_eta_clamped_when_sim_time_overshoots_end(self):
        # The final window can overshoot end_ns (burst tails); frac must
        # clamp to 1.0 so the ETA lands at 0, never negative.
        clock = iter([5.0]).__next__
        monitor = RunMonitor("-", interval_s=1.0, clock=clock)
        monitor._fh = None
        monitor._t0 = 0.0
        monitor._last_emit = -1.0
        monitor._end_ns = 40 * MS
        monitor._n_windows = 40
        monitor.on_window(
            index=39, t_end_ns=41 * MS, shard_wall_s={0: 1.0},
            shard_events={0: 10}, events_total=10,
        )
        [beat] = [p for p in monitor.emitted if p["type"] == "heartbeat"]
        assert beat["eta_s"] == 0.0

    def test_resolve_monitor_variants(self):
        assert resolve_monitor(None) is None
        assert resolve_monitor(False) is None
        assert isinstance(resolve_monitor(True), RunMonitor)
        assert isinstance(resolve_monitor("/tmp/x.jsonl"), RunMonitor)
        monitor = RunMonitor("-")
        assert resolve_monitor(monitor) is monitor
        with pytest.raises(TypeError, match="monitor"):
            resolve_monitor(42)


class TestLaneMetadata:
    def test_helper_shapes(self):
        events = lane_metadata_events(7, "my proc", {0: "a", 2: "b"})
        assert events[0] == {
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": 7, "tid": 0, "args": {"name": "my proc"},
        }
        assert [e["args"]["name"] for e in events[1:]] == ["a", "b"]


class TestReportsAndDashboard:
    def test_fleet_report_gains_loop_health_columns(self):
        from repro.experiments.datacenter import format_fleet_report

        result = run_datacenter(
            frontend_config(n_shards=2), jobs=1, profile=True,
        )
        report = format_fleet_report(result)
        assert "loop ev/s" in report
        assert "peak RSS (MB)" in report
        # profiled runs fill the columns with real numbers, not dashes
        shard_lines = [
            line for line in report.splitlines()
            if line.startswith("0 ") or line.startswith("1 ")
        ]
        assert shard_lines
        assert not any("| -" in line for line in shard_lines)

    def test_dashboard_imbalance_panel_and_trace_links(self):
        from repro.viz import dashboard_from_datacenter

        result = run_datacenter(
            frontend_config(n_shards=2), jobs=1,
            record_timeseries="coarse", trace_requests=64,
            profile_fleet=True,
        )
        page = dashboard_from_datacenter(
            result, title="fleet", trace_path="fleet_trace.json"
        )
        assert "Shard wall time (imbalance)" in page
        assert "shard 0" in page and "shard 1" in page
        assert "traced request" in page
        assert 'href="fleet_trace.json"' in page
        assert result.trace.traces[0].trace_id in page
