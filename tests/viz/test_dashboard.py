"""Dashboard tests: panel layout, HTML well-formedness, series parity."""

import json
from html.parser import HTMLParser

import pytest

from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.sim.units import MS
from repro.telemetry.recorder import SeriesData, TimeseriesBundle
from repro.viz import (
    dashboard_from_result,
    render_dashboard,
    standard_panels,
    write_dashboard,
)
from tests.probe_log import ProbeLog

VOID_TAGS = {"meta", "br", "hr", "img", "input", "link", "rect", "line",
             "path", "circle", "text"}


class _StructureParser(HTMLParser):
    """Counts dashboard structure and checks tag balance."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.svg_panels = 0
        self.series_paths = 0
        self.tables = 0
        self.legends = 0
        self.errors = []

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        cls = attrs.get("class", "")
        if tag == "svg" and "panel-svg" in cls:
            self.svg_panels += 1
        if tag == "path" and cls.startswith("line"):
            self.series_paths += 1
        if tag == "table":
            self.tables += 1
        if tag == "span" and cls == "legend":
            self.legends += 1
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag not in VOID_TAGS:
            self.stack.pop()

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}> (stack: {self.stack[-3:]})")
        else:
            self.stack.pop()


def _parse(page: str) -> _StructureParser:
    parser = _StructureParser()
    parser.feed(page)
    assert not parser.errors, parser.errors
    assert not parser.stack, f"unclosed tags: {parser.stack}"
    return parser


def _synthetic_bundle() -> TimeseriesBundle:
    times = [i * MS for i in range(1, 21)]
    return TimeseriesBundle(
        interval_ns=MS,
        start_ns=0,
        end_ns=20 * MS,
        series=[
            SeriesData("cpu.freq_ghz", "gauge", 1, list(times),
                       [1.2 + 0.1 * (i % 4) for i in range(20)]),
            SeriesData("core0.cstate", "gauge", 1, list(times),
                       [float(i % 3) for i in range(20)]),
            SeriesData("cpu.util", "gauge", 1, list(times),
                       [0.05 * (i % 10) for i in range(20)]),
            SeriesData("power.watts", "gauge", 1, list(times),
                       [20.0 + i for i in range(20)]),
            SeriesData("nic.rx.bytes", "counter", 1, list(times),
                       [float(1500 * i) for i in range(20)]),
        ],
    )


class TestRenderDashboard:
    def test_structure_and_alignment(self):
        page = render_dashboard(_synthetic_bundle(), title="t")
        parser = _parse(page)
        assert parser.svg_panels >= 4
        assert parser.tables == parser.svg_panels  # a table view per panel
        # Aligned panels share one x-domain: every svg gets the same
        # embedded geometry.
        payload = json.loads(
            page.split('id="dash-data" type="application/json">')[1]
            .split("</script>")[0]
        )
        assert payload["t0"] < payload["t1"]
        assert {"Frequency", "C-state", "Utilization", "Power"} <= {
            p["title"] for p in payload["panels"]
        }

    def test_no_external_references(self):
        page = render_dashboard(_synthetic_bundle())
        for marker in ("http://", "https://", "src=", "href="):
            assert marker not in page

    def test_phase_shading(self):
        page = render_dashboard(
            _synthetic_bundle(),
            phases=[("warmup", 0, 5 * MS), ("measure", 5 * MS, 15 * MS),
                    ("drain", 15 * MS, 20 * MS)],
        )
        # warmup + drain washed on every panel; measure never is.
        parser = _parse(page)
        assert page.count('class="phase-wash"') == 2 * parser.svg_panels

    def test_empty_bundle_rejected(self):
        empty = TimeseriesBundle(interval_ns=MS, start_ns=0, end_ns=0)
        with pytest.raises(ValueError, match="no plottable series"):
            render_dashboard(empty)

    def test_counter_panels_render_rates(self):
        panels = standard_panels(_synthetic_bundle())
        network = next(p for p in panels if p.title == "Network")
        # 1500 B/ms = 12 Mb/s.
        assert network.series[0].points[0][1] == pytest.approx(12.0)


class TestFromExperiment:
    @pytest.fixture(scope="class")
    def run(self):
        config = ExperimentConfig(
            app="apache", policy="ond.idle", target_rps=24_000.0,
            warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=15 * MS,
            seed=4,
        )
        log = ProbeLog(points=("cpu.pstate",))
        result = run_experiment(config, record_timeseries="coarse", sinks=[log])
        return config, result, log

    def test_page_structure(self, run):
        config, result, log = run
        page = dashboard_from_result(result, config=config)
        parser = _parse(page)
        assert parser.svg_panels >= 4
        assert parser.series_paths >= 6
        assert parser.legends >= 2  # C-state cores, queues, network, ...
        assert "simulated time (ms)" in page

    def test_frequency_series_matches_trace_bin_for_bin(self, run):
        # Acceptance: the dashboard's frequency panel carries exactly the
        # frequency set by the last P-state transition at every recorder bin.
        config, result, log = run
        page = dashboard_from_result(result, config=config)
        payload = json.loads(
            page.split('id="dash-data" type="application/json">')[1]
            .split("</script>")[0]
        )
        freq_panel = next(p for p in payload["panels"] if p["title"] == "Frequency")
        series = freq_panel["series"][0]
        assert len(series["times"]) >= 30
        for t_ms, value in zip(series["times"], series["values"]):
            expected = log.freq_ghz_at(int(t_ms * 1e6))
            assert value == pytest.approx(expected, abs=5e-7)

    def test_requires_timeseries(self):
        class Hollow:
            timeseries = None

        with pytest.raises(ValueError, match="record_timeseries"):
            dashboard_from_result(Hollow())

    def test_write_dashboard(self, run, tmp_path):
        config, result, log = run
        path = str(tmp_path / "out" / "dash.html")
        page = dashboard_from_result(result, config=config)
        assert write_dashboard(page, path) == path
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == page
