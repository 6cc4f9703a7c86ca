"""Tests for the probe sinks: Chrome-trace assembly."""

from repro.telemetry import (
    ChromeTraceSink,
    CStateTransition,
    GovernorDecision,
    NcapWake,
    PStateChange,
    RequestPhase,
    Telemetry,
    node_of_domain,
)


def test_node_of_domain():
    assert node_of_domain("server.cpu") == "server"
    assert node_of_domain("server.cpu.domain3") == "server"
    assert node_of_domain("other") == "other"


class TestChromeTraceSink:
    def make(self):
        telemetry = Telemetry()
        sink = ChromeTraceSink()
        telemetry.add_sink(sink)
        return telemetry, sink

    def test_cstate_becomes_complete_span(self):
        telemetry, sink = self.make()
        probe = telemetry.probe("cpu.cstate")
        probe.emit(CStateTransition(1_000, "server.cpu", 0, "C1", 1, "enter"))
        probe.emit(CStateTransition(5_000, "server.cpu", 0, "C1", 1, "wake"))
        spans = [e for e in sink.trace_events() if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "C1"
        assert spans[0]["ts"] == 1.0  # microseconds
        assert spans[0]["dur"] == 4.0

    def test_promotion_closes_and_reopens(self):
        telemetry, sink = self.make()
        probe = telemetry.probe("cpu.cstate")
        probe.emit(CStateTransition(0, "server.cpu", 0, "C1", 1, "enter"))
        probe.emit(CStateTransition(2_000, "server.cpu", 0, "C6", 3, "promote"))
        probe.emit(CStateTransition(9_000, "server.cpu", 0, "C6", 3, "wake"))
        spans = [e for e in sink.trace_events() if e["ph"] == "X"]
        assert [s["name"] for s in spans] == ["C1", "C6"]

    def test_open_spans_closed_at_trace_end(self):
        telemetry, sink = self.make()
        probe = telemetry.probe("cpu.cstate")
        probe.emit(CStateTransition(0, "server.cpu", 1, "C6", 3, "enter"))
        telemetry.probe("governor.decision").emit(
            GovernorDecision(10_000, "menu", 3, 123.0, core_id=1)
        )
        spans = [e for e in sink.trace_events() if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["dur"] == 10.0  # closed at the last-seen timestamp

    def test_request_span_lifecycle(self):
        telemetry, sink = self.make()
        probe = telemetry.probe("request.span")
        for t, phase in (
            (0, "arrival"), (10_000, "dma"), (20_000, "delivered"),
            (30_000, "service"), (90_000, "reply"),
        ):
            probe.emit(RequestPhase(t, "client0", 7, phase))
        events = [e for e in sink.trace_events() if e.get("id") == "client0/7"]
        phases = [e["ph"] for e in events]
        assert phases[0] == "b"
        assert phases[-1] == "e"
        assert phases.count("n") == 4

    def test_pstate_counter_event(self):
        telemetry, sink = self.make()
        telemetry.probe("cpu.pstate").emit(
            PStateChange(4_000, "server.cpu", 2, 2.2e9)
        )
        counters = [e for e in sink.trace_events() if e["ph"] == "C"]
        assert counters == [{
            "name": "server.cpu.freq_ghz", "cat": "pstate", "ph": "C",
            "args": {"GHz": 2.2}, "pid": 1, "tid": 0, "ts": 4.0,
        }]

    def test_every_event_has_required_keys(self):
        telemetry, sink = self.make()
        telemetry.probe("cpu.pstate").emit(PStateChange(0, "cpu", 0, 3.1e9))
        telemetry.probe("ncap.wake").emit(NcapWake(5, "ncap", "it_high"))
        required = {"ph", "ts", "pid", "tid", "name"}
        for event in sink.trace_events():
            assert required <= set(event)
