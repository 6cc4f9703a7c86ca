"""Tests for probe points and the probe bus."""

import re
from pathlib import Path

import repro
from repro.telemetry import (
    CStateTransition,
    PStateChange,
    ProbeBus,
    ProbePoint,
    Telemetry,
)
from tests.probe_log import DEFAULT_POINTS


class TestProbePoint:
    def test_disabled_without_subscribers(self):
        point = ProbePoint("cpu.cstate")
        assert not point.enabled
        assert not point

    def test_subscribe_enables_and_delivers(self):
        point = ProbePoint("cpu.cstate")
        seen = []
        point.subscribe(seen.append)
        assert point.enabled
        event = CStateTransition(10, "cpu", 0, "C6", 3, "enter")
        point.emit(event)
        assert seen == [event]

    def test_unsubscribe_disables_when_last_leaves(self):
        point = ProbePoint("p")
        a, b = [], []
        point.subscribe(a.append)
        point.subscribe(b.append)
        # A fresh bound-method object must still match (equality, not
        # identity).
        point.unsubscribe(a.append)
        assert point.enabled
        point.unsubscribe(b.append)
        assert not point.enabled

    def test_duplicate_subscribe_is_noop(self):
        point = ProbePoint("p")
        seen = []
        point.subscribe(seen.append)
        point.subscribe(seen.append)
        point.emit("x")
        assert seen == ["x"]


class TestProbeBus:
    def test_point_is_idempotent(self):
        bus = ProbeBus()
        assert bus.point("nic.rx") is bus.point("nic.rx")

    def test_exact_subscription_applies_to_future_points(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("cpu.pstate", seen.append)
        point = bus.point("cpu.pstate")  # created after subscribing
        assert point.enabled
        point.emit(PStateChange(0, "cpu", 0, 3.1e9))
        assert len(seen) == 1

    def test_prefix_pattern_matches_subtree_only(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("ncap.*", seen.append)
        bus.point("ncap.wake").emit("wake")
        bus.point("ncap.classify").emit("classify")
        bus.point("nic.rx").emit("rx")
        assert seen == ["wake", "classify"]

    def test_star_matches_everything(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.point("a").emit(1)
        bus.point("b.c").emit(2)
        assert seen == [1, 2]

    def test_unsubscribe_detaches_everywhere(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("*", seen.append)
        point = bus.point("x")
        bus.unsubscribe(seen.append)
        assert not point.enabled
        # ...including points created later.
        assert not bus.point("y").enabled

    def test_unsubscribe_leaves_other_subscribers_attached(self):
        bus = ProbeBus()
        wildcard, exact, prefixed = [], [], []
        bus.subscribe("*", wildcard.append)
        bus.subscribe("cpu.cstate", exact.append)
        bus.subscribe("cpu.*", prefixed.append)
        point = bus.point("cpu.cstate")

        bus.unsubscribe(exact.append)
        assert point.enabled
        point.emit("evt")
        assert wildcard == ["evt"]
        assert prefixed == ["evt"]
        assert exact == []

    def test_unsubscribe_removes_all_patterns_of_one_fn(self):
        # One callable subscribed under several patterns: a single
        # unsubscribe must detach every registration (and deliver each
        # event at most once while subscribed).
        bus = ProbeBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.subscribe("cpu.*", seen.append)
        bus.subscribe("cpu.cstate", seen.append)
        point = bus.point("cpu.cstate")
        point.emit("first")
        bus.unsubscribe(seen.append)
        point.emit("second")
        assert not point.enabled
        assert not bus.point("cpu.pstate").enabled
        assert "second" not in seen

    def test_unsubscribe_unknown_fn_is_noop(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.unsubscribe(print)  # never subscribed
        point = bus.point("a")
        point.emit(1)
        assert seen == [1]


class TestTelemetryFacade:
    def test_probe_and_stats_share_the_instance(self):
        telemetry = Telemetry()
        probe = telemetry.probe("nic.rx")
        assert telemetry.probes.point("nic.rx") is probe
        counter = telemetry.counter("nic.rx.frames")
        assert telemetry.stats.value("nic.rx.frames") == counter.value


SRC = Path(repro.__file__).parent
PROBE_LITERAL = re.compile(r"""\.probe\(\s*["']([^"']+)["']""")
SUBSCRIBE_LITERAL = re.compile(r"""subscribe\(\s*["']([^"']+)["']""")


def _literal_names(pattern) -> dict:
    """Name -> first module under ``src/repro`` where ``pattern`` names it."""
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in pattern.findall(path.read_text(encoding="utf-8")):
            found.setdefault(name, path.relative_to(SRC).as_posix())
    return found


class TestEveryProbeHasASubscriber:
    def test_every_probe_point_is_subscribed(self):
        # A probe point nothing subscribes to is an observer without a
        # consumer.  Consumers are the package's own sinks and the test
        # suite's probe log, which reads nic.rx/nic.tx as an oracle.
        probes = _literal_names(PROBE_LITERAL)
        assert "request.span" in probes  # the scan sees the model
        subscribed = set(_literal_names(SUBSCRIBE_LITERAL)) | set(DEFAULT_POINTS)
        unsubscribed = {
            name: where for name, where in probes.items() if name not in subscribed
        }
        assert not unsubscribed, f"probe points without a subscriber: {unsubscribed}"
