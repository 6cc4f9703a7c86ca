"""Unified telemetry: typed stats registry + probe points + sinks.

:class:`Telemetry` is the single object threaded through the simulation
layers.  It bundles

* a :class:`~repro.telemetry.registry.StatsRegistry` — declare-once typed
  counters/gauges/distributions under hierarchical names
  (``nic.rx.frames``, ``cpuidle.c6.entries``, ...), and
* a :class:`~repro.telemetry.probes.ProbeBus` — near-zero-overhead typed
  probe points (``cpu.cstate``, ``request.span``, ...) that sinks
  subscribe to.

Sinks (anything with ``attach(telemetry)``: the
:class:`~repro.telemetry.sinks.ChromeTraceSink` Perfetto exporter, the
invariant auditor, the attribution sink) attach via
:meth:`Telemetry.add_sink`.  With no sinks attached every probe point
stays disabled and the hot-path cost is a single attribute check.  Exact
per-event data comes from subscribing to the probe bus; 1 ms series come
from the flight recorder (:class:`~repro.telemetry.recorder.TimeSeriesRecorder`).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro import _lazy_exports
from repro.telemetry.probes import ProbeBus, ProbePoint
from repro.telemetry.registry import Counter, Distribution, Gauge, Scope, StatsRegistry

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".events": (
        "CStateTransition", "GovernorDecision", "IrqDelivered", "NcapWake", "NicRx",
        "NicTx", "ProbeEvent", "PStateChange", "RequestAccounting", "RequestPhase",
    ),
    ".probes": ("ProbeBus", "ProbePoint"),
    ".recorder": (
        "RecorderConfig", "TimeseriesBundle", "TimeSeriesRecorder",
        "resolve_recorder_config",
    ),
    ".registry": ("Counter", "Distribution", "Gauge", "Scope", "StatsRegistry"),
    ".sinks": ("ChromeTraceSink", "node_of_domain"),
    ".": ("Telemetry", "ensure_telemetry"),
})


class Telemetry:
    """Stats registry + probe bus + attached sinks, as one handle."""

    def __init__(self) -> None:
        self.stats = StatsRegistry()
        self.probes = ProbeBus()
        self.sinks: List[Any] = []

    # -- registry delegates ----------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.stats.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.stats.gauge(name)

    def distribution(self, name: str) -> Distribution:
        return self.stats.distribution(name)

    def scope(self, prefix: str) -> Scope:
        return Scope(self.stats, prefix)

    # -- probe delegates -------------------------------------------------

    def probe(self, name: str) -> ProbePoint:
        return self.probes.point(name)

    # -- sinks -----------------------------------------------------------

    def add_sink(self, sink: Any) -> Any:
        """Attach a sink (anything with ``attach(telemetry)``)."""
        sink.attach(self)
        self.sinks.append(sink)
        return sink


def ensure_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """``telemetry``, or a private instance for a standalone component."""
    return telemetry if telemetry is not None else Telemetry()
