"""Probe subscribers: the Chrome-trace exporter.

:class:`ChromeTraceSink` assembles Chrome Trace Event Format / Perfetto
JSON: C-state residency as complete (``"X"``) duration events per core
track, P-state changes as counter (``"C"``) events, governor decisions
and NCAP wakes as instants, and per-request lifecycles as async
(``"b"``/``"n"``/``"e"``) spans keyed by client and request id.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, TYPE_CHECKING, Tuple

from repro.telemetry.events import (
    CStateTransition,
    GovernorDecision,
    NcapWake,
    PStateChange,
    RequestPhase,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

#: ``server.cpu`` and ``server.cpu.domain3`` both belong to node ``server``.
_DOMAIN_STEM = re.compile(r"\.cpu(\.domain\d+)?$")


def node_of_domain(domain: str) -> str:
    """The node label a clock-domain name belongs to."""
    return _DOMAIN_STEM.sub("", domain)


class ChromeTraceSink:
    """Collects probe events as Chrome Trace Event Format JSON.

    The output loads in ``chrome://tracing`` and https://ui.perfetto.dev.
    Timestamps are microseconds (the format's unit); every event carries
    the required ``ph``/``ts``/``pid``/``tid``/``name`` keys.  Every event
    sits in one process lane, pid :attr:`PID`, named :attr:`PROCESS_NAME`.
    """

    PID = 1
    PROCESS_NAME = "repro-sim"

    def __init__(self) -> None:
        self._events: List[Dict[str, Any]] = []
        #: (domain, core_id) -> (enter_ns, state_name) for open C-state spans
        self._open_cstates: Dict[Tuple[str, int], Tuple[int, str]] = {}
        self._open_spans: Dict[str, int] = {}
        self._tids_seen: Dict[int, str] = {}
        self._last_ns: int = 0

    def attach(self, telemetry: "Telemetry") -> None:
        bus = telemetry.probes
        bus.subscribe("cpu.cstate", self._on_cstate)
        bus.subscribe("cpu.pstate", self._on_pstate)
        bus.subscribe("governor.decision", self._on_decision)
        bus.subscribe("ncap.wake", self._on_wake)
        bus.subscribe("request.span", self._on_request)

    # -- event assembly --------------------------------------------------

    def _add(self, event: Dict[str, Any], t_ns: int, tid: int, label: str = "") -> None:
        event["pid"] = self.PID
        event["tid"] = tid
        event["ts"] = t_ns / 1e3
        self._events.append(event)
        if t_ns > self._last_ns:
            self._last_ns = t_ns
        if tid not in self._tids_seen:
            self._tids_seen[tid] = label or f"track{tid}"

    def _on_cstate(self, event: CStateTransition) -> None:
        key = (event.domain, event.core_id)
        tid = event.core_id
        open_span = self._open_cstates.pop(key, None)
        if open_span is not None:
            start_ns, state = open_span
            self._add(
                {
                    "name": state,
                    "cat": "cstate",
                    "ph": "X",
                    "dur": (event.t_ns - start_ns) / 1e3,
                    "args": {"domain": event.domain},
                },
                start_ns,
                tid,
                label=f"core{event.core_id}",
            )
        if event.phase in ("enter", "promote"):
            self._open_cstates[key] = (event.t_ns, event.state)
            self._last_ns = max(self._last_ns, event.t_ns)

    def _on_pstate(self, event: PStateChange) -> None:
        ghz = event.freq_hz / 1e9
        self._add(
            {
                "name": f"{event.domain}.freq_ghz",
                "cat": "pstate",
                "ph": "C",
                "args": {"GHz": ghz},
            },
            event.t_ns,
            0,
            label="package",
        )
        self._add(
            {
                "name": f"P{event.index}",
                "cat": "pstate",
                "ph": "i",
                "s": "g",
                "args": {"domain": event.domain, "GHz": ghz},
            },
            event.t_ns,
            0,
            label="package",
        )

    def _on_decision(self, event: GovernorDecision) -> None:
        self._add(
            {
                "name": f"governor.{event.governor}",
                "cat": "governor",
                "ph": "i",
                "s": "t",
                "args": {"choice": event.choice, "value": event.value},
            },
            event.t_ns,
            event.core_id if event.core_id is not None else 0,
        )

    def _on_wake(self, event: NcapWake) -> None:
        self._add(
            {
                "name": f"ncap.wake.{event.cause}",
                "cat": "ncap",
                "ph": "i",
                "s": "p",
                "args": {"engine": event.engine},
            },
            event.t_ns,
            0,
        )

    def _on_request(self, event: RequestPhase) -> None:
        span_id = event.span_id
        base = {"cat": "request", "id": span_id, "args": {"src": event.src}}
        if event.phase == "arrival":
            self._open_spans[span_id] = event.t_ns
            self._add({"name": "request", "ph": "b", **base}, event.t_ns, 0)
        elif event.phase in ("reply", "dropped"):
            self._add({"name": event.phase, "ph": "n", **base}, event.t_ns, 0)
            if self._open_spans.pop(span_id, None) is not None:
                self._add({"name": "request", "ph": "e", **base}, event.t_ns, 0)
        else:
            self._add({"name": event.phase, "ph": "n", **base}, event.t_ns, 0)

    # -- wall-clock lane -------------------------------------------------

    def add_profile(self, profile) -> None:
        """Merge a simulator self-profile as a wall-clock lane (pid 2).

        ``profile`` is a :class:`~repro.profiling.profiler.LoopProfile`;
        its throughput checkpoints and top-handler bar render on a
        separate process track so wall microseconds are never conflated
        with the simulated-time lanes.
        """
        from repro.profiling.export import wall_clock_trace_events

        self._events.extend(wall_clock_trace_events(profile))

    # -- export ----------------------------------------------------------

    def trace_events(self) -> List[Dict[str, Any]]:
        """All collected events, with still-open spans closed at the end."""
        out = list(self._events)
        for (domain, core_id), (start_ns, state) in sorted(self._open_cstates.items()):
            out.append(
                {
                    "name": state,
                    "cat": "cstate",
                    "ph": "X",
                    "ts": start_ns / 1e3,
                    "dur": max(0.0, (self._last_ns - start_ns) / 1e3),
                    "pid": self.PID,
                    "tid": core_id,
                    "args": {"domain": domain},
                }
            )
        for span_id, start_ns in sorted(self._open_spans.items()):
            out.append(
                {
                    "name": "request",
                    "cat": "request",
                    "ph": "e",
                    "ts": self._last_ns / 1e3,
                    "pid": self.PID,
                    "tid": 0,
                    "id": span_id,
                    "args": {},
                }
            )
        from repro.telemetry.tracing import lane_metadata_events

        out.extend(
            lane_metadata_events(self.PID, self.PROCESS_NAME, self._tids_seen)
        )
        return out

    def to_json_dict(self) -> Dict[str, Any]:
        return {"traceEvents": self.trace_events(), "displayTimeUnit": "ns"}

    def write(self, path: str) -> int:
        """Write the trace JSON; returns the number of trace events."""
        payload = self.to_json_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return len(payload["traceEvents"])
