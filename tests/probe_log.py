"""A probe-bus sink that keeps every event, for exact per-event checks."""

from collections import defaultdict
from typing import Dict, List, Optional

DEFAULT_POINTS = ("cpu.pstate", "cpu.cstate", "nic.rx", "nic.tx", "ncap.wake")


class ProbeLog:
    """Records every event of the named probe points, in emission order.

    Attach it (``sinks=[log]`` or ``telemetry.add_sink(log)``) before the
    components are built so construction-time events are kept too.
    """

    def __init__(self, points=DEFAULT_POINTS):
        self.points = tuple(points)
        self.events: Dict[str, List[object]] = defaultdict(list)

    def attach(self, telemetry) -> None:
        for name in self.points:
            telemetry.probes.subscribe(name, self.events[name].append)

    def freq_ghz_at(self, t_ns: int, domain: str = "server.cpu") -> Optional[float]:
        """The frequency set by the last P-state change at or before ``t_ns``."""
        value = None
        for event in self.events["cpu.pstate"]:
            if event.t_ns > t_ns:
                break
            if event.domain == domain:
                value = event.freq_hz / 1e9
        return value

    def cstate_steps(self, core_id: int) -> List[float]:
        """One core's C-state index per transition (0 = awake)."""
        return [
            0 if event.phase == "wake" else event.index
            for event in self.events["cpu.cstate"]
            if event.core_id == core_id
        ]
