"""ReqMonitor — hardware detection of latency-critical requests.

Section 4.1 of the paper: the payload of a received TCP packet starts at
byte 66; ReqMonitor compares the first bytes of the payload against a set
of templates held in programmable NIC registers (written through sysfs by
the driver's initialization subroutine).  Matching packets increment
``ReqCnt``; non-matching traffic — PUT/set requests, bulk analytics
transfers, VM-migration streams — is deliberately ignored, which is the
"context-aware" part of NCAP.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.packet import Frame
from repro.telemetry import Telemetry, ensure_telemetry


class ReqMonitor:
    """Payload-template matcher with a request counter."""

    #: Hardware register width: templates longer than this are truncated.
    TEMPLATE_REGISTER_BYTES = 8

    def __init__(
        self,
        templates: Sequence[bytes] = (b"GET", b"get"),
        telemetry: Optional[Telemetry] = None,
        stats_prefix: str = "ncap",
    ):
        self._templates: Tuple[bytes, ...] = ()
        self.program_templates(templates)
        self.telemetry = ensure_telemetry(telemetry)
        stats = self.telemetry.scope(stats_prefix)
        self._req_cnt = stats.counter("classified.lc")
        self._inspected = stats.counter("inspected")
        #: Called after every ReqCnt increment (DecisionEngine's CIT check).
        self.count_listeners: List[Callable[[], None]] = []

    @property
    def req_cnt(self) -> int:
        """Latency-critical requests seen (the paper's ReqCnt register)."""
        return int(self._req_cnt.value)

    @property
    def packets_inspected(self) -> int:
        return int(self._inspected.value)

    # -- programming ---------------------------------------------------

    def program_templates(self, templates: Sequence[bytes]) -> None:
        """Load the template registers (sysfs-facing operation)."""
        cleaned = tuple(
            bytes(t)[: self.TEMPLATE_REGISTER_BYTES] for t in templates if t
        )
        if not cleaned:
            raise ValueError("at least one non-empty template is required")
        self._templates = cleaned

    @property
    def templates(self) -> Tuple[bytes, ...]:
        return self._templates

    # -- inspection ------------------------------------------------------

    def matches(self, payload_prefix: bytes) -> bool:
        """Would a packet with this payload prefix count as a request?"""
        return payload_prefix.startswith(self._templates)

    def inspect(self, frame: Frame) -> bool:
        """Inspect one received frame (hardware tap, wire-rate).

        Returns True (and bumps ReqCnt) for latency-critical requests.
        """
        self._inspected.inc()
        if not self.matches(frame.payload_prefix):
            return False
        self._req_cnt.inc()
        for listener in self.count_listeners:
            listener()
        return True
