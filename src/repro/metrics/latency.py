"""Latency statistics: percentiles, SLA normalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass
class LatencyStats:
    """Percentile summary of a set of request latencies (ns)."""

    count: int
    mean_ns: float
    p50_ns: float
    p90_ns: float
    p95_ns: float
    p99_ns: float
    max_ns: float

    @classmethod
    def from_values(cls, values_ns: Sequence[float]) -> "LatencyStats":
        if len(values_ns) == 0:
            return cls(0, float("nan"), float("nan"), float("nan"),
                       float("nan"), float("nan"), float("nan"))
        arr = np.asarray(values_ns, dtype=np.float64)
        p50, p90, p95, p99 = np.percentile(arr, [50, 90, 95, 99])
        return cls(
            count=int(arr.size),
            mean_ns=float(arr.mean()),
            p50_ns=float(p50),
            p90_ns=float(p90),
            p95_ns=float(p95),
            p99_ns=float(p99),
            max_ns=float(arr.max()),
        )

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]).

        The canned percentiles (50/90/95/99) are returned directly; any
        other ``q`` is answered by monotone interpolation over the canned
        anchors and the max (with ``q`` below 50 clamped to p50 — the
        summary does not retain the lower half of the distribution), so
        live stats and stats rebuilt from a record agree.
        """
        table = {50: self.p50_ns, 90: self.p90_ns, 95: self.p95_ns, 99: self.p99_ns}
        key = int(q) if float(q).is_integer() else None
        if key in table:
            return table[key]
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if self.count == 0:
            return float("nan")
        anchors = [(50.0, self.p50_ns), (90.0, self.p90_ns),
                   (95.0, self.p95_ns), (99.0, self.p99_ns),
                   (100.0, self.max_ns)]
        if q <= 50.0:
            return self.p50_ns
        for (q0, v0), (q1, v1) in zip(anchors, anchors[1:]):
            if q <= q1:
                frac = (q - q0) / (q1 - q0)
                return v0 + frac * (v1 - v0)
        return self.max_ns

    def normalized_to(self, sla_ns: int) -> Dict[str, float]:
        """Percentiles as fractions of the SLA (the paper's presentation)."""
        if sla_ns <= 0:
            raise ValueError("SLA must be positive")
        return {
            "p50": self.p50_ns / sla_ns,
            "p90": self.p90_ns / sla_ns,
            "p95": self.p95_ns / sla_ns,
            "p99": self.p99_ns / sla_ns,
        }

    def meets_sla(self, sla_ns: int) -> bool:
        """SLA check on the 95th percentile (the paper's criterion)."""
        return self.count > 0 and self.p95_ns <= sla_ns
