"""O(1)-memory streaming percentile sketch.

:class:`StreamingSketch` is a t-digest-style merging sketch (Dunning &
Ertl): a bounded set of centroids sized by a ``q(1-q)`` scale function,
so resolution concentrates at the tails — exactly where tail-latency
attribution needs it.  It answers arbitrary quantiles with exact
count/mean/min/max, in bounded memory regardless of stream length.

The attribution sink (:class:`~repro.analysis.attribution.AttributionSink`)
picks its tail thresholds from a sketch of request totals.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


class StreamingSketch:
    """t-digest-style quantile sketch with exact moments.

    Memory is bounded by ``max_centroids`` + the insertion buffer; count,
    mean, min and max are exact, quantiles are approximate with relative
    rank error shrinking toward the tails (the ``q(1-q)`` size limit keeps
    tail centroids near weight 1).
    """

    def __init__(self, max_centroids: int = 128, buffer_size: int = 512):
        if max_centroids < 8:
            raise ValueError("max_centroids must be at least 8")
        self.max_centroids = max_centroids
        self.buffer_size = buffer_size
        self._centroids: List[Tuple[float, float]] = []  # (mean, weight), sorted
        self._buffer: List[float] = []
        self.count = 0
        self._sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    # -- ingestion ---------------------------------------------------------

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        self._sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        self._buffer.append(x)
        if len(self._buffer) >= self.buffer_size:
            self._flush()

    def extend(self, values: Iterable[float]) -> None:
        for x in values:
            self.add(x)

    def _flush(self) -> None:
        if not self._buffer:
            return
        points = [(x, 1.0) for x in sorted(self._buffer)]
        self._buffer = []
        merged = sorted(self._centroids + points)
        self._centroids = self._compress(merged)

    def _compress(self, points: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
        total = sum(w for _, w in points)
        if total <= 0:
            return []
        # The q(1-q) scale function alone admits O(log n) centroids (the
        # per-centroid budget shrinks below 1 at the tails); re-compress
        # with a doubled scale until the hard budget holds.
        scale = 1.0
        while True:
            out = self._one_pass(points, total, scale)
            if len(out) <= self.max_centroids:
                return out
            points = out
            scale *= 2.0

    def _one_pass(
        self, points: List[Tuple[float, float]], total: float, scale: float
    ) -> List[Tuple[float, float]]:
        out: List[Tuple[float, float]] = []
        cur_mean, cur_w = points[0]
        cum = 0.0
        for mean, w in points[1:]:
            q = (cum + (cur_w + w) / 2.0) / total
            limit = max(
                1.0, scale * 4.0 * total * q * (1.0 - q) / self.max_centroids
            )
            if cur_w + w <= limit:
                merged_w = cur_w + w
                cur_mean = (cur_mean * cur_w + mean * w) / merged_w
                cur_w = merged_w
            else:
                out.append((cur_mean, cur_w))
                cum += cur_w
                cur_mean, cur_w = mean, w
        out.append((cur_mean, cur_w))
        return out

    # -- queries ------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be within [0, 100]")
        if self.count == 0:
            return float("nan")
        self._flush()
        if q <= 0.0 or self.count == 1:
            return self.min
        if q >= 100.0:
            return self.max
        # Anchor points: (cumulative rank at centroid midpoint, mean),
        # with min/max pinning the extremes.
        anchors: List[Tuple[float, float]] = [(0.0, self.min)]
        cum = 0.0
        for mean, w in self._centroids:
            anchors.append((cum + w / 2.0, mean))
            cum += w
        anchors.append((float(self.count), self.max))
        target = q / 100.0 * self.count
        for (r0, v0), (r1, v1) in zip(anchors, anchors[1:]):
            if target <= r1:
                if r1 == r0:
                    return v1
                frac = (target - r0) / (r1 - r0)
                return v0 + frac * (v1 - v0)
        return self.max

    def centroid_count(self) -> int:
        self._flush()
        return len(self._centroids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingSketch(count={self.count}, centroids="
            f"{len(self._centroids)}+{len(self._buffer)} buffered)"
        )
