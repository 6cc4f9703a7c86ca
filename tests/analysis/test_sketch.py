"""Streaming percentile sketch: accuracy and bounds."""

import numpy as np
import pytest

from repro.analysis.sketch import StreamingSketch


def lognormal_stream(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=12.0, sigma=0.8, size=n)


class TestStreamingSketch:
    def test_exact_moments(self):
        data = lognormal_stream(5_000)
        sketch = StreamingSketch()
        sketch.extend(data.tolist())
        assert sketch.count == data.size
        assert sketch.mean == pytest.approx(float(data.mean()))
        assert sketch.min == float(data.min())
        assert sketch.max == float(data.max())

    def test_centroid_count_is_bounded(self):
        sketch = StreamingSketch(max_centroids=64)
        sketch.extend(lognormal_stream(50_000).tolist())
        assert sketch.centroid_count() <= 64

    @pytest.mark.parametrize("q", [50, 90, 95, 99, 99.9])
    def test_quantile_accuracy(self, q):
        data = lognormal_stream(30_000)
        sketch = StreamingSketch()
        sketch.extend(data.tolist())
        exact = float(np.percentile(data, q))
        assert sketch.quantile(q) == pytest.approx(exact, rel=0.02)

    def test_extremes_are_exact(self):
        data = lognormal_stream(10_000)
        sketch = StreamingSketch()
        sketch.extend(data.tolist())
        assert sketch.quantile(0) == float(data.min())
        assert sketch.quantile(100) == float(data.max())

    def test_empty_and_singleton(self):
        sketch = StreamingSketch()
        assert np.isnan(sketch.quantile(50))
        sketch.add(42.0)
        assert sketch.quantile(50) == 42.0
        assert sketch.quantile(99) == 42.0

    def test_rejects_bad_quantile(self):
        sketch = StreamingSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(101)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            StreamingSketch(max_centroids=4)
