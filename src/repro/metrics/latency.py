"""Round-trip latency collection: means, percentiles, CDFs.

Percentiles equal numpy's default ``'linear'`` ``numpy.percentile``
bit for bit, computed without numpy; the CDF picks the same sample
indices as ``numpy.linspace(0, n - 1, points)``.
"""

from __future__ import annotations

import math

from repro.sim.units import US


class LatencyRecorder:
    """Accumulates latency samples (nanoseconds)."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples: list[int] = []

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self._samples.append(latency_ns)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples_ns(self) -> list[int]:
        return list(self._samples)

    def _require_samples(self) -> list[int]:
        if not self._samples:
            raise ValueError(f"{self.name}: no samples recorded")
        return self._samples

    def mean_us(self) -> float:
        samples = self._require_samples()
        return (sum(samples) / len(samples)) / US

    def min_us(self) -> float:
        return min(self._require_samples()) / US

    def max_us(self) -> float:
        return max(self._require_samples()) / US

    def percentile_us(self, percentile: float) -> float:
        samples = self._require_samples()
        if not 0 <= percentile <= 100:
            raise ValueError("Percentiles must be in the range [0, 100]")
        data = sorted(float(sample) for sample in samples)
        # numpy's linear method, in its operation order: the virtual
        # index, both neighbours clipped to the last sample, and a lerp
        # taken from whichever end is nearer.
        last = len(data) - 1
        virtual = last * (percentile / 100)
        below = math.floor(virtual)
        gamma = virtual - below
        low = data[min(below, last)]
        high = data[min(below + 1, last)]
        if gamma >= 0.5:
            return (high - (high - low) * (1 - gamma)) / US
        return (low + (high - low) * gamma) / US

    def cdf_points(self, points: int = 100
                   ) -> list[tuple[float, float]]:
        """(latency_us, cumulative_fraction) pairs for CDF plots (Fig. 6)."""
        samples = self._require_samples()
        n = len(samples)
        data = sorted(float(sample) / US for sample in samples)
        fractions = [(index + 1) / n for index in range(n)]
        if n <= points:
            return list(zip(data, fractions, strict=True))
        # numpy linspace(0, n-1, points).astype(int) index selection.
        step = (n - 1) / (points - 1)
        indices = [int(index * step) for index in range(points)]
        return [(data[index], fractions[index]) for index in indices]

    def summary(self) -> dict[str, float]:
        return {
            "count": float(len(self._samples)),
            "avg_us": self.mean_us(),
            "min_us": self.min_us(),
            "max_us": self.max_us(),
            "p50_us": self.percentile_us(50),
            "p99_us": self.percentile_us(99),
        }
