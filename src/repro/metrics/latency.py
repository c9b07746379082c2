"""Round-trip latency collection: means, percentiles, CDFs.

Percentiles equal numpy's default ``'linear'`` ``numpy.percentile``
bit for bit, computed without numpy; the CDF picks the same sample
indices as ``numpy.linspace(0, n - 1, points)``.
"""

from __future__ import annotations

import array
import math

from repro.sim.units import US


class LatencyRecorder:
    """Accumulates latency samples (integer nanoseconds).

    Samples are the one measurement that grows with every delivered
    packet, so they are kept in an int64 array at 8 bytes each rather
    than as one 32-byte ``int`` object per sample.  :attr:`samples_ns`
    hands them out as a list that holds one ``int`` object per distinct
    value: RTTs fall in a narrow band of nanoseconds, so a list that
    lives beside the recorders at the end of a run costs little more
    than its 8-byte slots, where a fresh ``int`` per sample would give
    the saving back.
    """

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples = array.array("q")

    def record(self, latency_ns: int) -> None:
        """Add one sample; a non-integer raises ``TypeError``."""
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self._samples.append(latency_ns)

    def clear(self) -> None:
        """Drop every sample, e.g. to measure the next phase afresh."""
        del self._samples[:]

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples_ns(self) -> list[int]:
        """The samples in recording order; equal values share one
        ``int`` object."""
        shared: dict[int, int] = {}
        share = shared.setdefault
        return [share(sample, sample) for sample in self._samples]

    def _require_samples(self) -> array.array:
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
