"""Seeded random-stream helpers for reproducible experiments.

Every stochastic component takes an explicit stream so that experiments are
deterministic given a seed, and independent components do not perturb each
other's draws when one of them is reconfigured.

Each named stream is a numpy ``np.random.Generator`` (PCG64) seeded
from ``(seed, stable hash of the name)`` — the one random source every
golden suite pins.
"""

from __future__ import annotations

import numpy as np


class RandomStreams:
    """A family of independent, named random generators from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            child_seed = np.random.SeedSequence(
                [self.seed, _stable_hash(name)])
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]


def _stable_hash(name: str) -> int:
    """A deterministic (non-salted) 63-bit hash of a string."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode():
        value ^= byte
        value = (value * 1099511628211) % (1 << 63)
    return value


def exponential_ns(rng: np.random.Generator, mean: float) -> int:
    """Draw an exponential interarrival time in integer nanoseconds (>=1).

    ``mean`` is the distribution mean in ns — a real-valued *parameter*
    (rates rarely divide evenly), which is why it does not carry the
    ``_ns`` integer-nanosecond suffix; the draw itself is quantized.
    """
    return max(1, round(rng.exponential(mean)))
