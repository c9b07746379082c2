"""IMIX traffic: the standard internet packet-size mixture.

The classic "simple IMIX" distribution — 7:4:1 packets of 64, 576 and
1500 bytes (≈58.3 % / 33.3 % / 8.3 %) — as a drop-in generator for
throughput experiments that shouldn't assume a single packet size.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.net.flow import FiveTuple
from repro.net.packet import Packet, wire_bits
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator

SIMPLE_IMIX: tuple[tuple[int, int], ...] = ((64, 7), (576, 4), (1500, 1))


@dataclasses.dataclass(frozen=True)
class ImixProfile:
    """A weighted packet-size mixture."""

    buckets: tuple[tuple[int, int], ...] = SIMPLE_IMIX

    def __post_init__(self) -> None:
        if not self.buckets:
            raise ValueError("empty IMIX profile")
        for size, weight in self.buckets:
            if size < 64 or weight <= 0:
                raise ValueError(f"bad IMIX bucket ({size}, {weight})")

    def mean_size(self) -> float:
        total_weight = sum(weight for _size, weight in self.buckets)
        return sum(size * weight
                   for size, weight in self.buckets) / total_weight

    def sample(self, rng) -> int:
        sizes = [size for size, _weight in self.buckets]
        weights = [weight for _size, weight in self.buckets]
        total = sum(weights)
        draw = rng.random() * total
        for size, weight in self.buckets:
            draw -= weight
            if draw < 0:
                return size
        return sizes[-1]


class ImixSource:
    """Paced IMIX stream into a host port at a target bit rate."""

    def __init__(self, sim: Simulator, host: typing.Any,
                 flow: FiveTuple, rate_mbps: float,
                 profile: ImixProfile | None = None,
                 ingress_port: str = "eth0",
                 stop_ns: int | None = None,
                 seed: int = 29) -> None:
        if rate_mbps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.host = host
        self.flow = flow
        self.rate_mbps = rate_mbps
        self.profile = profile or ImixProfile()
        self.ingress_port = ingress_port
        self.stop_ns = stop_ns
        self.sent = 0
        self.sent_bytes = 0
        self._rng = RandomStreams(seed=seed).stream("imix")
        sim.process(self._run())

    def _run(self):
        while self.stop_ns is None or self.sim.now < self.stop_ns:
            size = self.profile.sample(self._rng)
            packet = Packet(flow=self.flow, size=size,
                            created_at=self.sim.now)
            self.host.inject(self.ingress_port, packet)
            self.sent += 1
            self.sent_bytes += size
            gap = wire_bits(size) * 1000.0 / self.rate_mbps
            yield self.sim.sleep(max(1, round(gap)))
