"""TwemProxy: the kernel-path memcached proxy baseline of Fig. 12.

"TwemProxy ... uses interrupt driven packet processing and requires
multiple packet data copies between kernel and user space.  TwemProxy also
needs to negotiate traffic in both directions since it maintains separate
socket connections with the client and server."

Modeled as a single event-loop server whose per-request service time
composes those kernel-path costs — about 11 µs per request, saturating
near the paper's 90 k req/s.  Both a closed-form M/M/1 latency curve and a
discrete-event queue are provided.
"""

from __future__ import annotations

import dataclasses

from repro.metrics.latency import LatencyRecorder
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import US


@dataclasses.dataclass
class TwemproxyCosts:
    """Per-request cost components of the kernel proxy path (ns)."""

    interrupt_ns: int = 2_500          # NIC interrupt + softirq
    syscall_pair_ns: int = 2_000       # recvfrom + sendto
    copy_ns_per_byte: float = 0.45     # kernel<->user, both directions
    parse_and_hash_ns: int = 1_500     # twemproxy request handling
    server_side_socket_ns: int = 4_800  # separate server connection legs

    def service_ns(self, request_bytes: int = 96) -> int:
        copies = round(2 * request_bytes * self.copy_ns_per_byte)
        return (self.interrupt_ns + self.syscall_pair_ns + copies
                + self.parse_and_hash_ns + self.server_side_socket_ns)


class TwemproxyModel:
    """Latency-vs-rate model for TwemProxy."""

    def __init__(self, costs: TwemproxyCosts | None = None,
                 request_bytes: int = 96,
                 server_rtt_ns: int = 90_000) -> None:
        self.costs = costs or TwemproxyCosts()
        self.request_bytes = request_bytes
        self.service_ns = self.costs.service_ns(request_bytes)
        self.server_rtt_ns = server_rtt_ns

    @property
    def capacity_rps(self) -> float:
        """Saturation rate of the single event loop (≈90 k req/s)."""
        return 1e9 / self.service_ns

    def mean_rtt_us(self, rate_rps: float) -> float:
        """M/M/1 expected round trip at an offered rate (µs).

        Past ~99.5% utilization the closed form diverges; we clamp there —
        the paper likewise reports the proxy as simply 'overloaded'.
        """
        if rate_rps < 0:
            raise ValueError("rate must be non-negative")
        rho = min(rate_rps / self.capacity_rps, 0.995)
        queue_wait = rho * self.service_ns / (1 - rho)
        return (self.server_rtt_ns + self.service_ns + queue_wait) / US


class TwemproxySim:
    """Discrete-event TwemProxy: one event loop, FIFO socket queue."""

    def __init__(self, sim: Simulator,
                 model: TwemproxyModel | None = None,
                 queue_depth: int = 1024,
                 seed: int = 23) -> None:
        self.sim = sim
        self.model = model or TwemproxyModel()
        self.latency = LatencyRecorder("twemproxy-rtt")
        self.dropped = 0
        self.served = 0
        self._queue = Store(sim, capacity=queue_depth)
        self._rng = RandomStreams(seed=seed).stream("twemproxy")
        sim.process(self._loop())

    def offer(self) -> None:
        """One incoming get() request at the current time."""
        if not self._queue.try_put(self.sim.now):
            self.dropped += 1

    def drive(self, rate_rps: float, duration_ns: int):
        """A generator process offering Poisson traffic at ``rate_rps``."""
        mean_gap = 1e9 / rate_rps
        deadline = self.sim.now + duration_ns
        while self.sim.now < deadline:
            self.offer()
            yield self.sim.sleep(
                max(1, round(self._rng.exponential(mean_gap))))

    def _loop(self):
        while True:
            arrived_at: int = yield self._queue.get()
            yield self.sim.sleep(self.model.service_ns)
            self.served += 1
            rtt = (self.sim.now - arrived_at) + self.model.server_rtt_ns
            self.latency.record(rtt)
