"""The memcached request workload of Fig. 12.

UDP get requests with Zipf-distributed keys at a configurable rate, driven
through a proxy (the SDNFV memcached-proxy NF or the TwemProxy baseline).
"""

from __future__ import annotations

import typing

from repro.dataplane.host import NfvHost
from repro.metrics.latency import LatencyRecorder
from repro.net.flow import FiveTuple
from repro.net.headers import PROTO_UDP
from repro.net.memcached import MEMCACHED_PORT, MemcachedRequest
from repro.net.packet import Packet
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.units import S


class MemcachedWorkload:
    """Zipf-keyed get() stream through an SDNFV host."""

    def __init__(self, sim: Simulator, host: NfvHost,
                 requests_per_second: float,
                 key_space: int = 10000,
                 zipf_s: float = 1.1,
                 ingress_port: str = "eth0",
                 measure_ports: typing.Sequence[str] = ("eth1",),
                 clients: int = 8,
                 server_rtt_ns: int = 90_000,
                 seed: int = 17) -> None:
        if requests_per_second <= 0:
            raise ValueError("request rate must be positive")
        self.sim = sim
        self.host = host
        self.ingress_port = ingress_port
        self.requests_per_second = requests_per_second
        self.key_space = key_space
        self.zipf_s = zipf_s
        # Server-side round trip (wire + memcached service) added to the
        # measured proxy traversal; responses bypass the proxy (§5.4).
        self.server_rtt_ns = server_rtt_ns
        self.latency = LatencyRecorder("memcached-rtt")
        self.sent = 0
        self.forwarded = 0
        self._rng = RandomStreams(seed=seed).stream("memcached")
        self._flows = [
            FiveTuple(src_ip=f"10.9.0.{i + 1}", dst_ip="10.8.0.1",
                      protocol=PROTO_UDP, src_port=30000 + i,
                      dst_port=MEMCACHED_PORT)
            for i in range(clients)]
        for port_name in measure_ports:
            host.port(port_name).on_egress = self._on_forwarded
        sim.process(self._run())

    def _zipf_key(self) -> str:
        rank = int(self._rng.zipf(self.zipf_s))
        return f"key{(rank - 1) % self.key_space}"

    def _on_forwarded(self, packet: Packet) -> None:
        if "memcached_key" not in packet.annotations:
            return
        self.forwarded += 1
        proxy_ns = self.sim.now - packet.created_at
        self.latency.record(proxy_ns + self.server_rtt_ns)

    def _run(self):
        mean_gap = S / self.requests_per_second
        while True:
            flow = self._flows[self.sent % len(self._flows)]
            request = MemcachedRequest(command="get", key=self._zipf_key())
            payload = request.serialize()
            packet = Packet(flow=flow,
                            size=max(64, request.wire_length() + 42),
                            payload=payload, created_at=self.sim.now)
            self.host.inject(self.ingress_port, packet)
            self.sent += 1
            yield self.sim.sleep(
                max(1, round(self._rng.exponential(mean_gap))))
