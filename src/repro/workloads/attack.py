"""The DDoS workload of Fig. 9: steady normal traffic + a ramping attack.

"We send normal traffic at a constant rate (500Mbps), and start sending
low rate DDoS traffic at 30s ... the incoming traffic gradually rises
until reaching our threshold (3.2Gbps)."  Attack packets come from many
sources inside one IP prefix so the detector's per-prefix aggregation has
something to aggregate.
"""

from __future__ import annotations

import typing

from repro.dataplane.host import NfvHost
from repro.metrics.throughput import ThroughputMeter
from repro.net.flow import FiveTuple
from repro.net.headers import PROTO_UDP
from repro.net.packet import Packet, wire_bits
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.units import MS, S


class DdosRampWorkload:
    """Constant legitimate traffic plus a linearly ramping attack."""

    def __init__(self, sim: Simulator, host: NfvHost,
                 normal_mbps: float = 500.0,
                 attack_start_ns: int = 30 * S,
                 attack_ramp_mbps_per_s: float = 25.0,
                 attack_max_mbps: float = 4000.0,
                 attack_prefix: str = "66.66.0.0",
                 packet_size: int = 1024,
                 attack_sources: int = 64,
                 ingress_port: str = "eth0",
                 measure_ports: typing.Sequence[str] = ("eth1",),
                 window_ns: int = 1 * S,
                 seed: int = 13) -> None:
        self.sim = sim
        self.host = host
        self.ingress_port = ingress_port
        self.packet_size = packet_size
        self.normal_mbps = normal_mbps
        self.attack_start_ns = attack_start_ns
        self.attack_ramp_mbps_per_s = attack_ramp_mbps_per_s
        self.attack_max_mbps = attack_max_mbps
        self.in_meter = ThroughputMeter(window_ns=window_ns)
        self.out_meter = ThroughputMeter(window_ns=window_ns)
        self._rng = RandomStreams(seed=seed).stream("ddos")
        prefix_octets = attack_prefix.split(".")
        self._attack_flows = [
            FiveTuple(
                src_ip=(f"{prefix_octets[0]}.{prefix_octets[1]}."
                        f"{i % 250 + 1}.{i // 250 + 1}"),
                dst_ip="10.3.0.1", protocol=PROTO_UDP,
                src_port=20000 + i, dst_port=80)
            for i in range(attack_sources)]
        self._normal_flow = FiveTuple(
            src_ip="10.2.0.1", dst_ip="10.3.0.1", protocol=PROTO_UDP,
            src_port=5000, dst_port=80)
        for port_name in measure_ports:
            host.port(port_name).on_egress = self._on_out
        sim.process(self._normal_loop())
        sim.process(self._attack_loop())

    def _on_out(self, packet: Packet) -> None:
        self.out_meter.record(self.sim.now, packet.size)

    def _inject(self, flow: FiveTuple) -> None:
        packet = Packet(flow=flow, size=self.packet_size,
                        created_at=self.sim.now)
        self.in_meter.record(self.sim.now, packet.size)
        self.host.inject(self.ingress_port, packet)

    def _gap_ns(self, rate_mbps: float) -> int:
        return max(1, round(wire_bits(self.packet_size) * 1000.0
                            / rate_mbps))

    def _normal_loop(self):
        while True:
            self._inject(self._normal_flow)
            yield self.sim.sleep(self._gap_ns(self.normal_mbps))

    def attack_rate_mbps(self, now_ns: int) -> float:
        """The attack's offered rate at a point in time."""
        if now_ns < self.attack_start_ns:
            return 0.0
        ramped = ((now_ns - self.attack_start_ns) / S
                  * self.attack_ramp_mbps_per_s)
        return min(self.attack_max_mbps, ramped)

    def _attack_loop(self):
        yield self.sim.sleep(self.attack_start_ns)
        index = 0
        while True:
            rate = self.attack_rate_mbps(self.sim.now)
            if rate <= 0:
                yield self.sim.sleep(100 * MS)
                continue
            flow = self._attack_flows[index % len(self._attack_flows)]
            index += 1
            self._inject(flow)
            yield self.sim.sleep(self._gap_ns(rate))
