"""The Fabric: physical wiring between simulated hosts.

Service graphs can span hosts (Fig. 3 deploys the anomaly and video
graphs across two machines); the fabric moves frames between host NIC
ports with link propagation delay, so multi-host chains run end to end:
packets leaving host 1's trunk port arrive at host 2's ingress and
continue through host 2's flow table.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.dataplane.host import NfvHost
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.sim.units import US


@dataclasses.dataclass(frozen=True)
class Wire:
    """One unidirectional patch: (host, port) → (host, port)."""

    src_host: str
    src_port: str
    dst_host: str
    dst_port: str
    delay_ns: int = 5 * US


class Fabric:
    """Connects host ports with delayed, lossless wires."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: dict[str, NfvHost] = {}
        self.wires: list[Wire] = []
        self.frames_carried = 0
        self.frames_dropped_at_rx = 0

    def add_host(self, host: NfvHost) -> None:
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host

    def connect(self, src_host: str, src_port: str, dst_host: str,
                dst_port: str, delay_ns: int = 5 * US,
                bidirectional: bool = True) -> None:
        """Patch two ports together (both directions by default)."""
        for name in (src_host, dst_host):
            if name not in self.hosts:
                raise KeyError(f"unknown host {name!r}")
        self._attach(Wire(src_host, src_port, dst_host, dst_port,
                          delay_ns))
        if bidirectional:
            self._attach(Wire(dst_host, dst_port, src_host, src_port,
                              delay_ns))

    def _attach(self, wire: Wire) -> None:
        self.wires.append(wire)
        source = self.hosts[wire.src_host].port(wire.src_port)
        if source.on_egress is not None:
            raise ValueError(
                f"port {wire.src_host}:{wire.src_port} already wired")
        source.on_egress = functools.partial(self._carry, wire)

    def _carry(self, wire: Wire, packet: Packet) -> None:
        # Frames leaving the egress still hold zero references (released
        # at egress); re-arm the buffer for the next host.
        packet.ref_count = 1
        self.sim.call_later(wire.delay_ns, self._deliver, (wire, packet))

    def _deliver(self, carried: tuple[Wire, Packet]) -> None:
        wire, packet = carried
        self.frames_carried += 1
        destination = self.hosts[wire.dst_host]
        if not destination.inject(wire.dst_port, packet):
            self.frames_dropped_at_rx += 1
