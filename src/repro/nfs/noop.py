"""No-op and counting NFs (the paper's Table 2 measurement workload)."""

from __future__ import annotations

import collections

from repro.dataplane.actions import Verdict
from repro.net.packet import Packet
from repro.nfs.base import NetworkFunction, NfContext


class NoOpNf(NetworkFunction):
    """Performs no processing on each packet (Table 2's latency probe)."""

    read_only = True

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        return Verdict.default()


class CounterNf(NetworkFunction):
    """Counts packets and bytes per flow; forwards everything unchanged.

    A minimal example of an NF keeping "NF-specific internal state"
    (§3.1) — useful for monitoring chains and in tests.
    """

    read_only = True

    def __init__(self, service_id: str) -> None:
        super().__init__(service_id)
        self.packets = collections.Counter()
        self.bytes = collections.Counter()

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        self.packets[packet.flow] += 1
        self.bytes[packet.flow] += packet.size
        return Verdict.default()

    def totals(self) -> tuple[int, int]:
        """(total packets, total bytes) across all flows."""
        return sum(self.packets.values()), sum(self.bytes.values())
