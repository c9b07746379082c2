"""QoS: strict-priority egress scheduling.

The paper's motivation repeatedly names QoS as data-plane functionality
(middleboxes "manipulate their routing, content, and QoS"; the ant-flow
use case is a QoS system).  This module adds the egress half: a
:class:`PriorityNicPort` serves multiple transmit queues in strict
priority order, so marked traffic (DSCP, set by the
:class:`~repro.nfs.qos.DscpMarker` NF) overtakes bulk traffic at a
congested link instead of queueing behind it.
"""

from __future__ import annotations

from repro.dataplane.manager import NicPort
from repro.net.packet import Packet, transmission_ns
from repro.net.qos import (
    DSCP_ASSURED,
    DSCP_BEST_EFFORT,
    DSCP_EXPEDITED,
    PRIORITY_ANNOTATION,
    dscp_to_priority,
)
from repro.sim.simulator import Simulator
from repro.sim.store import Store

__all__ = [
    # re-exported marking vocabulary (repro.net.qos)
    "DSCP_ASSURED",
    "DSCP_BEST_EFFORT",
    "DSCP_EXPEDITED",
    "PRIORITY_ANNOTATION",
    "dscp_to_priority",
    "PriorityNicPort",
]


class PriorityNicPort(NicPort):
    """A NIC port with strict-priority transmit queues.

    The drain process always serves the lowest-numbered non-empty queue.
    Queue choice per packet: the ``qos_priority`` annotation if present,
    else the packet's IP DSCP field.
    """

    def __init__(self, sim: Simulator, name: str,
                 line_rate_gbps: float = 10.0,
                 rx_frames: int = 2048,
                 priority_levels: int = 3,
                 queue_frames: int = 4096) -> None:
        if priority_levels < 2:
            raise ValueError("need at least two priority levels")
        self._levels = priority_levels
        self._queues = [Store(sim, capacity=queue_frames)
                        for _ in range(priority_levels)]
        self._kick = Store(sim)
        self.tx_dropped = 0
        self.per_priority_tx = [0] * priority_levels
        super().__init__(sim, name, line_rate_gbps=line_rate_gbps,
                         rx_frames=rx_frames)
        # The base port's wire drain is a timer state machine armed by
        # NicPort.transmit(); priority queues need the scan-all-levels
        # loop instead, so this subclass runs its own drain process.
        sim.process(self._drain())

    @property
    def levels(self) -> int:
        return self._levels

    def classify(self, packet: Packet) -> int:
        priority = packet.annotations.get(PRIORITY_ANNOTATION)
        if priority is not None:
            return max(0, min(self._levels - 1, int(priority)))
        dscp = packet.ip.dscp if packet.ip is not None else 0
        return dscp_to_priority(dscp, self._levels)

    def transmit(self, packet: Packet) -> None:
        level = self.classify(packet)
        if self._queues[level].try_put(packet):
            self._kick.try_put(None)
        else:
            self.tx_dropped += 1
            if packet.pool is not None:
                packet.free()

    def _drain(self):
        """Strict priority: always pick the most urgent waiting frame."""
        while True:
            yield self._kick.get()
            # Like NicPort, hold queued frames while the link is down.
            while not self.link_up:
                yield self._link_restored
            packet = None
            level = -1
            for index, queue in enumerate(self._queues):
                candidate = queue.try_get()
                if candidate is not None:
                    packet, level = candidate, index
                    break
            if packet is None:
                continue
            yield self.sim.sleep(
                transmission_ns(packet.size, self.line_rate_gbps))
            self.tx_packets += 1
            self.tx_bytes += packet.size
            self.per_priority_tx[level] += 1
            if self.on_egress is not None:
                self.on_egress(packet)
            else:
                yield self.egress.put(packet)
