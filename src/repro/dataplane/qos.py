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

import collections

from repro.dataplane.manager import NicPort
from repro.net.packet import Packet
from repro.net.qos import (
    DSCP_ASSURED,
    DSCP_BEST_EFFORT,
    DSCP_EXPEDITED,
    PRIORITY_ANNOTATION,
    dscp_to_priority,
)
from repro.sim.simulator import Simulator

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

    Each free wire slot goes to the lowest-numbered non-empty queue.
    Queue choice per packet: the ``qos_priority`` annotation if present,
    else the packet's IP DSCP field.  Frames serialize through
    :class:`NicPort`'s timer machine; only the pick differs.
    """

    def __init__(self, sim: Simulator, name: str,
                 line_rate_gbps: float = 10.0,
                 rx_frames: int = 2048,
                 priority_levels: int = 3,
                 queue_frames: int = 4096) -> None:
        if priority_levels < 2:
            raise ValueError("need at least two priority levels")
        if queue_frames <= 0:
            raise ValueError("queue_frames must be positive")
        self._levels = priority_levels
        self._queue_frames = queue_frames
        self._queues: list[collections.deque[Packet]] = [
            collections.deque() for _ in range(priority_levels)]
        # Level of the frame on the wire (one at a time).
        self._tx_level = -1
        self.tx_dropped = 0
        self.per_priority_tx = [0] * priority_levels
        super().__init__(sim, name, line_rate_gbps=line_rate_gbps,
                         rx_frames=rx_frames)

    @property
    def levels(self) -> int:
        return self._levels

    def classify(self, packet: Packet) -> int:
        priority = packet.annotations.get(PRIORITY_ANNOTATION)
        if priority is not None:
            return max(0, min(self._levels - 1, int(priority)))
        dscp = packet.ip.dscp if packet.ip is not None else 0
        return dscp_to_priority(dscp, self._levels)

    def transmit(self, packet: Packet) -> bool:
        """Queue a frame at its priority level.  False when that level's
        queue is full: the port drops the frame and returns a pooled one
        to its pool, freeing a held reference or reclaiming the
        zero-reference frame the NF Manager hands over."""
        queue = self._queues[self.classify(packet)]
        if len(queue) >= self._queue_frames:
            self.tx_dropped += 1
            pool = packet.pool
            if pool is not None:
                if packet.ref_count:
                    packet.free()
                else:
                    pool.reclaim(packet)
            return False
        queue.append(packet)
        if not self._tx_busy:
            self._tx_busy = True
            # Deferred by one zero-delay timer, so the most urgent frame
            # of a same-nanosecond burst goes first.
            self.sim.call_later(0, self._pick)
        return True

    def _pick(self, _arg: None = None) -> None:
        """Strict priority: start the most urgent waiting frame."""
        # Like NicPort, hold queued frames while the link is down.
        if not self.link_up:
            self._link_restored.callbacks.append(
                lambda _event: self._pick())
            return
        for level, queue in enumerate(self._queues):
            if queue:
                self._tx_level = level
                self._tx_start(queue.popleft())
                return

    def _tx_done(self, packet: Packet) -> None:
        self.per_priority_tx[self._tx_level] += 1
        super()._tx_done(packet)
        if any(self._queues):
            self._tx_busy = True
            self.sim.call_later(0, self._pick)
