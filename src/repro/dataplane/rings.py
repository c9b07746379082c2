"""SPSC ring buffers connecting the NF Manager and VM threads.

Paper §4.1: "we implement all communication in our system using asynchronous
ring buffers ... Since each ring buffer has a single data producer thread
and a single consumer thread, no locks are required."  In the simulation a
ring is a bounded :class:`~repro.sim.store.Store`; what we keep from the
real design is the *bounded* capacity (packets are dropped when a VM falls
behind — the load-balancing experiments depend on this) and the
single-consumer discipline.  The consumer loop yields ``ring.get()``,
which wakes it directly when a descriptor arrives, with no Event.
"""

from __future__ import annotations

import typing

from repro.sim.store import Store

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

DEFAULT_RING_SLOTS = 512


class RingBuffer(Store):
    """A bounded descriptor queue with drop-on-full producer semantics."""

    # No __slots__: the ownership verifier wraps a ring's bound methods
    # per instance.

    def __init__(self, sim: Simulator, name: str,
                 slots: int = DEFAULT_RING_SLOTS) -> None:
        if slots <= 0:
            raise ValueError("ring must have at least one slot")
        super().__init__(sim, capacity=slots)
        self.name = name
        self.slots = slots
        self.enqueued = 0
        self.dropped = 0

    @property
    def occupancy(self) -> int:
        """Occupied slots — what queue-length load balancing inspects."""
        return len(self.items)

    def try_enqueue(self, item: typing.Any) -> bool:
        """Producer side: non-blocking put; False means the packet dropped."""
        if self.try_put(item):
            self.enqueued += 1
            return True
        self.dropped += 1
        return False

    def enqueue_burst(self, items: typing.Sequence[typing.Any]) -> int:
        """Producer side: enqueue a burst, dropping the tail when full.

        DPDK ``rte_ring_enqueue_burst`` semantics: items are accepted in
        order until the ring fills; the number accepted is returned and
        every rejected item counts as one drop (per-slot accounting is
        identical to ``len(items)`` calls to :meth:`try_enqueue`).
        """
        put = self.try_put
        accepted = 0
        for item in items:
            if not put(item):
                break
            self.enqueued += 1
            accepted += 1
        self.dropped += len(items) - accepted
        return accepted

    def dequeue_burst(self, max_n: int) -> list[typing.Any]:
        """Consumer side: remove and return up to ``max_n`` queued items.

        Non-blocking; returns fewer than ``max_n`` (possibly zero) items
        when the ring runs empty.  The batch-poll analogue of
        ``rte_ring_dequeue_burst``.
        """
        items: list[typing.Any] = []
        while len(items) < max_n:
            item = self.try_get()
            if item is None:
                break
            items.append(item)
        return items

    def drain(self) -> list[typing.Any]:
        """Remove and return every queued item (failover salvage path)."""
        items: list[typing.Any] = []
        while True:
            item = self.try_get()
            if item is None:
                return items
            items.append(item)
