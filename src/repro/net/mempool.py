"""Fixed-size packet buffer pool — the ``rte_mempool`` analogue.

SDNFV's prototype never mallocs on the wire path: DPDK pre-allocates
packet buffers in huge-page mempools and the NIC, manager, and NFs
recycle them through free lists (§4.1).  :class:`PacketPool` reproduces
that economy for the simulator: ``alloc()`` hands out a retired
:class:`~repro.net.packet.Packet` rewound by ``Packet._reset`` (fresh
monotonic ``packet_id``, no leaked headers or annotations), and
``reclaim()`` returns a zero-reference buffer to the slab.  Every
``NfvHost``, ``OvsSwitchSim`` and ``SdnVideoSystem`` owns one pool of
``DEFAULT_POOL_SIZE`` buffers, and the packet generators, session
workloads and shard boundary allocate from it.

The slab is bounded (``capacity`` buffers, grown lazily up to that cap).
When every buffer is in flight the pool *falls back to plain heap
allocation* — counted in ``exhausted``, never fatal — mirroring how a
real deployment sizes mempools generously and treats exhaustion as an
observable pressure signal rather than a crash.

Pool traffic is mirrored into ``HostStats`` (``pool_hits`` /
``pool_misses`` / ``pool_exhausted``) when a stats object is attached,
so ``HostStats.summary()`` reports buffer-reuse efficiency alongside
throughput.
"""

from __future__ import annotations

import typing

from repro.net.flow import FiveTuple
from repro.net.packet import Packet

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.stats import HostStats

#: Default slab size per host: comfortably above the buffers in flight on
#: the Fig. 7/Fig. 10 workloads (rings + NIC FIFOs + wire), analogous to
#: the generous per-port mempools a DPDK app creates at startup.
DEFAULT_POOL_SIZE = 8192


class PacketPool:
    """A bounded free-list of reusable packet buffers.

    ``alloc()`` pops a retired buffer (a *hit*) or materializes a new one
    while the slab is below ``capacity`` (a *miss* — cold-start filling,
    like mempool population at init).  Past capacity, ``alloc()`` falls
    back to an unpooled heap packet and counts it in ``exhausted``.
    """

    def __init__(self, capacity: int = DEFAULT_POOL_SIZE,
                 stats: HostStats | None = None) -> None:
        if capacity < 0:
            raise ValueError(f"negative pool capacity: {capacity}")
        self.capacity = capacity
        self.stats = stats
        self._free: list[Packet] = []
        #: Pooled buffers materialized so far (≤ capacity).
        self.created = 0
        #: Allocations served by reusing a retired buffer.
        self.hits = 0
        #: Allocations that had to materialize a new pooled buffer.
        self.misses = 0
        #: Allocations past capacity, served from the plain heap.
        self.exhausted = 0

    @property
    def free_count(self) -> int:
        """Retired buffers currently available for reuse."""
        return len(self._free)

    @property
    def in_flight(self) -> int:
        """Pooled buffers currently out in the data plane."""
        return self.created - len(self._free)

    def alloc(self, flow: FiveTuple, size: int = 64, payload: str = "",
              created_at: int = 0) -> Packet:
        """Hand out a packet buffer (reused, grown, or heap-fallback)."""
        free = self._free
        stats = self.stats
        if free:
            packet = free.pop()
            packet._in_pool = False
            packet._reset(flow, size, payload, created_at)
            self.hits += 1
            if stats is not None:
                stats.pool_hits += 1
            return packet
        self.misses += 1
        if stats is not None:
            stats.pool_misses += 1
        if self.created < self.capacity:
            packet = Packet(flow=flow, size=size, payload=payload,
                            created_at=created_at)
            packet._pool = self
            self.created += 1
            return packet
        # Slab exhausted: observable pressure, not a crash.  The fallback
        # packet has no pool backref, so reclaim() ignores it and it dies
        # a normal garbage-collected death.
        self.exhausted += 1
        if stats is not None:
            stats.pool_exhausted += 1
        return Packet(flow=flow, size=size, payload=payload,
                      created_at=created_at)

    def reclaim(self, packet: Packet) -> bool:
        """Return a zero-reference buffer to the slab.

        Safe to call from any terminal owner: buffers that are not ours,
        still referenced, or already back in the slab are left alone
        (returns False).  Double-insertion is impossible — a buffer in
        the slab is flagged and skipped.
        """
        if (packet._pool is not self or packet.ref_count != 0
                or packet._in_pool):
            return False
        packet._in_pool = True
        self._free.append(packet)
        return True

    def __repr__(self) -> str:
        return (f"<PacketPool {self.in_flight}/{self.created} in flight, "
                f"cap={self.capacity}, hits={self.hits}, "
                f"misses={self.misses}, exhausted={self.exhausted}>")
