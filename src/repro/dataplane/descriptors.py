"""Packet descriptors: the small messages exchanged over ring buffers.

The paper's zero-copy design (§4.1) DMA's packets into shared huge pages and
passes lightweight descriptors between domains.  §4.2's cache of flow
table lookup results lives in the NF Manager, not here: a per-flow plan
(``lookup_cache=``) keyed by the flow table generation, so dynamic rule
updates invalidate it naturally, plus a per-burst plan in each RX and TX
thread.  Descriptors are not recycled: the RX thread makes one per
packet (fan-out, merge and a lost straggler make theirs), and a retired
one is simply dropped.  The packet buffer is what the mempool recycles.
"""

from __future__ import annotations

import dataclasses

from repro.dataplane.actions import Verdict
from repro.net.packet import Packet


@dataclasses.dataclass(slots=True)
class PacketDescriptor:
    """One reference to a shared packet buffer, owned by one ring at a time.

    ``scope`` names where the packet currently is in the service graph: a
    NIC port name on ingress, a Service ID after an NF handled it.
    ``group_id`` links the copies fanned out to parallel VMs.

    Descriptors are what the burst pipeline moves in bulk — whole bursts
    of them sit in rings and in VM-held batches at once, so the class is
    slotted to keep a 64-packet burst's descriptor footprint small.
    ``ingress_at``, which every descriptor carries, comes third so the
    NF Manager passes it by position: the generated ``__init__`` takes
    keyword arguments on a slower path.
    """

    packet: Packet
    scope: str
    ingress_at: int = 0
    verdict: Verdict | None = None
    group_id: int | None = None
    group_index: int = 0
    vm_priority: int = 0
