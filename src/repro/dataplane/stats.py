"""Host-level statistics: what the NF Manager tier knows (paper §3.1).

The "host-specific internal state" of the hierarchy: queue occupancies,
packet/byte counters, drops, per-service activity.  The SDNFV Application
reads these through the manager rather than tracking them centrally.
"""

from __future__ import annotations

import collections
import dataclasses


@dataclasses.dataclass
class HostStats:
    """Counters maintained by one NF Manager."""

    rx_packets: int = 0
    rx_bytes: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0
    dropped_ring_full: int = 0
    dropped_by_nf: int = 0
    dropped_no_rule: int = 0
    dropped_no_vm: int = 0
    policy_violations: int = 0
    sdn_requests: int = 0
    sdn_retries: int = 0
    sdn_timeouts: int = 0
    # Miss classifier: each flow's *first contact* with this host is
    # classified exactly once — it hit a pre-populated rule
    # (proactive_hits), hit a rule a previous miss pulled in
    # (reactive_hits), or missed and took the controller slow path
    # (reactive_misses).  miss_fallbacks counts miss queues released
    # without rules (degraded to the fallback destination or dropped).
    proactive_hits: int = 0
    reactive_hits: int = 0
    reactive_misses: int = 0
    miss_fallbacks: int = 0
    parallel_groups: int = 0
    failed_vms: int = 0
    requeued_packets: int = 0
    degraded_packets: int = 0
    lost_in_nf: int = 0
    # NIC-tier drops, mirrored from the ports so host reports see them
    # (frames rejected before the RX thread ever touched them are
    # otherwise invisible in manager-level accounting).
    nic_rx_dropped: int = 0
    nic_link_dropped: int = 0
    # Packet mempool traffic, mirrored from the host's PacketPool: hits
    # reuse a retired buffer, misses materialize a new pooled one (cold
    # start), exhausted allocations overflowed to the plain heap.
    pool_hits: int = 0
    pool_misses: int = 0
    pool_exhausted: int = 0
    # Burst pipeline: polls per stage and the batch-occupancy histogram
    # (batch size -> number of polls that returned that many packets).
    rx_batches: int = 0
    tx_batches: int = 0
    vm_batches: int = 0
    per_service_packets: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    per_port_tx_bytes: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    rx_batch_occupancy: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    tx_batch_occupancy: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)
    vm_batch_occupancy: collections.Counter = dataclasses.field(
        default_factory=collections.Counter)

    def record_rx(self, size: int) -> None:
        self.rx_packets += 1
        self.rx_bytes += size

    def record_tx(self, port: str, size: int) -> None:
        self.tx_packets += 1
        self.tx_bytes += size
        self.per_port_tx_bytes[port] += size

    def record_service(self, service_id: str) -> None:
        self.per_service_packets[service_id] += 1

    def record_rx_batch(self, size: int) -> None:
        self.rx_batches += 1
        self.rx_batch_occupancy[size] += 1

    def record_tx_batch(self, size: int) -> None:
        self.tx_batches += 1
        self.tx_batch_occupancy[size] += 1

    def record_vm_batch(self, size: int) -> None:
        self.vm_batches += 1
        self.vm_batch_occupancy[size] += 1

    def flow_setups(self) -> int:
        """Flows whose first contact has been classified."""
        return (self.proactive_hits + self.reactive_hits
                + self.reactive_misses)

    def reactive_miss_rate(self) -> float:
        """Fraction of flow setups that took the controller slow path
        (the Fig. 1 / Fig. 10 quantity the proactive pipeline drives
        down).  0.0 when no flow has been classified yet."""
        setups = self.flow_setups()
        return self.reactive_misses / setups if setups else 0.0

    def batch_summary(self) -> dict[str, float]:
        """Mean batch occupancy per pipeline stage (1.0 = no batching)."""

        def mean(histogram: collections.Counter) -> float:
            polls = sum(histogram.values())
            if not polls:
                return 0.0
            return sum(size * count
                       for size, count in histogram.items()) / polls

        return {
            "rx_mean_batch": mean(self.rx_batch_occupancy),
            "tx_mean_batch": mean(self.tx_batch_occupancy),
            "vm_mean_batch": mean(self.vm_batch_occupancy),
        }

    def summary(self) -> dict[str, int]:
        """Scalar counters as a plain dict (for reports and tests), in
        declaration order."""
        return {name: getattr(self, name) for name in _SCALAR_FIELDS}


#: The int counters of :class:`HostStats`, in declaration order.
_SCALAR_FIELDS = tuple(field.name for field in dataclasses.fields(HostStats)
                       if field.type == "int")
