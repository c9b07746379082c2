"""Per-operation cost model for the simulated data plane.

Absolute speeds of the paper's testbed enter the simulation only through
these constants; everything else is architecture.  Two cost families:

- **service costs** occupy a thread for that many nanoseconds per packet —
  they bound throughput (the slowest stage caps packets/second);
- **pipeline latencies** delay a packet without occupying any thread —
  they model DPDK batch polling and ring/cache transfer delay, which in
  the real system add microseconds of latency while per-packet CPU cost
  stays in the tens of nanoseconds.

Defaults are calibrated against the paper's own measurements:

- flow-table lookup 30 ns, min-queue scan 15 ns (§5.1); the 31 ms SDN
  lookup is the control plane's ``ControlPlane.idle_lookup_ns``;
- Table 2 round trips: 0 VM (DPDK) 26.66 µs; first VM +1.12 µs; each extra
  sequential VM ≈ +1.1 µs; each extra parallel VM ≈ +0.25–0.3 µs;
- Fig. 7: one socket sustains ≈5 Gbps at 64 B through a VM and line rate
  (10 Gbps) at ≥512 B.
"""

from __future__ import annotations

import dataclasses

from repro.sim.units import NS


@dataclasses.dataclass
class HostCosts:
    """Nanosecond cost constants for one simulated SDNFV host."""

    # §5.1 measured micro-costs.
    flow_lookup_ns: int = 30 * NS
    queue_scan_ns: int = 15 * NS

    # Header metadata extraction preceding a flow-table lookup; the
    # descriptor lookup cache (§4.2) skips extract+lookup on later hops.
    header_extract_ns: int = 25 * NS

    # Service costs (occupy the thread).
    rx_service_ns: int = 60 * NS      # poll-mode receive + descriptor setup
    tx_service_ns: int = 40 * NS      # action resolution + enqueue out
    vm_service_ns: int = 120 * NS     # VM-side per-packet handling (no-op NF)

    # Parallel processing: per extra member, the descriptor copy into one
    # more ring (RX side) and one more verdict merge (TX side) are cheap
    # thread work; the dominant cost is cache contention on the shared
    # packet, modeled as a non-blocking delivery stagger per member.
    parallel_fanout_ns: int = 40 * NS
    parallel_merge_ns: int = 40 * NS
    parallel_stagger_ns: int = 160 * NS

    # Pipeline latency of one VM visit beyond thread occupancy: two ring
    # hops plus poll-batching pickup delay.  Non-blocking.
    vm_pipeline_latency_ns: int = 915 * NS

    # Base round trip outside the host: traffic generator + wire + NIC both
    # directions, excluding the egress serialization the simulation charges
    # explicitly.  Chosen so plain DPDK forwarding of 1000 B frames
    # measures Table 2's 26.66 µs.
    wire_base_rtt_ns: int = 25_710 * NS

    # Uniform jitter half-width on the wire RTT (Table 2 spread ≈ ±3 µs).
    wire_jitter_ns: int = 2_800 * NS

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be non-negative")

    def sequential_visit_ns(self) -> int:
        """Latency one sequential no-op VM visit adds to a packet's RTT."""
        return (self.vm_pipeline_latency_ns + self.vm_service_ns
                + self.tx_service_ns + self.flow_lookup_ns
                + self.header_extract_ns)

    def parallel_extra_visit_ns(self) -> int:
        """Latency each *additional* parallel read-only VM adds."""
        return (self.parallel_fanout_ns + self.parallel_merge_ns
                + self.parallel_stagger_ns)
