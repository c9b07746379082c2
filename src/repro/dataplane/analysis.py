"""Closed-form predictions from the cost model, for cross-checking the
discrete-event simulation.

Given a :class:`~repro.dataplane.costs.HostCosts` and a chain shape, these
helpers predict the unloaded round-trip latency and the per-stage
throughput ceiling.  Tests assert the DES agrees — a guard against the
simulation and the calibration drifting apart.
"""

from __future__ import annotations


from repro.dataplane.costs import HostCosts
from repro.net.packet import transmission_ns, wire_bits


def predict_rtt_ns(costs: HostCosts, sequential_vms: int = 0,
                   parallel_vms: int = 0,
                   nf_cost_ns: int = 0,
                   packet_size: int = 1000,
                   line_rate_gbps: float = 10.0,
                   first_packet: bool = True) -> int:
    """Unloaded round-trip latency for one packet through a chain.

    ``sequential_vms`` chained no-op-class VMs each charging
    ``nf_cost_ns`` of NF work; ``parallel_vms`` (if >= 2) replaces the
    chain with one fused group of that size.  ``first_packet`` includes
    the per-hop header-extract + lookup costs the lookup cache skips
    on later packets of a flow.
    """
    if sequential_vms and parallel_vms:
        raise ValueError("choose sequential or parallel, not both")
    total = costs.wire_base_rtt_ns
    total += costs.rx_service_ns
    lookup = costs.header_extract_ns + costs.flow_lookup_ns
    if first_packet:
        total += lookup
    total += transmission_ns(packet_size, line_rate_gbps)

    vms = parallel_vms or sequential_vms
    if vms == 0:
        # Plain port-to-port forwarding: RX resolves ToPort directly.
        total += costs.tx_service_ns
        return total

    if parallel_vms >= 2:
        extra = parallel_vms - 1
        total += costs.parallel_fanout_ns * extra
        total += (costs.vm_pipeline_latency_ns
                  + costs.parallel_stagger_ns * extra)
        total += costs.vm_service_ns + nf_cost_ns
        total += costs.tx_service_ns * parallel_vms
        total += costs.parallel_merge_ns * extra
        if first_packet:
            total += lookup
        return total

    for _hop in range(sequential_vms):
        total += costs.vm_pipeline_latency_ns
        total += costs.vm_service_ns + nf_cost_ns
        total += costs.tx_service_ns
        if first_packet:
            total += lookup
    return total


def stage_rates_pps(costs: HostCosts, sequential_vms: int = 1,
                    nf_cost_ns: int = 0,
                    tx_threads: int = 2,
                    first_packet_fraction: float = 0.0
                    ) -> dict[str, float]:
    """Per-stage packet-rate ceilings (packets/second) for a chain."""
    lookup = (costs.header_extract_ns
              + costs.flow_lookup_ns) * first_packet_fraction
    rx_ns = costs.rx_service_ns + lookup
    vm_ns = costs.vm_service_ns + nf_cost_ns
    # Each packet crosses the TX tier once per VM hop; work is spread
    # over the TX threads.
    tx_ns = (costs.tx_service_ns + lookup) * max(1, sequential_vms)
    return {
        "rx": 1e9 / rx_ns,
        "vm": 1e9 / vm_ns if vm_ns else float("inf"),
        "tx": tx_threads * 1e9 / tx_ns,
    }


def predict_throughput_gbps(costs: HostCosts, packet_size: int,
                            sequential_vms: int = 1,
                            nf_cost_ns: int = 0,
                            tx_threads: int = 2,
                            line_rate_gbps: float = 10.0) -> float:
    """Bottleneck throughput for a chain at a given packet size."""
    rates = stage_rates_pps(costs, sequential_vms=sequential_vms,
                            nf_cost_ns=nf_cost_ns, tx_threads=tx_threads)
    line_pps = line_rate_gbps * 1e9 / wire_bits(packet_size)
    bottleneck = min(min(rates.values()), line_pps)
    return bottleneck * wire_bits(packet_size) / 1e9
