"""Ablation: descriptor lookup caching (§4.2).

"Caching the flow table lookup result inside the packet descriptor ...
avoids the need for the NF Manager's TX thread to make hash table
lookups."  We measure hash lookups per packet and small-packet throughput
through a 3-NF chain with the cache on and off.
"""

import pytest

from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

CHAIN_LEN = 3
WINDOW_NS = 3 * MS


def measure(lookup_cache: bool):
    sim = Simulator()
    host = NfvHost(sim, name=f"cache-{lookup_cache}",
                   lookup_cache=lookup_cache)
    services = [f"s{i}" for i in range(CHAIN_LEN)]
    for service in services:
        host.add_nf(NoOpNf(service), ring_slots=2048)
    install_chain(host, services)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80)
    gen = PktGen(sim, host, window_ns=MS)
    # Below saturation so every packet traverses the full chain (drops
    # mid-chain would under-count the per-hop lookups we're measuring).
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=2_000.0, packet_size=64,
                          stop_ns=2 * WINDOW_NS))
    sim.run(until=2 * WINDOW_NS)
    gbps = gen.rx_meter.mean_gbps(WINDOW_NS, 2 * WINDOW_NS)
    lookups_per_packet = (host.flow_table.lookups
                          / max(1, host.stats.rx_packets))
    mean_us = gen.latency.mean_us()
    return gbps, lookups_per_packet, mean_us


def test_ablation_lookup_cache(report):
    def run():
        return {enabled: measure(enabled) for enabled in (True, False)}

    results = run()
    cached_gbps, cached_lookups, cached_lat = results[True]
    raw_gbps, raw_lookups, raw_lat = results[False]

    # Cache collapses per-packet hash lookups to ~0 (one per flow).
    assert cached_lookups < 0.01
    assert raw_lookups == pytest.approx(CHAIN_LEN + 1, rel=0.05)
    # Throughput with the cache is at least as good, latency no worse.
    assert cached_gbps >= raw_gbps - 0.1
    assert cached_lat <= raw_lat + 0.5

    columns = {"cache": ["on", "off"],
               "gbps": [cached_gbps, raw_gbps],
               "lookups_per_pkt": [cached_lookups, raw_lookups],
               "mean_rtt_us": [cached_lat, raw_lat]}
    report("ablation_lookup_cache", series_table(
        "Ablation — descriptor lookup cache (3-NF chain, 64 B)",
        columns), metrics=columns)
