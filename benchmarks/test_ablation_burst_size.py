"""Ablation: data-plane burst size (DPDK-style batched RX/ring/NF/TX).

The NF Manager moves packets in bursts of up to ``burst_size``
descriptors per ring operation, the way DPDK's ``rte_eth_rx_burst`` /
``rte_ring_dequeue_burst`` do.  Batching does not change what the model
predicts (simulated throughput and packet accounting are identical —
per-batch poll costs default to 0 ns), but it collapses the simulator
kernel work per packet: one scheduled event moves a whole burst.  This
ablation sweeps the knob on the Fig. 7 small-packet workload (2-VM
sequential chain, 64 B at line rate) and reports model outputs
(throughput, p50/p99 RTT) alongside simulator-efficiency metrics
(kernel events per packet, wall-clock time).
"""

import time

import pytest

from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

BURSTS = [1, 4, 8, 16, 32, 64]
WINDOW_NS = 3 * MS


def measure(burst_size: int) -> dict:
    sim = Simulator()
    host = NfvHost(sim, name=f"burst{burst_size}", burst_size=burst_size)
    services = ["noop0", "noop1"]
    for service in services:
        host.add_nf(NoOpNf(service), ring_slots=1024)
    install_chain(host, services)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
    gen = PktGen(sim, host, window_ns=MS)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=10_000.0, packet_size=64,
                          stop_ns=2 * WINDOW_NS))
    start = time.perf_counter()
    # One extra window past stop_ns so the pipeline drains and every
    # received packet is either transmitted or counted as a drop.
    sim.run(until=3 * WINDOW_NS)
    wall_s = time.perf_counter() - start
    stats = host.stats
    drops = (stats.dropped_ring_full + stats.dropped_no_vm
             + stats.dropped_no_rule + stats.lost_in_nf)
    return {
        "gbps": gen.rx_meter.mean_gbps(WINDOW_NS, 2 * WINDOW_NS),
        "p50_us": gen.latency.percentile_us(50),
        "p99_us": gen.latency.percentile_us(99),
        "events_per_pkt": sim.events_scheduled / stats.rx_packets,
        # Bare call_later timers (the rte_timer-style lane) — a subset of
        # events_per_pkt, showing how much kernel work bypasses Event
        # dispatch entirely.
        "timers_per_pkt": sim.timers_scheduled / stats.rx_packets,
        "wall_s": wall_s,
        "rx": stats.rx_packets,
        "tx": stats.tx_packets,
        "drops": drops,
        "vm_mean_batch": stats.batch_summary()["vm_mean_batch"],
    }


def test_ablation_burst_size(report):
    results = {burst: measure(burst) for burst in BURSTS}

    base = results[1]
    tuned = results[32]

    for burst, r in results.items():
        # Packet conservation: everything received is transmitted or
        # accounted as a drop, at every burst size.
        assert r["rx"] == r["tx"] + r["drops"], burst
        # Batching is a simulator/host-efficiency knob, not a model
        # change: the achieved throughput must not move.
        assert r["gbps"] == pytest.approx(base["gbps"], rel=0.02), burst

    # The point of the refactor: one event moves a burst, so kernel
    # events per packet collapse (measured 8.26 -> 3.32 at 32).
    assert tuned["events_per_pkt"] < 0.6 * base["events_per_pkt"]
    assert tuned["wall_s"] < 0.9 * base["wall_s"]
    # The timer lane carries real work (pktgen pacing, NIC TX, VM
    # hand-offs) but is strictly a subset of the odometer.
    assert 0 < tuned["timers_per_pkt"] < tuned["events_per_pkt"]
    # Batches actually form under small-packet overload.
    assert tuned["vm_mean_batch"] > 8.0
    # Batching trades a bounded amount of queueing latency (descriptors
    # wait for their burst peers); keep it within the Table 2 band.
    assert tuned["p50_us"] - base["p50_us"] < 25.0
    assert tuned["p99_us"] - base["p99_us"] < 25.0

    columns = {
        "burst": BURSTS,
        "gbps": [results[b]["gbps"] for b in BURSTS],
        "p50_us": [results[b]["p50_us"] for b in BURSTS],
        "p99_us": [results[b]["p99_us"] for b in BURSTS],
        "events_per_pkt": [results[b]["events_per_pkt"] for b in BURSTS],
        "timers_per_pkt": [results[b]["timers_per_pkt"] for b in BURSTS],
        "wall_s": [results[b]["wall_s"] for b in BURSTS],
        "drops": [results[b]["drops"] for b in BURSTS]}
    report("ablation_burst_size", series_table(
        "Ablation — burst size (2-VM chain, 64 B at line rate)", columns),
        metrics=columns,
        config={"packet_size": 64, "offered_mbps": 10_000.0,
                "chain": ["noop0", "noop1"], "ring_slots": 1024,
                "window_ns": WINDOW_NS})
