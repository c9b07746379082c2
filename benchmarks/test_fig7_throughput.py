"""Figure 7: throughput vs packet size for chain length / parallelism.

Paper (one CPU socket, 1 RX + 2 TX threads): plain DPDK forwarding holds
line rate for most sizes; through VMs, "SDNFV can achieve close to 5Gbps
for smaller packet sizes when using one socket and can achieve 10Gbps
with larger packet sizes".

The generator offers line rate (10 Gbps); the achieved receive rate is
bounded by the slowest per-packet stage for small packets and by the wire
for large ones.
"""

import pytest

from repro.baselines import make_dpdk_forwarder
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

SIZES = [64, 128, 256, 512, 1024]
CONFIGS = ["0VM (dpdk)", "1VM", "2VM (parallel)", "2VM (sequential)"]
WINDOW_NS = 3 * MS


def measure(config: str, size: int) -> float:
    sim = Simulator()
    if config == "0VM (dpdk)":
        host = make_dpdk_forwarder(sim)
    else:
        vms = int(config[0])
        host = NfvHost(sim, name=config)
        services = [f"noop{i}" for i in range(vms)]
        for service in services:
            host.add_nf(NoOpNf(service), ring_slots=1024)
        install_chain(host, services)
        if "parallel" in config and vms > 1:
            host.manager.register_parallel_chain(services)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
    gen = PktGen(sim, host, window_ns=MS)
    # Offer at line rate: inter-packet gap = serialization time at 10 G.
    offered_mbps = 10_000.0
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=offered_mbps,
                          packet_size=size, stop_ns=2 * WINDOW_NS))
    sim.run(until=2 * WINDOW_NS)
    # Steady-state receive rate while the offer is active; the NIC's
    # bounded RX ring drops the excess, exactly like the testbed.
    return gen.rx_meter.mean_gbps(WINDOW_NS, 2 * WINDOW_NS)


def test_fig7_throughput_vs_packet_size(report):
    results = {config: [measure(config, size) for size in SIZES]
               for config in CONFIGS}

    dpdk = results["0VM (dpdk)"]
    one_vm = results["1VM"]
    par = results["2VM (parallel)"]
    seq = results["2VM (sequential)"]

    # DPDK holds ~line rate for most packet sizes.
    assert dpdk[SIZES.index(256)] == pytest.approx(10.0, rel=0.1)
    assert dpdk[SIZES.index(1024)] == pytest.approx(10.0, rel=0.1)
    # VM configs: ~5 Gbps at 64 B, ~line rate at 1024 B.
    assert 3.5 <= one_vm[0] <= 7.0
    assert one_vm[-1] == pytest.approx(10.0, rel=0.1)
    assert 3.0 <= seq[0] <= 7.0
    assert seq[-1] == pytest.approx(10.0, rel=0.1)
    # Ordering at small sizes: dpdk >= 1VM >= chains.
    assert dpdk[0] > one_vm[0]
    assert one_vm[0] >= par[0] - 0.5
    assert one_vm[0] >= seq[0] - 0.5
    # Throughput grows with packet size for every configuration.
    for series in results.values():
        assert all(b >= a - 0.2 for a, b in zip(series, series[1:]))

    columns = {"size_B": SIZES}
    for config in CONFIGS:
        columns[config.replace(" ", "_")] = results[config]
    report("fig7_throughput", series_table(
        "Fig. 7 — achieved throughput (Gbps) vs packet size, one socket",
        columns), metrics=columns)
